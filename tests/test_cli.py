import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cubegal import evidence
from cubegal.cli import build_parser, cli_main
from cubegal.cubes import GENERATOR_TABLES, cube_model
from cubegal.perm import parse_cycles, print_cycles
from cubegal.polyq import PolyQ, discriminant, exact_str, trinomial_poly
from cubegal.structure import R3_ORDER
from cubegal.theorems import revenge_h, rubik_f, rubik_g
from reference import save_poly


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    return code, capsys.readouterr().out


def test_order_cube3(capsys):
    code, out = run_cli(capsys, "order", "--cube", "3")
    assert code == 0
    assert str(R3_ORDER) in out


def test_order_json_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _ = run_cli(capsys, "order", "--cube", "3", "--report", "json",
                      "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["version"] == 1
    assert doc["summary"] == {"pass": 1, "fail": 0, "skip": 0, "inconclusive": 0}
    assert doc["checks"][0]["actual"] == str(R3_ORDER)


def test_order_reports_a_refuted_bound_as_a_failed_check(capsys, monkeypatch):
    # a chain past the proved upper bound is a failed check with the error
    # text, not a traceback.  The false bound is a prime above the degree,
    # so no orbit product (a product of orbit sizes <= 48) can equal it
    from cubegal import cubes
    monkeypatch.setattr(cubes, "order_bound", lambda model: 53)
    monkeypatch.setattr(cube_model(3), "_group", None)
    code, out = run_cli(capsys, "order", "--cube", "3", "--report", "json")
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "fail"
    assert check["actual"] == "error: the chain holds more elements than the proved upper bound"


def test_order_report_does_not_depend_on_the_seed(capsys, monkeypatch):
    # `order` accepts --seed and ignores it; each run builds its group anew
    reports = []
    for seed in ("1", "2"):
        monkeypatch.setattr(cube_model(3), "_group", None)
        code, out = run_cli(capsys, "order", "--cube", "3", "--report", "json", "--seed", seed)
        assert code == 0
        reports.append(re.sub(r'"ms": \d+', "", out))
    assert reports[0] == reports[1]


def test_gens_cycles_format(capsys):
    code, out = run_cli(capsys, "gens", "--cube", "4", "--report", "text")
    assert code == 0
    assert "r2 = (39 87 10 95)(27 75 22 83)(15 63 34 71)(3 51 46 59)" in out


def test_gens_json_format(capsys):
    code, out = run_cli(capsys, "gens", "--cube", "5", "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 144
    names = [e["name"] for e in doc["generators"]]
    assert names == ["r1", "r2", "b1", "b2", "d1", "d2",
                     "u1", "u2", "l1", "l2", "f1", "f2"]
    assert doc["generators"][0]["cycles"].startswith("(40 88 9 96)")


def test_gens_cube3_prints_canonical_cycles(capsys):
    code, out = run_cli(capsys, "gens", "--cube", "3")
    assert code == 0
    assert out.count("=") == 6


@pytest.mark.parametrize("cube", [3, 4, 5])
def test_gens_lines_parse_back_to_the_generators(capsys, cube):
    model = cube_model(cube)
    _, text = run_cli(capsys, "gens", "--cube", str(cube), "--report", "text")
    lines = dict(line.split(" = ") for line in text.splitlines())
    _, payload = run_cli(capsys, "gens", "--cube", str(cube), "--report", "json")
    assert {e["name"]: e["cycles"] for e in json.loads(payload)["generators"]} == lines
    assert list(lines) == list(model.generators)
    for name, g in model.generators.items():
        assert parse_cycles(lines[name], model.degree) == g
    if cube == 5:
        assert lines == GENERATOR_TABLES
    if cube == 3:
        assert lines == {name: print_cycles(g) for name, g in model.generators.items()}


def test_disc_subcommand(tmp_path, capsys):
    path = tmp_path / "h.json"
    save_poly(trinomial_poly(1), path)
    code, out = run_cli(capsys, "disc", "--poly", str(path))
    assert code == 0
    assert str(-(23 ** 23 + 24 ** 24)) in out


def test_disc_square_class_fail_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "h.json"
    save_poly(trinomial_poly(1), path)
    # disc(X^24 - X - 1) is not in the class 7c, so the check fails
    code, out = run_cli(capsys, "disc", "--poly", str(path),
                        "--square-class-vs", "10061923336916391234966329")
    assert code == 1
    assert "FAIL" in out


def test_disc_square_class_pass(tmp_path, capsys):
    path = tmp_path / "h.json"
    save_poly(trinomial_poly(1), path)
    target = -(23 ** 23 + 24 ** 24)
    code, out = run_cli(capsys, "disc", "--poly", str(path),
                        "--square-class-vs", str(target))
    assert code == 0


def test_frobenius_scan(tmp_path, capsys):
    path = tmp_path / "h.json"
    save_poly(trinomial_poly(1), path)
    code, out = run_cli(capsys, "frobenius", "--poly", str(path),
                        "--primes", "25", "--jobs", "1")
    assert code == 0
    assert "25 good" in out


def test_frobenius_certify(tmp_path, capsys):
    path = tmp_path / "h.json"
    save_poly(trinomial_poly(1), path)
    code, out = run_cli(capsys, "frobenius", "--poly", str(path),
                        "--primes", "400", "--certify", "symmetric", "--jobs", "1")
    assert code == 0
    assert "witnesses" in out


def test_frobenius_certify_says_a_square_discriminant_examines_no_prime(tmp_path, capsys):
    path = tmp_path / "g.json"
    save_poly(rubik_g(), path)  # disc g is a square, so certify_symmetric stops at once
    code, out = run_cli(capsys, "frobenius", "--poly", str(path), "--primes", "20",
                        "--certify", "symmetric", "--jobs", "1", "--report", "json")
    assert code == 0
    cert = json.loads(out)["checks"][1]
    assert cert["status"] == "inconclusive"
    assert cert["actual"] == ("the discriminant is a square, so the group lies in A_n; "
                              "no prime was examined")


def test_frobenius_wreath_containment(tmp_path, capsys):
    path = tmp_path / "f.json"
    save_poly(rubik_f(), path)
    code, out = run_cli(capsys, "frobenius", "--poly", str(path),
                        "--primes", "30", "--certify", "wreath-3-8", "--jobs", "1")
    assert code == 0
    assert "0 types outside" in out


def test_frobenius_scans_the_default_budget_without_primes(tmp_path, capsys):
    path = tmp_path / "c.json"
    save_poly(PolyQ.from_coeffs([-1, -1, 0, 1]), path)  # X^3 - X - 1
    code, out = run_cli(capsys, "frobenius", "--poly", str(path), "--jobs", "1",
                        "--report", "json")
    assert code == 0
    scan = json.loads(out)["checks"][0]
    assert scan["expected"] == f"{evidence.DEFAULT_SCAN_BUDGET} good primes"
    assert scan["actual"].startswith(f"{evidence.DEFAULT_SCAN_BUDGET} good, ")


_FROBENIUS_HELP = """\
usage: cubegal frobenius [-h] [--report {text,json}] [--jobs JOBS]
                         [--seed SEED] [--out OUT] --poly POLY
                         [--primes PRIMES]
                         [--certify {symmetric,wreath-3-8,wreath-2-12}]

options:
  -h, --help            show this help message and exit
  --report {text,json}
  --jobs JOBS           worker processes for prime scans (default: the CPUs
                        available to this process)
  --seed SEED           accepted for compatibility; the group build is
                        deterministic and ignores it
  --out OUT             write the report to a file
  --poly POLY           polynomial JSON file
  --primes PRIMES
  --certify {symmetric,wreath-3-8,wreath-2-12}
"""


def test_frobenius_help_is_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        cli_main(["frobenius", "--help"])
    assert capsys.readouterr().out == _FROBENIUS_HELP


def test_verify_rubik_report_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    for path, jobs in ((a, "1"), (b, "1"), (c, "2")):
        code, _ = run_cli(capsys, "verify", "--theorem", "rubik",
                          "--primes", "25", "--jobs", jobs,
                          "--report", "json", "--out", str(path))
        assert code == 0

    def normalized(path):
        doc = json.loads(path.read_text())
        for check in doc["checks"]:
            check["ms"] = 0
        return doc

    assert normalized(a) == normalized(b) == normalized(c)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["order", "--cube", "7"])
    assert exc.value.code == 2


def test_disc_prints_discriminants_past_the_digit_limit(tmp_path, capsys):
    rng = random.Random(24)
    coeffs = [Fraction(rng.randrange(10**19, 10**20), rng.randrange(10**19, 10**20))
              for _ in range(24)] + [1]
    f = PolyQ.from_coeffs(coeffs)
    path = tmp_path / "dense.json"
    save_poly(f, path)
    code, out = run_cli(capsys, "disc", "--poly", str(path))
    assert code == 0
    d = discriminant(f)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = f"{d.numerator}/{d.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) > 2 * limit
    assert out.splitlines()[0] == expected


def test_disc_reads_coefficients_past_the_digit_limit(tmp_path, capsys):
    # save_poly writes a 5,001-digit constant term in full, and --poly reads
    # it back without int(str)'s digit limit
    c = 7 * 10 ** 5000 + 1
    path = tmp_path / "long.json"
    save_poly(PolyQ.from_coeffs([c, 0, 1]), path)
    code, out = run_cli(capsys, "disc", "--poly", str(path))
    assert code == 0
    assert out.splitlines()[0] == exact_str(Fraction(-4 * c))  # disc(X^2 + c)


# past CPython's default int-string limit: read in full, so only a malformed
# long coefficient is bad input
_LONG = "1" * 5000


@pytest.mark.parametrize("argv, poly_text", [
    (["verify", "--theorem", "rubik", "--jobs", "0"], None),
    (["verify", "--theorem", "rubik", "--jobs", "-3"], None),
    (["verify", "--theorem", "rubik", "--primes", "0"], None),
    (["verify", "--theorem", "rubik", "--certify-primes", "0"], None),
    (["frobenius", "--poly", "{poly}", "--primes", "0"], '{"degree": 1, "coefficients": ["1", "1"]}'),
    (["disc", "--poly", "{poly}"], None),  # the file does not exist
    (["disc", "--poly", "{poly}"], "{not json"),
    (["disc", "--poly", "{poly}"], '{"degree": 2}'),
    (["disc", "--poly", "{poly}"], '["1", "1"]'),
    (["disc", "--poly", "{poly}"], '{"degree": 1, "coefficients": ["1/0", "1"]}'),
    (["frobenius", "--poly", "{poly}"], '{"degree": 1, "coefficients": ["abc", "1"]}'),
    (["disc", "--poly", "{poly}"], '{"degree": 3, "coefficients": ["1", "1"]}'),
    (["disc", "--poly", "{poly}"], '{"degree": 2, "coefficients": ["1", "1", "0"]}'),
    (["disc", "--poly", "{poly}"], '{"degree": 0, "coefficients": ["5"]}'),
    (["disc", "--poly", "{poly}"], '{"degree": 1, "coefficients": ["%se5", "1"]}' % _LONG),
    (["disc", "--poly", "{poly}", "--square-class-vs", "seven"],
     '{"degree": 1, "coefficients": ["1", "1"]}'),
    # well-formed, but refused by the evidence layer: degree < 8 for the
    # certifier, and (X+1)^2, which is bad at every prime
    (["frobenius", "--poly", "{poly}", "--primes", "5", "--certify", "symmetric"],
     '{"degree": 3, "coefficients": ["-1", "-1", "0", "1"]}'),
    (["frobenius", "--poly", "{poly}", "--primes", "5"],
     '{"degree": 2, "coefficients": ["1", "2", "1"]}'),
    # --out into a directory that does not exist, or under a plain file
    (["gens", "--cube", "3", "--out", "{poly}/x"], None),
    (["order", "--cube", "3", "--out", "{poly}/x"], None),
    (["disc", "--poly", "{poly}", "--out", "{poly}/x"],
     '{"degree": 1, "coefficients": ["1", "1"]}'),
    # zero has no square class: the message blames a zero INT or a zero discriminant
    pytest.param(["disc", "--poly", "{poly}", "--square-class-vs", "0"],
                 '{"degree": 1, "coefficients": ["1", "1"]}',
                 marks=pytest.mark.blames("--square-class-vs 0: zero has no square class")),
    pytest.param(["disc", "--poly", "{poly}", "--square-class-vs", "5"],
                 '{"degree": 2, "coefficients": ["1", "2", "1"]}',
                 marks=pytest.mark.blames("--poly {poly}: the discriminant is 0")),
    # the wreath type sets live on 24 points: X^3 + X + 1 is no input for them
    (["frobenius", "--poly", "{poly}", "--primes", "20", "--certify", "wreath-3-8"],
     '{"degree": 3, "coefficients": ["1", "1", "0", "1"]}'),
    (["frobenius", "--poly", "{poly}", "--primes", "20", "--certify", "wreath-2-12"],
     '{"degree": 3, "coefficients": ["1", "1", "0", "1"]}'),
    # JSON booleans are not coefficients, though Python counts them as ints
    (["disc", "--poly", "{poly}"], '{"degree": 1, "coefficients": [true, true]}'),
])
def test_bad_input_is_a_usage_error(tmp_path, capsys, request, argv, poly_text):
    path = tmp_path / "poly.json"
    if poly_text is not None:
        path.write_text(poly_text, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli_main([arg.replace("{poly}", str(path)) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    for blames in request.node.iter_markers("blames"):
        assert "error: " + blames.args[0].replace("{poly}", str(path)) in err


def test_default_jobs_counts_cpus_available_to_the_process(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    assert build_parser().parse_args(["order", "--cube", "3"]).jobs == 1
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    assert build_parser().parse_args(["order", "--cube", "3"]).jobs == 64


def test_every_suite_setting_is_set_by_a_verify_flag(capsys, monkeypatch):
    # a SuiteOptions field no flag sets is a setting no command uses
    from dataclasses import fields

    from cubegal import theorems
    seen = []
    monkeypatch.setattr(theorems, "verify_theorem", lambda which, opts: seen.append(opts) or [])
    code, _ = run_cli(capsys, "verify", "--theorem", "rubik", "--primes", "7",
                      "--certify-primes", "9", "--jobs", "2")
    assert code == 0 and len(seen) == 1
    flag_values = {"scan_budget": 7, "certify_budget": 9, "jobs": 2}
    assert {f.name: getattr(seen[0], f.name) for f in fields(seen[0])} == flag_values


# the reports the benchmark recorded at its seed commit; read in place, so
# the benchmark and this test share one source of truth
_RECORDED = Path(__file__).resolve().parent.parent / "benchmarks" / "expected_reports.json"
_RECORDED_COMMANDS = {
    "order3": ["order", "--cube", "3"],
    "order4": ["order", "--cube", "4"],
    "order5": ["order", "--cube", "5"],
    "verify_rubik": ["verify", "--theorem", "rubik", "--jobs", "1"],
    "verify_revenge": ["verify", "--theorem", "revenge", "--jobs", "1"],
    "verify_professor": ["verify", "--theorem", "professor", "--jobs", "1"],
}


@pytest.mark.parametrize("name", list(_RECORDED_COMMANDS))
def test_report_equals_the_recorded_one(capsys, name):
    code, out = run_cli(capsys, *_RECORDED_COMMANDS[name], "--report", "json")
    assert code == 0
    report = json.loads(out)
    for check in report["checks"]:
        del check["ms"]
    assert report == json.loads(_RECORDED.read_text(encoding="utf-8"))[name]


# outputs of the commands the recorded reports above do not cover
_GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_outputs.json")
                     .read_text(encoding="utf-8"))["runs"]
_GOLDEN_POLYS = {"revenge_h": revenge_h, "rubik_f": rubik_f,
                 "X^8 - X - 1": lambda: PolyQ.from_coeffs([-1, -1, 0, 0, 0, 0, 0, 0, 1])}


@pytest.mark.parametrize("name", list(_GOLDEN))
def test_output_equals_the_golden_one(tmp_path, capsys, name):
    run = _GOLDEN[name]
    path = tmp_path / "poly.json"
    if "poly" in run:
        save_poly(_GOLDEN_POLYS[run["poly"]](), path)
    code, out = run_cli(capsys, *(arg.replace("{poly}", str(path)) for arg in run["argv"]))
    assert code == run["exit"]
    if "stdout" in run:
        assert out == run["stdout"]
        return
    report = json.loads(out)
    for check in report["checks"]:
        del check["ms"]
    assert report == run["report"]
