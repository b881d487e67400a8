import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cubegal.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cubegal"
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so guards must raise explicitly
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_runtime_imports_only_the_standard_library():
    # the package runs on a bare interpreter: no numpy, gmpy2 or sympy
    allowed = set(sys.stdlib_module_names) | {"cubegal"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []


def test_readme_command_examples_parse():
    # a flag the CLI drops must not linger in the documented examples
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv[:1] == ["cubegal"]]
    assert len(commands) >= 5
    for argv in commands:
        build_parser().parse_args(argv[1:])


_LAYERING_PROBE = """\
import json, os, sys
from cubegal.cli import cli_main
codes = [cli_main(["order", "--cube", "3", "--report", "json", "--out", os.devnull]),
         cli_main(["gens", "--cube", "3", "--out", os.devnull])]
loaded = sorted(set(sys.argv[1:]) & set(sys.modules))
codes.append(cli_main(["verify", "--theorem", "rubik", "--primes", "5", "--jobs", "1",
                       "--out", os.devnull]))
print(json.dumps({"codes": codes, "loaded": loaded,
                  "theorems_after_verify": "cubegal.theorems" in sys.modules}))
"""


_NUMBER_LAYER = ["cubegal.evidence", "cubegal.theorems", "cubegal.polymod",
                 "cubegal.polyq", "cubegal.sqclass", "concurrent.futures.process"]
_HEAVY = ["ast", "dataclasses", "dis", "inspect", "tokenize"]


@pytest.fixture(scope="module")
def layering():
    # one interpreter serves both pins below; -S keeps site .pth files
    # from preloading any of the probed modules
    run = subprocess.run([sys.executable, "-S", "-c", _LAYERING_PROBE, *_NUMBER_LAYER, *_HEAVY],
                         env=_ENV, cwd=ROOT, capture_output=True, text=True, check=True)
    got = json.loads(run.stdout)
    assert got["codes"] == [0, 0, 0] and got["theorems_after_verify"] is True
    return set(got["loaded"])


def test_order_and_gens_leave_the_number_layer_unimported(layering):
    # cold start: order and gens need only perm, bsgs, cubes and structure
    assert sorted(layering & set(_NUMBER_LAYER)) == []


def test_order_and_gens_leave_dataclasses_unimported(layering):
    # CycleType, CheckReport and StickerModel are plain classes, so the
    # order path skips dataclasses and the modules it imports
    assert sorted(layering & set(_HEAVY)) == []


_LAZY_IMPORT_PROBE = """\
import json, os, sys
from cubegal.cli import cli_main
heavy = sys.argv[1:]
verify = ["verify", "--theorem", "rubik", "--out", os.devnull]
steps = [cli_main([*verify, "--primes", "5", "--jobs", "1"])]
steps.append(sorted(set(heavy) & set(sys.modules)))
steps += [cli_main(["order", "--cube", "3", "--out", os.devnull]), "hashlib" in sys.modules]
# ten primes: five past the cached ones, so the scans miss and start pools
steps.append(cli_main([*verify, "--primes", "10", "--jobs", "2"]))
steps.append(sorted(set(heavy) & set(sys.modules)))
print(json.dumps(steps))
"""


def test_openssl_and_the_pool_stack_load_only_where_they_are_used():
    # the pool stack loads only at --jobs > 1, and hashlib (OpenSSL) in none
    # of these commands; -S keeps site .pth files from preloading any of them
    heavy = ["_hashlib", "concurrent.futures.process", "hashlib", "multiprocessing"]
    run = subprocess.run([sys.executable, "-S", "-c", _LAZY_IMPORT_PROBE, *heavy],
                         env=_ENV, cwd=ROOT, capture_output=True, text=True, check=True)
    pool_stack = ["concurrent.futures.process", "multiprocessing"]
    assert json.loads(run.stdout) == [0, [], 0, False, 0, pool_stack]


# pools a --jobs 2 run starts (None: the count is absent): rubik scans f
# and g and revenge scans the rubik pair, each with cache misses, while
# professor runs no scan; certificates and parity linkages run in process
_POOLS_AT_JOBS_2 = {"rubik": 2, "revenge": 2, "professor": None}


@pytest.mark.parametrize("suite", _POOLS_AT_JOBS_2)
def test_probe_counts_one_pool_per_call_with_misses_at_jobs_2(tmp_path, suite):
    # probe.py subclasses evidence.ProcessPoolExecutor, a lazily imported
    # name, and installs the subclass; every pool must still go through it
    runs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"counts_j{jobs}.json"
        run = subprocess.run(
            [sys.executable, str(ROOT / "benchmarks" / "probe.py"), "--spans", "0",
             "--out", str(out), "--", "verify", "--theorem", suite, "--primes", "25",
             "--jobs", jobs, "--report", "json"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        report = json.loads(run.stdout)
        for check in report["checks"]:
            del check["ms"]
        runs[jobs] = report, json.loads(out.read_text())["counts"]
    assert runs["2"][1].get("evidence.pool") == _POOLS_AT_JOBS_2[suite]
    assert "evidence.pool" not in runs["1"][1]
    assert runs["2"][0] == runs["1"][0]


def test_micro_benchmark_oracles_report_no_problems(tmp_path):
    # micro.py checks each timed kernel against an independent oracle
    # (Stickelberger sign, sympy's factor_list, powmod against repeated
    # multiplication); a wrong kernel shows up in "problems"
    out = tmp_path / "micro.json"
    subprocess.run([sys.executable, str(ROOT / "benchmarks" / "micro.py"), "--seed", "1",
                    "--out", str(out)], cwd=ROOT, capture_output=True, text=True, check=True)
    assert json.loads(out.read_text())["problems"] == []


def test_theorems_loads_neither_the_group_engine_nor_the_sticker_models():
    # the number layer reads the cube orders from structure, which needs only math
    probe = ("import sys, cubegal.theorems; "
             "print(sorted({'cubegal.bsgs', 'cubegal.cubes'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", probe], env=_ENV, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


# public names no command and no benchmark file uses, each kept for a reason
_UNCALLED_ALLOWED = {
    "evidence.MIN_DISTINCT_TYPES_S24": "statistical window the ROADMAP pins in evidence",
    "evidence.EVEN_FRACTION_WINDOW": "statistical window the ROADMAP pins in evidence",
    "theorems.professor_h1_stated": "the paper's named factor, as stated",
}


def _spelled(tree) -> set:
    """The identifiers, attributes, imported names and constants of a syntax
    tree; constants, because the benchmark probe rebinds names by string."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            or n.value for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias, ast.Constant))}


def _attributes(tree) -> set:
    """The attribute names and string constants of a syntax tree: how a
    method is reached.  A bare name (the builtin next) reaches none."""
    return {n.attr if isinstance(n, ast.Attribute) else n.value for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            or isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_every_public_name_has_a_command_or_benchmark_caller():
    # a name only the tests use belongs in tests/reference.py.  A top-level
    # statement uses the names it spells; no name is bound in two modules.
    # A public method is used when a kept statement or a benchmark file
    # spells it as an attribute
    module_of, uses, attributes, methods = {}, {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = [stmt.name] if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else [
                t.id for t in getattr(stmt, "targets", [getattr(stmt, "target", None)])
                if isinstance(t, ast.Name)]
            for name in names:
                assert module_of.setdefault(name, path.stem) == path.stem
                uses.setdefault(name, set()).update(_spelled(stmt))
                attributes.setdefault(name, set()).update(_attributes(stmt))
            if isinstance(stmt, ast.ClassDef):
                methods.update({f"{path.stem}.{stmt.name}.{m.name}": m.name for m in stmt.body
                                if isinstance(m, ast.FunctionDef)
                                and not m.name.startswith("_")})
    benchmarks = [ast.parse(path.read_text(encoding="utf-8"))
                  for path in (ROOT / "benchmarks").glob("*.py")]
    named = set().union(*map(_spelled, benchmarks))
    todo = ["main", *(uses.keys() & named)]
    reached = set()
    while todo:
        name = todo.pop()
        if name in uses and name not in reached:
            reached.add(name)
            todo.extend(uses[name])
    assert {f"_cmd_{c}" for c in ("order", "gens", "disc", "frobenius", "verify")} <= reached
    uncalled = {f"{module_of[n]}.{n}" for n in uses.keys() - reached if not n.startswith("_")}
    assert uncalled == set(_UNCALLED_ALLOWED)
    kept = reached | {name.split(".")[1] for name in _UNCALLED_ALLOWED}
    spelled = set().union(*map(_attributes, benchmarks), *(attributes[n] for n in kept))
    assert {m for m, name in methods.items() if name not in spelled} == set()
