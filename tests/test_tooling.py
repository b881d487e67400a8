import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from cubegal.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cubegal"


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


def test_order_and_gens_leave_the_number_layer_unimported():
    # cold start: order and gens need only perm, bsgs, cubes and structure
    number_layer = ["cubegal.evidence", "cubegal.theorems", "cubegal.polymod",
                    "cubegal.polyq", "cubegal.sqclass", "concurrent.futures.process"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _LAYERING_PROBE, *number_layer],
                         env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    got = json.loads(run.stdout)
    assert got == {"codes": [0, 0, 0], "loaded": [], "theorems_after_verify": True}


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
    # hashlib (OpenSSL) is for the sticker tables' integrity check, the pool
    # stack for --jobs > 1; -S keeps site .pth files from preloading either
    heavy = ["_hashlib", "concurrent.futures.process", "hashlib", "multiprocessing"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-S", "-c", _LAZY_IMPORT_PROBE, *heavy],
                         env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == [0, [], 0, True, 0, heavy]


def test_probe_counts_one_pool_per_call_with_misses_at_jobs_2(tmp_path):
    # probe.py subclasses evidence.ProcessPoolExecutor, a lazily imported
    # name, and installs the subclass; every pool must still go through it
    runs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"counts_j{jobs}.json"
        run = subprocess.run(
            [sys.executable, str(ROOT / "benchmarks" / "probe.py"), "--spans", "0",
             "--out", str(out), "--", "verify", "--theorem", "rubik", "--primes", "25",
             "--jobs", jobs, "--report", "json"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        report = json.loads(run.stdout)
        for check in report["checks"]:
            del check["ms"]
        runs[jobs] = report, json.loads(out.read_text())["counts"]
    # scan f, scan g and two parity linkages, each with cache misses
    assert runs["2"][1]["evidence.pool"] == 4
    assert "evidence.pool" not in runs["1"][1]
    assert runs["2"][0] == runs["1"][0]
