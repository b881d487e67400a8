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
