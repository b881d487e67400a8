import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cubegal"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so guards must raise explicitly
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
