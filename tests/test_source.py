"""Rules on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "ringspace"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no failure may rest on one
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
