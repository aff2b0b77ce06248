"""Rules on the library's source text."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "ringspace"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no failure may rest on one
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_benchmark_tracer_installs_on_the_cli():
    # the benchmark's tracer wraps library entry points and scipy solvers by
    # name, so a renamed entry or a dropped import fails here, not at bench time
    import ringspace.cli  # noqa: F401
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.pop(0)
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
