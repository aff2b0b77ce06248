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


def test_library_touches_no_other_objects_private_attributes():
    # ``x._name`` is private to x's own class: no module reads or writes it on
    # another object (``self``/``cls`` exempt; dunders are public protocol)
    found = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr.startswith("_")
             and not node.attr.endswith("__")
             and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]
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


def test_benchmark_tracer_sees_the_boundary_layers():
    # schottky-fit reaches the boundary nodes, the measure density and the
    # Schottky function through the names the benchmark's tracer wraps
    from click.testing import CliRunner
    from ringspace import cli
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.pop(0)
    tracer = Tracer()
    tracer.install()
    try:
        result = CliRunner().invoke(cli.main, ["schottky-fit", "--r", "0.5", "--base", "0.7",
                                               "--zeros", "0.6i", "--N", "96"])
    finally:
        tracer.uninstall()
    assert result.exit_code == 0, result.output
    metrics = tracer.layer_metrics()
    for name in ("geometry.boundary_nodes", "harmonic.measure_density", "harmonic.schottky"):
        assert metrics[f"{name}.calls"] > 0, name
