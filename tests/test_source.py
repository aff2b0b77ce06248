"""Rules on the library's source text."""

import ast
import os
import subprocess
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


def test_library_imports_scipy_only_inside_functions():
    # a module-level scipy import costs every process its load time, though
    # most subcommands never use it
    found = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.parse(path.read_text(), filename=str(path)).body
             if (isinstance(node, ast.Import)
                 and any(alias.name.split(".")[0] == "scipy" for alias in node.names))
             or (isinstance(node, ast.ImportFrom) and node.level == 0
                 and node.module.split(".")[0] == "scipy")]
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


def test_only_spaces_calls_monomial_norms():
    # ||z^n||^2 has one owner: solvers read log_monomial_norms or ring_gram's
    # scale, which stay finite where the linear norms overflow
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "spaces.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call)
             and "monomial_norms" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))]
    assert found == []


def test_only_spaces_calls_weighted_gram():
    # scaled_gram owns a window's Gram and its node floor max(m, 4N+4); the
    # ladder pencil reads ring_gram, whose m >= 4N+4 guard stays for it
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "spaces.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call)
             and "weighted_gram" in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))]
    assert found == []


def test_only_spaces_reads_a_weight_fn():
    # quadrature_for is the one place a tag's weight enters a measure
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "spaces.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "weight_fn"]
    assert found == []


def _run_scipy_users():
    # the library imports scipy on first use; the benchmark runs one job and
    # its untraced loop before installing the tracer, which reads
    # scipy.linalg and scipy.sparse.linalg from sys.modules
    from click.testing import CliRunner
    from ringspace import cli
    for args in (["biharmonic", "--r", "0.5", "--pole", "0.7"],
                 ["qc-estimate", "--r", "0.5", "--base", "0.6", "--zeros", "0.8",
                  "--m", "256"]):
        result = CliRunner().invoke(cli.main, args)
        assert result.exit_code == 0, result.output


def test_cold_hmeasure_imports_no_scipy():
    code = ("import sys\n"
            "from ringspace.cli import main\n"
            "sys.argv[1:] = ['hmeasure', '--r', '0.5']\n"
            "try:\n"
            "    main()\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "[]"


def test_scipy_users_load_what_the_tracer_wraps():
    _run_scipy_users()
    assert "scipy.linalg" in sys.modules
    assert "scipy.sparse.linalg" in sys.modules


def test_benchmark_tracer_installs_on_the_cli():
    # the benchmark's tracer wraps library entry points and scipy solvers by
    # name, so a renamed entry or a dropped import fails here, not at bench time
    import ringspace.cli  # noqa: F401
    _run_scipy_users()
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
    _run_scipy_users()
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
