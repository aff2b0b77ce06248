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


def test_only_cli_passes_a_green_truncation():
    # green picks the truncation from its tail bound; no caller in the
    # library, the green subcommand included, passes one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call)
             and "green" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
             and (len(node.args) > 2 or any(k.arg == "N" for k in node.keywords))]
    assert found == []


def _config_reads(tree) -> dict[str, set[str]]:
    """Per module-level function: the ``config.<flag>`` attributes it reads,
    itself or through the module's functions it calls (``_domain``,
    ``_grid_out``, ``_space_tag``)."""
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(name, seen):
        seen.add(name)
        found = set()
        for node in ast.walk(funcs[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "config"):
                found.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in funcs and node.func.id not in seen):
                found |= reads(node.func.id, seen)
        return found
    return {name: reads(name, set()) for name in funcs}


def test_every_subcommand_flag_is_read_by_its_handler():
    # a _COMMANDS row names the flags its subcommand takes beyond the common
    # ones; each must change what the handler computes, so none is dead, and
    # the handler reads no flag its subcommand does not take
    from ringspace.cli import _COMMON
    tree = ast.parse((SRC / "cli.py").read_text())
    reads = _config_reads(tree)
    rows = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "_COMMANDS")
    dead, undeclared = [], []
    for key, row in zip(rows.keys, rows.values):
        handler, _, flags = row.elts
        named = {flag.value for flag in flags.elts}
        dead += [f"{key.value} --{flag}" for flag in sorted(named - reads[handler.id])]
        undeclared += [f"{key.value} {flag}"
                       for flag in sorted(reads[handler.id] - named - set(_COMMON))]
    assert len(rows.keys) == 14
    assert dead == [] and undeclared == []


def _period_error_raises(tree) -> set[int]:
    def name(exc):
        exc = exc.func if isinstance(exc, ast.Call) else exc
        return getattr(exc, "id", getattr(exc, "attr", None))
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            and name(node.exc) == "PeriodError"}


def test_only_close_period_raises_period_error():
    # inner._close_period picks every inner function's lattice step and checks
    # its period residual; no other code decides that a period failed to close
    owner, found = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "inner.py":
            allowed = owner = {line for node in tree.body
                               if isinstance(node, ast.FunctionDef)
                               and node.name == "_close_period"
                               for line in _period_error_raises(node)}
        found += [f"{path.name}:{line}" for line in sorted(_period_error_raises(tree) - allowed)]
    assert owner and found == []


def _read_names(tree) -> set[str]:
    """Every name a tree reads, bare (``green``) or as an attribute (``rs.green``)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def _reached_from_cli() -> set[str]:
    """Names of the library's definitions that a static walk from ``cli.py``
    reaches: each reached function, method or module-level value adds the names
    it reads.  A reached class brings its class body and dunder methods (called
    by syntax, not by name); other methods are reached by name like functions."""
    defs: dict[str, list] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Assign):
                named = [(name.id, node) for target in node.targets
                         for name in ast.walk(target) if isinstance(name, ast.Name)]
            elif isinstance(node, ast.FunctionDef):
                named = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                named = [(node.name, node)] + [
                    (item.name, item) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")]
            else:
                continue
            for name, definition in named:
                defs.setdefault(name, []).append(definition)
    reached, todo = set(), _read_names(ast.parse((SRC / "cli.py").read_text()))
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for node in defs[name]:
            parts = [node]
            if isinstance(node, ast.ClassDef):
                parts = [*node.bases, *node.decorator_list,
                         *(item for item in node.body if not isinstance(item, ast.FunctionDef)
                           or item.name.startswith("__"))]
            for part in parts:
                todo |= _read_names(part)
    return reached


def test_every_export_is_reached():
    # ringspace's exports are what a subcommand computes with, what an
    # acceptance criterion checks, or what the README's library tour shows;
    # a name none of them reads is dead surface
    exports = {alias.asname or alias.name
               for node in ast.parse((SRC / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    used = (_reached_from_cli()
            | _read_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
            | _read_names(ast.parse(tour)))
    assert len(exports) > 50
    assert sorted(exports - used) == []


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


def _traced_metrics(*commands):
    """The benchmark tracer's layer metrics over CLI runs that must all exit 0."""
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
        results = [CliRunner().invoke(cli.main, args) for args in commands]
    finally:
        tracer.uninstall()
    for result in results:
        assert result.exit_code == 0, result.output
    return tracer.layer_metrics()


def test_benchmark_tracer_sees_the_boundary_layers():
    # schottky-fit reaches the boundary nodes, the measure density and the
    # Schottky function through the names the benchmark's tracer wraps
    metrics = _traced_metrics(["schottky-fit", "--r", "0.5", "--base", "0.7",
                               "--zeros", "0.6i", "--N", "96"])
    for name in ("geometry.boundary_nodes", "harmonic.measure_density", "harmonic.schottky"):
        assert metrics[f"{name}.calls"] > 0, name


def test_benchmark_tracer_sees_the_probes():
    # the probes workload is biharmonic and decomposition; the tracer counts
    # them through the module-level names it wraps in probes
    metrics = _traced_metrics(["biharmonic", "--r", "0.5", "--pole", "0.7"],
                              ["biharmonic", "--r", "0.5", "--disk", "--pole", "0.3"],
                              ["decomposition", "--r", "0.5", "--base", "0.7"])
    for name in ("probes.biharmonic_green", "probes.bergman_decomposition_residual"):
        assert metrics[f"{name}.calls"] > 0, name
