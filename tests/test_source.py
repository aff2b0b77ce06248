"""Rules on the library's source text."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _dotted_names(node) -> list[str]:
    """The modules an import names (``from a import b`` as ``a.b``), or ``x.attr``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [f"{node.module}.{alias.name}" for alias in node.names]
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return [f"{node.value.id}.{node.attr}"]
    return []


def test_library_draws_no_random_numbers():
    # every result is a function of its flags: no module imports random or
    # reads numpy.random
    found = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             for parts in (name.split(".") for name in _dotted_names(node))
             if parts[0] == "random" or parts[:2] in (["numpy", "random"], ["np", "random"])]
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


def test_only_cli_calls_green():
    # harmonic measure and the Schottky function come from the annulus Poisson
    # kernel in closed form; a Green function is built only for the green
    # subcommand
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call)
             and "green" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert found == []


def _scopes_naming(tree, name: str) -> set[str]:
    """The functions and classes (dotted, ``<module>`` at top level) whose own body
    names ``name`` as a variable or an attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if name in (getattr(child, "id", None), getattr(child, "attr", None)):
                found.add(scope or "<module>")
            visit(child, scope)
    visit(tree, "")
    return found


def test_only_the_cli_entry_sets_the_heap_policy():
    # mallopt changes the whole process's allocator, so only the CLI's entry path
    # calls it, never at import: ``import ringspace`` leaves a program's heap alone
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    found = {(module, name, scope) for module, tree in trees.items()
             for name in ("mallopt", "_keep_freed_blocks")
             for scope in _scopes_naming(tree, name)}
    assert found == {("cli.py", "mallopt", "_Main._keep_freed_blocks"),
                     ("cli.py", "_keep_freed_blocks", "_Main.main")}


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


def test_probes_builds_no_area_nodes():
    # the decomposition pairs |G|^2 by exact sums of G's coefficients against
    # the monomial norms: probes neither imports nor reads the area nodes, the
    # area rule's radii or values on them
    tree = ast.parse((SRC / "probes.py").read_text())
    names = _read_names(tree) | {alias.asname or alias.name for node in ast.walk(tree)
                                 if isinstance(node, (ast.Import, ast.ImportFrom))
                                 for alias in node.names}
    assert sorted(names & {"area_quadrature", "radial_rule", "ring_values"}) == []


def test_only_spaces_builds_the_radial_rule():
    # spaces.radial_rule is the one owner of the Gauss-Legendre radii that every
    # area sum reads, so the radial rule changes in one place
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            allowed = {("spaces.py", "_gauss_legendre"): {"leggauss"},
                       ("spaces.py", "radial_rule"): {"_gauss_legendre"}}.get(
                           (path.name, getattr(top, "name", None)), set())
            found += [f"{path.name}:{top.lineno} {name}" for name in
                      sorted(_read_names(top) & {"leggauss", "_gauss_legendre"} - allowed)]
    assert found == []


def test_green_and_blaschke_factor_take_no_window():
    # both read the prime function's series, whose length depends on r alone:
    # neither takes a window, so no caller can pick one
    found = {node.name: [a.arg for a in (*node.args.args, *node.args.kwonlyargs)]
             for path in (SRC / "harmonic.py", SRC / "inner.py")
             for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name in ("green", "blaschke_factor")}
    assert found == {"green": ["domain", "pole"], "blaschke_factor": ["domain", "a"]}


def test_only_singular_inner_calls_solve_dirichlet():
    # Green's function and the Blaschke factor are closed forms; the Dirichlet
    # solve is left for the atoms' smooth corrections
    found = [f"{path.name}:{scope}"
             for path in sorted(SRC.glob("*.py"))
             for scope in sorted(_scopes_naming(ast.parse(path.read_text()), "solve_dirichlet"))]
    assert found == ["inner.py:singular_inner"]


def test_locate_zeros_does_not_count():
    # the caller that needs a function's zero count takes it and passes it
    # on; locating never runs the argument principle a second time
    tree = ast.parse((SRC / "kernels.py").read_text())
    locate = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "locate_zeros")
    found = [f"kernels.py:{node.lineno}" for node in ast.walk(locate)
             if isinstance(node, ast.Call)
             and "count_zeros" in (getattr(node.func, "id", None),
                                   getattr(node.func, "attr", None))]
    assert found == []


def test_candidate_divisor_builds_no_weighted_kernel():
    # the candidate is K_I(., z0) on the diagonal Bergman Gram; the weighted
    # Gram route stays only where it checks that identity.  Its one Blaschke
    # factor is the located zero's, B_w*, which no kernel is weighted with
    tree = ast.parse((SRC / "extremal.py").read_text())
    candidate = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "candidate_divisor")
    calls = [node for node in ast.walk(candidate) if isinstance(node, ast.Call)]
    found = [f"extremal.py:{node.lineno} {ast.unparse(node)}" for node in calls
             if "build_kernel" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
             or any(k.arg == "weight_fn" for k in node.keywords)]
    factors = [ast.unparse(node) for node in calls
               if "blaschke_factor" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))]
    assert found == [] and factors == ["blaschke_factor(domain, w_star)"]


def test_singular_atoms_take_no_truncation():
    # an atom's kernel is its closed-form Herglotz factor times a smooth
    # correction on the tail window r^N <= 1e-16: no truncated point-mass
    # kernel is left, and no caller picks a truncation for the atoms
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.FunctionDef) and node.name == "point_mass_kernel"]
    found += [f"inner.py:{node.lineno}"
              for node in ast.parse((SRC / "inner.py").read_text()).body
              if isinstance(node, ast.FunctionDef)
              and node.name in ("singular_inner", "qc_divisor")
              and "N" in {a.arg for a in (*node.args.args, *node.args.kwonlyargs)}]
    assert found == []


# calls that give ring-structured nodes: polar grids, boundary nodes and every
# quadrature (``pts, w = ...``); ring_gram reads their positions, ring_values
# evaluates a function on them
_RING_NODES = {"polar_grid", "boundary_nodes", "boundary_quadrature", "area_quadrature",
               "measure_quadrature", "base_quadrature", "quadrature_for", "measure"}
_NODE_READERS = {"ring_values", "ring_gram"}


def _callee(call) -> str | None:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _numpy_call(call) -> bool:
    root = call.func
    while isinstance(root, ast.Attribute):
        root = root.value
    return isinstance(root, ast.Name) and root.id == "np"


def _ring_node_evaluations(tree) -> tuple[list[int], int]:
    """Lines where a function is called on ring nodes other than through
    ``ring_values`` (numpy arithmetic on the nodes is not an evaluation), and
    the number of ``ring_values`` calls on them."""
    found, routed = [], 0
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        names = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                pairs = [(node.targets[0], node.value)]
                if isinstance(node.targets[0], ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = list(zip(node.targets[0].elts, node.value.elts))
                for target, value in pairs:
                    if isinstance(value, ast.Call) and _callee(value) in _RING_NODES:
                        target = target.elts[0] if isinstance(target, ast.Tuple) else target
                        if isinstance(target, ast.Name):
                            names.add(target.id)
        for node in ast.walk(func):
            if not isinstance(node, ast.Call) or _numpy_call(node):
                continue
            on_nodes = any((isinstance(arg, ast.Name) and arg.id in names)
                           or (isinstance(arg, ast.Call) and _callee(arg) in _RING_NODES)
                           for arg in node.args)
            if on_nodes and _callee(node) == "ring_values":
                routed += 1
            elif on_nodes and _callee(node) not in _NODE_READERS:
                found.append(node.lineno)
    return sorted(set(found)), routed


def test_functions_meet_ring_nodes_through_ring_values():
    # values on polar grids, boundary nodes and quadrature nodes come through
    # spaces.ring_values: one FFT a ring where the function has on_rings, and
    # f(pts) for plain callables
    found, routed = [], 0
    for path in sorted(SRC.glob("*.py")):
        lines, count = _ring_node_evaluations(ast.parse(path.read_text(), filename=str(path)))
        found += [f"{path.name}:{line}" for line in lines]
        routed += count
    assert found == []
    assert routed >= 15


def test_ring_node_rule_sees_point_evaluations():
    # the rule reads nodes bound by name, by tuple and passed inline
    code = ("def f(G, g, domain, m):\n"
            "    pts, w = measure_quadrature(domain, m)\n"
            "    grid, n = polar_grid(domain, 8), 8\n"
            "    a = np.abs(G(boundary_nodes(domain, m)))\n"
            "    b = np.asarray(g(pts), dtype=complex) + G(grid)\n"
            "    return ring_values(G, pts, m), ring_gram(pts, w, m, 4), np.abs(pts - 1)\n")
    assert _ring_node_evaluations(ast.parse(code)) == ([4, 5], 1)


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


def _library_tour() -> str:
    """The Python block of the README's "Library tour" section."""
    readme = (ROOT / "README.md").read_text()
    return readme.split("## Library tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]


def test_every_export_is_reached():
    # ringspace's exports are what a subcommand computes with, what an
    # acceptance criterion checks, or what the README's library tour shows;
    # a name none of them reads is dead surface
    exports = {alias.asname or alias.name
               for node in ast.parse((SRC / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = (_reached_from_cli()
            | _read_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
            | _read_names(ast.parse(_library_tour())))
    assert len(exports) > 50
    assert sorted(exports - used) == []


def test_library_tour_runs():
    # the tour counts toward the exports' reach, so it must also run as written
    exec(compile(_library_tour(), "README.md", "exec"), {})


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


@pytest.mark.parametrize("argv", [["hmeasure", "--r", "0.5"],
                                  ["qc-divisor", "--r", "0.5", "--zeros", "0.7,0.6i"]],
                         ids=["hmeasure", "qc-divisor"])
def test_cold_run_imports_no_scipy(argv):
    # nor click: the CLI parses its argument vector from its own flag table
    code = ("import sys\n"
            "from ringspace.cli import main\n"
            f"sys.argv[1:] = {argv!r}\n"
            "try:\n"
            "    main()\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'click')), "
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


# Per-layer names perfbench/run.py adds itself, from outcomes, timings and imports.
_RUN_ADDED = ("cli.exit.", "cli.raw_exceptions", "gate.", "trace.", "setup.import.")


@pytest.mark.parametrize("workload", ["divisor-ladder", "probes"])
def test_benchmark_trace_order_holds_every_layer(workload, tmp_path):
    # perfbench/run.py --trace 1 runs a job untraced, then installs the tracer,
    # which looks scipy's solvers up in sys.modules; each workload in its own
    # interpreter, so one workload's imports cannot cover for another's
    code = ("import json, sys\n"
            f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
            "import jobs\n"
            "from tracer import Tracer\n"
            "from ringspace import cli\n"
            f"job = jobs.job_list({workload!r}, 3, 45)[0]\n"
            "def run():\n"
            "    for argv in job:\n"
            "        try:\n"
            "            cli.main.main(args=[*argv, '--out', sys.argv[1]], prog_name='ringspace',\n"
            "                          standalone_mode=False)\n"
            "        except SystemExit:\n"
            "            pass\n"
            "run()\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "try:\n"
            "    run()\n"
            "finally:\n"
            "    tracer.uninstall()\n"
            "print(json.dumps(sorted(tracer.layer_metrics())))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "doc.json")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    layers = set(json.loads(proc.stdout.splitlines()[-1]))
    wanted = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
              if not m["name"].startswith(_RUN_ADDED)}
    assert len(wanted) > 50
    assert sorted(wanted - layers) == []
