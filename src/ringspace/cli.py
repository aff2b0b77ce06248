"""Batch command-line driver.

Every computation in the library is reachable as a subcommand that writes a
machine-readable result document: JSON for scalars and metadata (validating
against ``results.schema.json``), CSV for polar grids (``rho,theta,re,im``).
Each subcommand takes only the flags its handler reads; they may also be
supplied through a JSON config file (``--config``), and flags given on the
command line win.  Runs are deterministic: re-running a command with the
same config at the same BLAS thread count reproduces the primary scalars byte
for byte.

Exit codes: 0 success, 2 usage error, 3 rejected geometry/arguments,
4 convergence-class failures (partial output flagged ``unverified``).
"""

from __future__ import annotations

import cmath
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ArgumentError, ConvergenceError, GeometryError, RingspaceError
from .geometry import (INNER, OUTER, AnnulusDomain, boundary_angles, boundary_nodes,
                       make_annulus, offset_boundary_nodes, ring_nodes)
from .harmonic import conjugate_period, green, harmonic_measure
from .inner import (AtomicSingularMeasure, blaschke_product, division_bound_check,
                    qc_divisor, schottky_fit, singular_inner, verify_inner)
from .kernels import build_kernel, count_zeros, full_ring, locate_zeros, reproduce_check
from .laurent import LaurentPolynomial
from .extremal import (ExtremalProblem, candidate_divisor,
                       extremal_identity_check, extremal_maximizer, polar_grid,
                       quasicontract_estimate, repro_fact_check, solve_extremal)
from .probes import bergman_decomposition_residual, biharmonic_green, log_radial_moment
from .spaces import (bergman_tag, hardy_tag, measure_quadrature, norm as space_norm,
                     ring_values, smirnov_tag)

SCHEMA_NAME = "ringspace-results"
SCHEMA_VERSION = 1

_SPACES = {"smirnov": smirnov_tag, "arclength": smirnov_tag,
           "hardy": hardy_tag, "bergman": bergman_tag}


class UsageError(Exception):
    """A command line or config file the CLI cannot read: exit code 2."""


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` or polar ``rho∠theta`` (``@`` works as an ASCII angle sign)."""
    s = str(text).strip().replace(" ", "")
    for sep in ("∠", "@"):
        if sep in s:
            mag, ang = s.split(sep, 1)
            return float(mag) * cmath.exp(1j * float(ang))
    try:
        return complex(s.replace("i", "j"))
    except ValueError as exc:
        raise UsageError(f"cannot parse complex literal {text!r}") from exc


def parse_complex_list(text: str) -> tuple[complex, ...]:
    if not text:
        return ()
    return tuple(parse_complex(part) for part in str(text).split(",") if part)


def parse_atoms(text: str) -> tuple[tuple[complex, float], ...]:
    """Atoms as ``point:mass`` pairs, comma separated."""
    out = []
    for part in str(text).split(","):
        if not part:
            continue
        try:
            point, mass = part.rsplit(":", 1)
        except ValueError as exc:
            raise UsageError(f"atom {part!r} is not of the form point:mass") from exc
        out.append((parse_complex(point), float(mass)))
    return tuple(out)


class _Kind(NamedTuple):
    """How a flag's value is read from its text or a config file's value: ``name`` is
    its type name (the metavar help shows), ``choices`` those a choice's value must be."""

    name: str
    read: Callable
    choices: tuple = ()


def _boolean(value) -> bool:
    """An on/off flag's value in a config file, read as click read booleans."""
    text = str(value).strip().lower()
    if text not in ("1", "true", "t", "yes", "y", "on", "0", "false", "f", "no", "n", "off"):
        raise ValueError(f"{value!r} is not a valid boolean.")
    return text in ("1", "true", "t", "yes", "y", "on")


def _existing_file(value) -> str:
    path = Path(value)
    if path.is_dir() or not path.exists():
        raise ValueError(f"File {str(value)!r} "
                         f"{'is a directory' if path.is_dir() else 'does not exist'}.")
    return str(value)


_COMPLEX, _INTEGER, _TEXT = (_Kind("complex", parse_complex), _Kind("integer", int),
                             _Kind("text", str))
_BOOLEAN = _Kind("boolean", _boolean)
# Every flag once: option, kind, default, help.  A flag whose default is None or
# () is unset unless given, and the document echoes it only then.
_FLAGS = {
    "r": ("--r", _Kind("float", float), None, "inner radius in (0,1)"),
    "base": ("--base", _COMPLEX, None, "base point (a+bi or rho∠theta)"),
    "zeros": ("--zeros", _Kind("zeros", parse_complex_list), (), "comma-separated zero list"),
    "atoms": ("--atoms", _Kind("atoms", parse_atoms), (), "comma-separated point:mass atoms"),
    "N": ("--N", _INTEGER, 64, "series/window truncation"),
    "m": ("--m", _INTEGER, 512, "quadrature nodes per circle/ring"),
    "j": ("--j", _INTEGER, 1, "boundary component (1 outer, 2 inner)"),
    "space": ("--space", _Kind("choice", str.lower, tuple(sorted(_SPACES))), "bergman",
              "function space"),
    "undivided": ("--undivided", _BOOLEAN, False,
                  "probe the raw extremal with its extraneous kernel zero"),
    "pole": ("--pole", _COMPLEX, None, "pole of the Green's function, or load of the plate"),
    "disk": ("--disk", _BOOLEAN, False, "solve on the unit disk"),
    "n_rho": ("--n-rho", _INTEGER, 64, "radial nodes of the output grid"),
    "n_theta": ("--n-theta", _INTEGER, 64, "angular nodes of the output grid"),
    "grid_out": ("--grid-out", _TEXT, None, "CSV path for the sampled grid"),
    "out": ("--out", _TEXT, None, "write the result document here"),
    "format": ("--format", _Kind("choice", str, ("json", "csv")), "json", "primary output format"),
    "config_path": ("--config", _Kind("file", _existing_file), None,
                    "JSON config file of flag values (flags win)"),
}
# Flags every subcommand takes; its ``_COMMANDS`` row names the rest.
_COMMON = ("r", "out", "format", "config_path")


def _cnum(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


class RunConfig(SimpleNamespace):
    """Resolved flags of one CLI invocation: ``command`` and one attribute per
    flag the subcommand takes."""

    def parameters(self) -> dict:
        """The flags for the document: set ones only, ``out`` and ``config_path`` never."""
        p = {}
        for name, value in vars(self).items():
            if name in ("command", "out", "config_path") or value is None or value == ():
                continue
            if name == "atoms":
                value = [{"point": _cnum(pt), "mass": mass} for pt, mass in value]
            elif isinstance(value, tuple):
                value = [_cnum(z) for z in value]
            elif isinstance(value, complex):
                value = _cnum(value)
            p[name] = value
        return p


def parse_config(command: str, flags: dict) -> RunConfig:
    """Resolve a subcommand's flags: the table's defaults, then the JSON config
    file, then the flags given.

    A flag counts as given unless its value is ``None`` (or ``False`` for an
    on/off flag), so ``--N 0`` still overrides the file.
    """
    values = {name: _FLAGS[name][2] for name in flags}
    if flags["config_path"]:
        values.update(_config_values(flags["config_path"], values))
    values.update({k: v for k, v in flags.items() if v is not None and v is not False})
    if values["r"] is None and not values.get("disk"):  # the disk has no inner radius
        raise UsageError("missing required flag --r (inner radius)")
    return RunConfig(command=command, **values)


def _config_values(path: str, names) -> dict:
    """The config file's values of the flags in ``names``, each converted as its
    flag converts text; other keys are ignored, so one file can serve several
    subcommands."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # undecodable bytes too
        raise UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} is not a JSON object of flag values")
    try:
        return {k: None if v is None else _read(k, v) for k, v in data.items() if k in names}
    except UsageError as exc:
        raise UsageError(f"config file {path}: {exc}")


def _read(name: str, value):
    """A flag's value from its text, or from a config file's value, as its kind reads it."""
    opt, kind, _, _ = _FLAGS[name]
    try:
        read = kind.read(value)
    except (UsageError, TypeError, ValueError) as exc:
        raise UsageError(f"Invalid value for {opt!r}: {exc}") from None
    if kind.choices and read not in kind.choices:
        raise UsageError(f"Invalid value for {opt!r}: {value!r} is not one of "
                         f"{', '.join(map(repr, kind.choices))}.")
    return read


def _document(config: RunConfig, results: dict, status: str = "ok",
              ladder=None, tolerances=None, grids=None, started=None) -> dict:
    doc = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": config.command,
        "parameters": config.parameters(),
        "results": results,
        "tolerances": tolerances or {},
        "status": status,
        "wall_time_s": (time.monotonic() - started) if started else 0.0,
    }
    if ladder is not None:
        doc["ladder"] = [{"N": int(n), "estimate": float(e)} for n, e in ladder]
    if grids:
        doc["grids"] = grids
    return doc


def _csv_field(value):
    """One ``results`` value as a CSV field: a complex number as ``a+bi`` or ``a-bi``
    (what ``parse_complex`` reads back), a list or other dict as JSON text."""
    if isinstance(value, dict) and set(value) == {"re", "im"}:
        return f"{value['re']}{value['im']:+}i"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, allow_nan=False)
    return value


def _emit(doc: dict, config: RunConfig) -> None:
    if config.format == "csv":
        import csv
        import io
        buffer = io.StringIO()
        rows = [[k, _csv_field(v)] for k, v in sorted(doc["results"].items())]
        rows += [[k, _csv_field(doc[k])] for k in ("status", "tolerances", "ladder") if k in doc]
        csv.writer(buffer, lineterminator="\n").writerows([["key", "value"], *rows])
        text = buffer.getvalue()
    else:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)


def _grid_out(config: RunConfig, name: str, radii, m: int, f) -> list | None:
    """Write ``f`` on ``ring_nodes(radii, m)`` to the ``--grid-out`` CSV as
    ``rho,theta,re,im`` rows, if one was asked for; returns the ``grids`` entry."""
    path = config.grid_out
    if not path:
        return None
    values = np.asarray(f(ring_nodes(radii, m)))
    with open(path, "w") as fh:
        fh.write("rho,theta,re,im\n")
        for i, rho in enumerate(radii):
            for j, theta in enumerate(boundary_angles(m)):
                v = complex(values[i, j])
                fh.write(f"{float(rho)!r},{float(theta)!r},{v.real!r},{v.imag!r}\n")
    return [{"name": name, "path": str(path)}]


def _domain(config: RunConfig) -> AnnulusDomain:
    # the base point defaults to the geometric-mean radius, a canonical interior point
    return make_annulus(config.r, math.sqrt(config.r) if config.base is None else config.base)


def _inner_spec_results(spec, domain, m) -> dict:
    v = verify_inner(spec, domain, m=min(m, 1024))
    return {
        "lambda": spec.lam,
        "power": spec.power,
        "modulus_outer": spec.boundary_moduli[0],
        "modulus_inner": spec.boundary_moduli[1],
        "measured_modulus_outer": v.c1,
        "measured_modulus_inner": v.c2,
        "modulus_deviation_outer": v.dev1,
        "modulus_deviation_inner": v.dev2,
        "inner_by_constant_modulus": v.passed,
        "period_residual": spec.period_residual,
    }


def run(config: RunConfig) -> int:
    """Execute a resolved config; returns the process exit code."""
    started = time.monotonic()
    try:
        handler = _HANDLERS[config.command]
    except KeyError:
        raise UsageError(f"unknown command {config.command!r}")
    try:
        bad = _non_finite(config.parameters(), "parameters")
        if bad:  # _emit cannot write them
            raise ArgumentError(f"non-finite values at {', '.join(bad)}")
        results, ladder, tolerances, grids = handler(config)
        bad = _non_finite(results, "results") + _non_finite(ladder or [], "ladder")
        if bad:
            raise ConvergenceError(f"non-finite values at {', '.join(bad)}")
    except (GeometryError, ArgumentError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 3
    except RingspaceError as exc:
        doc = _document(config, {"error": str(exc)}, status="unverified",
                        started=started)
        _emit(doc, config)
        print(f"unverified: {exc}", file=sys.stderr)
        return 4
    doc = _document(config, results, ladder=ladder, tolerances=tolerances,
                    grids=grids, started=started)
    _emit(doc, config)
    return 0


def _non_finite(value, path: str) -> list[str]:
    """Key paths (``results.x.re``, ``ladder.1.1``) of NaN or infinite numbers."""
    if isinstance(value, (dict, list, tuple)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [bad for k, v in items for bad in _non_finite(v, f"{path}.{k}")]
    return [path] if isinstance(value, float) and not math.isfinite(value) else []


def _cmd_green(config: RunConfig):
    pole = config.pole
    if pole is None:
        raise UsageError("green needs --pole")
    domain = make_annulus(config.r, pole)
    g = green(domain, pole)
    residual = float(np.max(np.abs(ring_values(g, boundary_nodes(domain, 256), 256))))
    _, weights = measure_quadrature(domain, config.m)  # harmonic measure at the pole
    mass = float(np.sum(weights))
    grid_pts = polar_grid(domain, 50, inset=0.02)
    interior_min = float(np.min(ring_values(g, grid_pts, 50).real))
    grids = _grid_out(config, "green_values",
                      np.linspace(domain.inner_radius + 0.01, 0.99, 64), 64, g)
    results = {"boundary_residual_max": residual, "measure_mass": mass,
               "interior_min": interior_min, "pole": _cnum(pole)}
    return results, None, {"boundary_residual": 1e-10, "mass": 1e-10}, grids


def _cmd_hmeasure(config: RunConfig):
    domain = _domain(config)
    w = harmonic_measure(domain, config.j)
    pts = polar_grid(domain, 20, inset=0.05)
    w1 = harmonic_measure(domain, OUTER)
    w2 = harmonic_measure(domain, INNER)
    results = {
        "component": config.j,
        "c0": w.c0,
        "clog": w.clog,
        "conjugate_period": conjugate_period(w),
        "partition_residual": float(np.max(np.abs(ring_values(w1, pts, 20)
                                                  + ring_values(w2, pts, 20) - 1.0))),
        "value_at_base": float(w(domain.base_point)),
    }
    return results, None, {"partition": 1e-14}, None


def _cmd_blaschke(config: RunConfig):
    if not config.zeros:
        raise UsageError("blaschke needs --zeros")
    domain = _domain(config)
    B = blaschke_product(domain, config.zeros)
    results = _inner_spec_results(B, domain, config.m)
    results["factors_used"] = len(B.zeros)
    results["ring_zero_count"] = count_zeros(B, domain, full_ring(domain))
    return results, None, {"modulus": 1e-8, "period": 1e-8}, None


def _cmd_singular(config: RunConfig):
    domain = _domain(config)
    mu = AtomicSingularMeasure(atoms=config.atoms)
    S = singular_inner(domain, mu)
    results = _inner_spec_results(S, domain, config.m)
    # The atom factors wind 0 on every circle inside the ring but underflow next
    # to their atoms on full_ring's counting circles, so the count leaves them out.
    atom_free = replace(S, singular=AtomicSingularMeasure.empty())
    results["ring_zero_count"] = count_zeros(atom_free, domain, full_ring(domain))
    results["atom_count"] = len(config.atoms)
    return results, None, {"period": 1e-8}, None


def _cmd_inner_verify(config: RunConfig):
    domain = _domain(config)
    spec, _ = qc_divisor(domain, config.zeros,
                         AtomicSingularMeasure(atoms=config.atoms))
    return _inner_spec_results(spec, domain, config.m), None, {"modulus": 1e-6}, None


def _space_tag(config: RunConfig):
    return _SPACES[config.space]()


def _cmd_kernel(config: RunConfig):
    domain = _domain(config)
    tag = _space_tag(config)
    K = build_kernel(domain, tag, N=config.N, m=config.m)
    w = domain.base_point
    probe = LaurentPolynomial.from_dict({0: 1.0, 2: 0.5, -1: 0.25})
    residual = reproduce_check(K, probe, 0.5 * (domain.inner_radius + 1.0), m=config.m)
    z_probe = 0.5 * (domain.inner_radius + 1.0) * np.exp(0.7j)
    herm = abs(complex(K(z_probe, w)) - np.conj(complex(K(w, z_probe))))
    results = {"space": config.space,
               "value_at_base": float(np.real(K(w, w))),
               "reproduce_residual": residual,
               "hermitian_residual": herm}
    grids = _grid_out(config, "kernel_section",
                      np.linspace(domain.inner_radius + 0.02, 0.98, 48), 48, lambda Z: K(Z, w))
    return results, None, {"reproduce": 1e-9}, grids


def _cmd_kernel_zeros(config: RunConfig):
    domain = _domain(config)
    tag = _space_tag(config)
    N = max(config.N, 96)  # below ~96 truncation zeros hug the circles
    K = build_kernel(domain, tag, N=N, m=config.m)
    section = K.section(domain.base_point)
    count = count_zeros(section, domain, full_ring(domain), m=config.m)
    report = locate_zeros(section, domain, count)
    results = {"space": config.space,
               "count": count,
               "locations": [_cnum(z) for z in report.locations],
               "residual": report.residual}
    return results, None, {"newton": 1e-10}, None


def _cmd_extremal(config: RunConfig):
    domain = _domain(config)
    tag = _space_tag(config)
    problem = ExtremalProblem(domain=domain, space=tag, base=domain.base_point,
                              zeros=config.zeros, truncation=config.N)
    G = solve_extremal(problem, m=config.m)
    F = extremal_maximizer(problem, m=config.m)
    pts = polar_grid(domain, 24)
    equivalence = float(np.max(np.abs(ring_values(G, pts, 24)
                                      - ring_values(F, pts, 24) / complex(F(problem.base)))))
    results = {
        "space": config.space,
        "norm": space_norm(G, domain, tag, m=config.m, measure=problem.measure),
        "value_at_base": _cnum(complex(G(problem.base))),
        "max_value_at_zeros": max((abs(complex(G(z))) for z in config.zeros), default=0.0),
        "formulation_equivalence": equivalence,
    }
    tolerances = {"equivalence": 1e-9}
    if len(config.zeros) == 1:
        results["kernel_product_deviation"] = extremal_identity_check(G, problem, m=config.m)
        tolerances["kernel_product"] = "report-only"
    return results, None, tolerances, None


def _cmd_candidate_divisor(config: RunConfig):
    if len(config.zeros) != 1:
        raise UsageError("candidate-divisor needs exactly one zero in --zeros")
    domain = _domain(config)
    cand = candidate_divisor(domain, config.zeros[0], N=config.N)
    count = count_zeros(cand, domain, full_ring(domain))
    if count != 1:
        raise ArgumentError(f"candidate divisor has {count} ring zeros instead of 1")
    report = locate_zeros(cand, domain, count)
    results = {
        "kernel_zero": _cnum(cand.kernel_zero),
        "ring_zero_count": count,
        "zero_location": _cnum(report.locations[0]),
        "zero_residual": report.residual,
        "inner_by_constant_modulus": verify_inner(cand, domain).passed,
    }
    return results, None, {"newton": 1e-10}, None


def _cmd_qc_divisor(config: RunConfig):
    domain = _domain(config)
    G, C = qc_divisor(domain, config.zeros,
                      AtomicSingularMeasure(atoms=config.atoms))
    mods = np.abs(ring_values(G, offset_boundary_nodes(domain, config.m), config.m))
    bound = division_bound_check(G, domain)
    results = {
        "C": C,
        "lambda": G.lam,
        "boundary_modulus_min": float(mods.min()),
        "boundary_modulus_max": float(mods.max()),
        "division_ratio_max": bound.max_ratio,
        "division_ratio_min": bound.min_ratio,
    }
    return results, None, {"boundary": 1e-7, "ratio": 1e-6}, None


def _cmd_qc_estimate(config: RunConfig):
    if len(config.zeros) != 1:
        raise UsageError("qc-estimate needs exactly one zero in --zeros")
    domain, z1 = _domain(config), config.zeros[0]
    cand = candidate_divisor(domain, z1, N=config.N)
    target = cand.kernel_section if config.undivided else cand
    report = quasicontract_estimate(target, z1, domain, m=config.m)
    changes = [abs(b[1] - a[1]) / b[1]
               for a, b in zip(report.per_truncation, report.per_truncation[1:])]
    results = {
        "constant_estimate": report.constant_estimate,
        "kernel_zero": _cnum(cand.kernel_zero),
        "undivided": config.undivided,
        "flags": report.notes,
        "extraneous_zeros": [_cnum(z) for z in report.zero_locations_of_kernel],
        "ladder_relative_changes": changes,
        "stabilized": bool(changes and changes[-1] < 0.05),
    }
    return results, report.per_truncation, {"ladder": "report-only"}, None


def _cmd_schottky_fit(config: RunConfig):
    if len(config.zeros) != 1:
        raise UsageError("schottky-fit needs exactly one zero in --zeros")
    domain = _domain(config)
    problem = ExtremalProblem(domain=domain, space=hardy_tag(), base=domain.base_point,
                              zeros=config.zeros, truncation=max(config.N, 96))
    G = solve_extremal(problem, m=config.m)
    Gn = G * (1.0 / space_norm(G, domain, hardy_tag(), m=config.m, measure=problem.measure))
    lam1, residual = schottky_fit(Gn, domain, m=config.m)
    v = verify_inner(Gn, domain)
    results = {
        "lambda_1": lam1,
        "fit_residual": residual,
        "reproducing_residual": repro_fact_check(Gn, problem, m=config.m),
        "modulus_deviation_outer": v.dev1,
        "modulus_deviation_inner": v.dev2,
        "inner_by_constant_modulus": v.passed,
    }
    return results, None, {"fit": 1e-6, "reproducing": 1e-7}, None


def _cmd_decomposition(config: RunConfig):
    domain = _domain(config)
    N = max(config.N, 48)
    if config.zeros:
        G = solve_extremal(ExtremalProblem(domain=domain, space=bergman_tag(), truncation=N,
                                           base=domain.base_point, zeros=config.zeros))
    else:
        G = build_kernel(domain, bergman_tag(), N=N).section(domain.base_point)
    lam1, residual, c0 = bergman_decomposition_residual(G, domain, domain.base_point)
    results = {
        "lambda_1": lam1,
        "residual": residual,
        "projection_constant": c0,
        "log_radial_moment": log_radial_moment(domain.inner_radius),
    }
    return results, None, {"residual": 1e-5}, None


def _cmd_biharmonic(config: RunConfig):
    disk, pole = config.disk, config.pole
    if pole is None:
        raise UsageError("biharmonic needs --pole")
    domain = None if disk else make_annulus(config.r, pole)
    sol = biharmonic_green(domain, pole, config.n_rho, config.n_theta)
    grids = _grid_out(config, "biharmonic_solution", sol.grid.radii, sol.grid.angles.size,
                      lambda Z: sol.grid.values)
    results = {
        "disk": disk,
        "min_value": sol.min_value,
        "max_value": sol.max_value,
        "sign_change_cell_count": sol.sign_change_count,
        "clamped_residual": sol.clamped_residual,
    }
    return results, None, {"positivity_floor": 1e-6, "clamped": 1e-10}, grids


# One row per subcommand: handler, help text, and the flags it takes beyond
# ``_COMMON``, which are exactly the ones the handler reads.
_COMMANDS = {
    "green": (_cmd_green, "Green's function: boundary residual, measure mass, positivity.",
              ("m", "pole", "grid_out")),
    "hmeasure": (_cmd_hmeasure, "Harmonic measure of one boundary circle.", ("base", "j")),
    "blaschke": (_cmd_blaschke, "Generalized Blaschke product over the given zeros.",
                 ("base", "zeros", "m")),
    "singular": (_cmd_singular, "Singular inner function driven by boundary atoms.",
                 ("base", "atoms", "m")),
    "inner-verify": (_cmd_inner_verify,
                     "Constant-modulus verification of the inner function built from flags.",
                     ("base", "zeros", "atoms", "m")),
    "kernel": (_cmd_kernel, "Reproducing kernel diagnostics at the base point.",
               ("base", "N", "m", "space", "grid_out")),
    "kernel-zeros": (_cmd_kernel_zeros,
                     "Count and locate the zeros of the kernel section at the base point.",
                     ("base", "N", "m", "space")),
    "extremal": (_cmd_extremal, "Constrained least-norm extremal function.",
                 ("base", "zeros", "N", "m", "space")),
    "candidate-divisor": (_cmd_candidate_divisor,
                          "One-zero Bergman divisor candidate (kernel zero divided out).",
                          ("base", "zeros", "N")),
    "qc-divisor": (_cmd_qc_divisor,
                   "Quasi-contractive divisor with boundary bounds and division ratios.",
                   ("base", "zeros", "atoms", "m")),
    "qc-estimate": (_cmd_qc_estimate,
                    "Operator-norm ladder for division by the candidate divisor.",
                    ("base", "zeros", "N", "m", "undivided")),
    "schottky-fit": (_cmd_schottky_fit,
                     "Fit |G|^2 - 1 of the Hardy extremal against the Schottky function.",
                     ("base", "zeros", "N", "m")),
    "decomposition": (
        _cmd_decomposition,
        "Pairings of |G|^2 - H(., z0) against harmonic tests and the log defect.",
        ("base", "zeros", "N")),
    "biharmonic": (_cmd_biharmonic, "Clamped biharmonic Green's function probe.",
                   ("pole", "disk", "n_rho", "n_theta", "grid_out")),
}
_HANDLERS = {name: handler for name, (handler, _, _) in _COMMANDS.items()}


_ABOUT = "Numerics for function spaces on the annulus {r < |z| < 1}."
_HELP = ("--help", "Show this message and exit.")


def _help(prog: str, command: str | None) -> str:
    """Usage, summary and option rows of the program or of one subcommand."""
    if command is None:
        usage, about = f"{prog} [OPTIONS] COMMAND [ARGS]...", _ABOUT
        sections = {"Options": [("--version", "Show the version and exit."), _HELP],
                    "Commands": [(name, row[1]) for name, row in sorted(_COMMANDS.items())]}
    else:
        usage, about = f"{prog} {command} [OPTIONS]", _COMMANDS[command][1]
        rows = [_FLAGS[name] for name in (*_COMMON, *_COMMANDS[command][2])]
        sections = {"Options": [*((f"{opt} {_metavar(kind)}".rstrip(), text)
                                  for opt, kind, _, text in rows), _HELP]}
    lines = [f"Usage: {usage}", "", f"  {about}"]
    for title, rows in sections.items():
        width = max(len(left) for left, _ in rows)
        lines += ["", f"{title}:", *(f"  {left:<{width}}  {right}" for left, right in rows)]
    return "\n".join(lines) + "\n"


def _metavar(kind: _Kind) -> str:
    if kind.choices:
        return f"[{'|'.join(kind.choices)}]"
    return "" if kind is _BOOLEAN else kind.name.upper()


def _parse_flags(command: str, args: list[str]) -> dict | None:
    """A subcommand's flags from its arguments: ``--flag value`` or ``--flag=value``, an
    on/off flag alone, the last of a repeated flag winning; every flag the subcommand
    takes maps to its read value, or to None if not given.  None after ``--help``."""
    taken = (*_COMMON, *_COMMANDS[command][2])
    options = {_FLAGS[name][0]: name for name in taken}
    given, extra, wants_help = {}, [], False
    tokens = iter(args)
    for token in tokens:
        if token == "--":
            extra += tokens
        elif token == "-" or not token.startswith("-"):
            extra.append(token)
        elif token == "--help":
            wants_help = True
        else:
            opt, eq, value = token.partition("=")
            name = options.get(opt)
            if name is None:
                raise UsageError(f"No such option {opt!r}.")
            if _FLAGS[name][1] is _BOOLEAN:
                if eq:
                    raise UsageError(f"Option {opt!r} does not take a value.")
                value = True
            elif not eq:
                value = next(tokens, None)
                if value is None:
                    raise UsageError(f"Option {opt!r} requires an argument.")
            given[name] = value
    if wants_help:
        return None
    flags = {name: _read(name, given[name]) if name in given else None for name in taken}
    if extra:
        raise UsageError(f"Got unexpected extra argument{'s' * (len(extra) > 1)} "
                         f"({' '.join(extra)})")
    return flags


def _invoke(argv: list[str], prog: str, command: str | None) -> int:
    """The exit code of one command line, printing any help or version it asks for."""
    if not argv or argv[0] == "--help":
        print(_help(prog, None), end="", file=sys.stdout if argv else sys.stderr)
        return 0 if argv else 2
    if argv[0] == "--version":
        print(f"ringspace, version {__version__}")
        return 0
    if command is None:
        kind = "option" if argv[0].startswith("-") else "command"
        raise UsageError(f"No such {kind} {argv[0]!r}.")
    flags = _parse_flags(command, argv[1:])
    if flags is None:
        print(_help(prog, command), end="")
        return 0
    return run(parse_config(command, flags))


class _Main:
    """The ``ringspace`` program: ``main()`` reads ``sys.argv``, and ``main.main(args=...,
    prog_name=..., standalone_mode=...)`` takes them as click's ``Command.main`` does, so
    click's ``CliRunner`` drives it.  Either raises ``SystemExit`` with the exit code;
    outside standalone mode a usage error is raised instead of shown."""

    name = "ringspace"
    heap_set = False

    def __call__(self):
        self.main()

    def _keep_freed_blocks(self):
        # The N = 96 Gram, kernel and KKT algebra frees 0.5-1.2 MiB temporaries that
        # glibc hands back to the kernel (mmap threshold, heap trim), so the next
        # subcommand page-faults them in again.  2 MiB mmap / 4 MiB trim is the smallest
        # pair measured to leave no such faults on either benchmark workload (2/2 and
        # 1/8 do not; BENCH_heap_policy.json).  A user's glibc malloc settings win.
        import ctypes
        import os
        self.heap_set = True
        if (any(k.startswith("MALLOC_") and k.endswith("_") for k in os.environ)
                or "glibc.malloc" in os.environ.get("GLIBC_TUNABLES", "")):
            return
        try:
            mallopt = ctypes.CDLL(None).mallopt
        except (AttributeError, OSError, TypeError):   # not glibc, or no C library
            return
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 2 << 20)   # M_MMAP_THRESHOLD
        mallopt(-1, 4 << 20)   # M_TRIM_THRESHOLD

    def main(self, args=None, prog_name=None, standalone_mode=True):
        if not self.heap_set:
            self._keep_freed_blocks()
        argv = sys.argv[1:] if args is None else list(args)
        prog = prog_name or self.name
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        try:
            code = _invoke(argv, prog, command)
        except UsageError as exc:
            if not standalone_mode:
                raise
            hint = f"{prog} {command}" if command else prog
            print(f"{_help(prog, command).splitlines()[0]}\nTry '{hint} --help' for help.\n\n"
                  f"Error: {exc}", file=sys.stderr)
            code = 2
        sys.exit(code)


main = _Main()


if __name__ == "__main__":
    main()
