"""Batch command-line driver.

Every computation in the library is reachable as a subcommand that writes a
machine-readable result document: JSON for scalars and metadata (validating
against ``results.schema.json``), CSV for polar grids (``rho,theta,re,im``).
Flags may also be supplied through a JSON config file (``--config``); flags
given on the command line win.  Runs are deterministic: random trials are
seeded (``--seed``, default 0) and re-running a command with the same config
reproduces the primary scalars byte for byte.

Exit codes: 0 success, 2 usage error, 3 rejected geometry/arguments,
4 convergence-class failures (partial output flagged ``unverified``).
"""

from __future__ import annotations

import cmath
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import ArgumentError, GeometryError, RingspaceError
from .geometry import INNER, OUTER, AnnulusDomain, boundary_nodes, make_annulus, ring_nodes
from .harmonic import conjugate_period, green, harmonic_measure, normal_derivative
from .inner import (AtomicSingularMeasure, ZeroSet, blaschke_product,
                    division_bound_check, qc_divisor, schottky_fit, singular_inner,
                    verify_inner)
from .kernels import build_kernel, count_zeros, full_ring, locate_zeros
from .laurent import LaurentPolynomial
from .extremal import (ExtremalProblem, candidate_divisor,
                       extremal_identity_check, extremal_maximizer, polar_grid,
                       quasicontract_estimate, repro_fact_check, solve_extremal)
from .probes import (bergman_decomposition_residual, biharmonic_green,
                     defect_direction, log_radial_moment)
from .spaces import bergman_tag, hardy_tag, norm as space_norm, smirnov_tag

SCHEMA_NAME = "ringspace-results"
SCHEMA_VERSION = 1

_DEFAULTS = {"N": 64, "m": 512, "tol": 1e-8, "seed": 0, "format": "json"}

_SPACES = {"smirnov": smirnov_tag, "arclength": smirnov_tag,
           "hardy": hardy_tag, "bergman": bergman_tag}


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
        raise click.UsageError(f"cannot parse complex literal {text!r}") from exc


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
            raise click.UsageError(f"atom {part!r} is not of the form point:mass") from exc
        out.append((parse_complex(point), float(mass)))
    return tuple(out)


def _cnum(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation."""

    command: str
    r: float
    base: complex | None = None
    zeros: tuple[complex, ...] = ()
    atoms: tuple[tuple[complex, float], ...] = ()
    N: int = 64
    m: int = 512
    tol: float = 1e-8
    seed: int = 0
    out: str | None = None
    format: str = "json"
    extras: dict = field(default_factory=dict)

    def parameters(self) -> dict:
        p = {"r": self.r, "N": self.N, "m": self.m, "tol": self.tol,
             "seed": self.seed, "format": self.format}
        if self.base is not None:
            p["base"] = _cnum(self.base)
        if self.zeros:
            p["zeros"] = [_cnum(z) for z in self.zeros]
        if self.atoms:
            p["atoms"] = [{"point": _cnum(pt), "mass": mass} for pt, mass in self.atoms]
        for k, v in self.extras.items():
            if isinstance(v, complex):
                v = _cnum(v)
            p[k] = v
        return p


def parse_config(command: str, cli_values: dict, config_path: str | None) -> RunConfig:
    """Merge defaults, the optional JSON config file, and explicit flags."""
    merged: dict = dict(_DEFAULTS)
    if config_path:
        with open(config_path) as fh:
            try:
                merged.update(json.load(fh))
            except json.JSONDecodeError as exc:
                raise click.UsageError(f"config file {config_path} is not valid JSON: {exc}")
    for key, value in cli_values.items():
        if value is not None:
            merged[key] = value
    if "r" not in merged or merged["r"] is None:
        raise click.UsageError("missing required flag --r (inner radius)")
    known = {"r", "base", "zeros", "atoms", "N", "m", "tol", "seed", "out", "format"}
    base = merged.get("base")
    zeros = merged.get("zeros", ())
    atoms = merged.get("atoms", ())
    if isinstance(base, str):
        base = parse_complex(base)
    if isinstance(zeros, str):
        zeros = parse_complex_list(zeros)
    elif zeros:
        zeros = tuple(parse_complex(z) if isinstance(z, str) else complex(z) for z in zeros)
    if isinstance(atoms, str):
        atoms = parse_atoms(atoms)
    elif atoms:
        atoms = tuple((parse_complex(p) if isinstance(p, str) else complex(p), float(mm))
                      for p, mm in (tuple(a) for a in atoms))
    fmt = str(merged.get("format", "json"))
    if fmt not in ("json", "csv"):
        raise click.UsageError(f"--format must be json or csv, got {fmt}")
    return RunConfig(command=command, r=float(merged["r"]), base=base,
                     zeros=tuple(zeros), atoms=tuple(atoms),
                     N=int(merged["N"]), m=int(merged["m"]),
                     tol=float(merged["tol"]), seed=int(merged.get("seed", 0)),
                     out=merged.get("out"), format=fmt,
                     extras={k: v for k, v in merged.items() if k not in known})


def _document(config: RunConfig, results: dict, status: str = "ok",
              ladder=None, tolerances=None, grids=None, started=None) -> dict:
    doc = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": config.command,
        "parameters": config.parameters(),
        "results": results,
        "tolerances": tolerances or {"tol": config.tol},
        "status": status,
        "wall_time_s": (time.monotonic() - started) if started else 0.0,
    }
    if ladder is not None:
        doc["ladder"] = [{"N": int(n), "estimate": float(e)} for n, e in ladder]
    if grids:
        doc["grids"] = grids
    return doc


def _emit(doc: dict, config: RunConfig) -> None:
    if config.format == "csv":
        lines = ["key,value"]
        for key, value in sorted(doc["results"].items()):
            if isinstance(value, dict) and set(value) == {"re", "im"}:
                value = f"{value['re']}+{value['im']}i"
            lines.append(f"{key},{value}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if config.out:
        Path(config.out).write_text(text)
    else:
        click.echo(text, nl=False)


def write_grid_csv(path: str, radii, angles, values) -> None:
    """Polar grid as ``rho,theta,re,im`` rows."""
    values = np.asarray(values)
    with open(path, "w") as fh:
        fh.write("rho,theta,re,im\n")
        for i, rho in enumerate(radii):
            for j, theta in enumerate(angles):
                v = complex(values[i, j])
                fh.write(f"{rho!r},{theta!r},{v.real!r},{v.imag!r}\n")


def _domain(config: RunConfig, fallback_base: complex | None = None) -> AnnulusDomain:
    base = config.base if config.base is not None else fallback_base
    if base is None:
        base = math.sqrt(config.r)  # geometric-mean radius: canonical interior point
    return make_annulus(config.r, base)


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
        raise click.UsageError(f"unknown command {config.command!r}")
    try:
        results, ladder, tolerances, grids = handler(config)
    except (GeometryError, ArgumentError) as exc:
        click.echo(f"rejected: {exc}", err=True)
        return 3
    except RingspaceError as exc:
        doc = _document(config, {"error": str(exc)}, status="unverified",
                        started=started)
        _emit(doc, config)
        click.echo(f"unverified: {exc}", err=True)
        return 4
    doc = _document(config, results, ladder=ladder, tolerances=tolerances,
                    grids=grids, started=started)
    _emit(doc, config)
    return 0


def _cmd_green(config: RunConfig):
    pole = config.extras.get("pole")
    if pole is None:
        raise click.UsageError("green needs --pole")
    pole = parse_complex(pole) if isinstance(pole, str) else complex(pole)
    domain = _domain(config, fallback_base=pole)
    g = green(domain, pole, N=config.N)
    outer, inner = ring_nodes([1.0, domain.inner_radius], 256)
    residual = max(float(np.max(np.abs(g(outer)))), float(np.max(np.abs(g(inner)))))
    nodes = boundary_nodes(domain, OUTER, config.m) + boundary_nodes(domain, INNER, config.m)
    ds = np.array([s.weight for s in nodes])
    mass = float(np.sum(-np.asarray(normal_derivative(g, nodes)) / (2 * np.pi) * ds))
    grid_pts = polar_grid(domain, 50, inset=0.02)
    interior_min = float(np.min(g(grid_pts)))
    grids = None
    grid_out = config.extras.get("grid_out")
    if grid_out:
        rho = np.linspace(domain.inner_radius + 0.01, 0.99, 64)
        theta = 2 * np.pi * np.arange(64) / 64
        Z = rho[:, None] * np.exp(1j * theta)[None, :]
        write_grid_csv(grid_out, rho, theta, g(Z).astype(complex))
        grids = [{"name": "green_values", "path": str(grid_out)}]
    results = {"boundary_residual_max": residual, "measure_mass": mass,
               "interior_min": interior_min, "pole": _cnum(pole)}
    return results, None, {"boundary_residual": 1e-10, "mass": 1e-10}, grids


def _cmd_hmeasure(config: RunConfig):
    j = int(config.extras.get("j", 1))
    domain = _domain(config)
    w = harmonic_measure(domain, j)
    pts = polar_grid(domain, 20, inset=0.05)
    w1 = harmonic_measure(domain, OUTER)
    w2 = harmonic_measure(domain, INNER)
    results = {
        "component": j,
        "c0": w.c0,
        "clog": w.clog,
        "conjugate_period": conjugate_period(w),
        "partition_residual": float(np.max(np.abs(w1(pts) + w2(pts) - 1.0))),
        "value_at_base": float(w(domain.base_point)),
    }
    return results, None, {"partition": 1e-14}, None


def _cmd_blaschke(config: RunConfig):
    if not config.zeros:
        raise click.UsageError("blaschke needs --zeros")
    domain = _domain(config, fallback_base=None)
    B = blaschke_product(domain, ZeroSet(points=config.zeros), tol=config.tol)
    results = _inner_spec_results(B, domain, config.m)
    results["factors_used"] = len(B.zeros)
    results["ring_zero_count"] = count_zeros(B, domain, full_ring(domain))
    return results, None, {"modulus": 1e-8, "period": 1e-8}, None


def _cmd_singular(config: RunConfig):
    domain = _domain(config)
    mu = AtomicSingularMeasure(atoms=config.atoms)
    S = singular_inner(domain, mu, N=config.N)
    results = _inner_spec_results(S, domain, config.m)
    results["ring_zero_count"] = count_zeros(S, domain, full_ring(domain))
    results["atom_count"] = len(config.atoms)
    return results, None, {"period": 1e-8}, None


def _cmd_inner_verify(config: RunConfig):
    domain = _domain(config)
    spec, _ = qc_divisor(domain, ZeroSet(points=config.zeros),
                         AtomicSingularMeasure(atoms=config.atoms),
                         N=config.N, tol=config.tol)
    return _inner_spec_results(spec, domain, config.m), None, {"modulus": 1e-6}, None


def _space_tag(config: RunConfig):
    label = str(config.extras.get("space", "bergman")).lower()
    if label not in _SPACES:
        raise click.UsageError(f"--space must be one of {sorted(set(_SPACES))}, got {label}")
    return _SPACES[label]()


def _cmd_kernel(config: RunConfig):
    domain = _domain(config)
    tag = _space_tag(config)
    K = build_kernel(domain, tag, N=config.N, m=config.m)
    w = domain.base_point
    probe = LaurentPolynomial.from_dict({0: 1.0, 2: 0.5, -1: 0.25})
    from .kernels import reproduce_check
    rep = reproduce_check(K, probe, 0.5 * (domain.inner_radius + 1.0), m=config.m)
    z_probe = 0.5 * (domain.inner_radius + 1.0) * np.exp(0.7j)
    herm = abs(complex(K(z_probe, w)) - np.conj(complex(K(w, z_probe))))
    results = {"space": config.extras.get("space", "bergman"),
               "value_at_base": float(np.real(K(w, w))),
               "reproduce_residual": rep.residual,
               "hermitian_residual": herm}
    grids = None
    grid_out = config.extras.get("grid_out")
    if grid_out:
        rho = np.linspace(domain.inner_radius + 0.02, 0.98, 48)
        theta = 2 * np.pi * np.arange(48) / 48
        Z = rho[:, None] * np.exp(1j * theta)[None, :]
        write_grid_csv(grid_out, rho, theta, np.asarray(K(Z, w)))
        grids = [{"name": "kernel_section", "path": str(grid_out)}]
    return results, None, {"reproduce": 1e-9}, grids


def _cmd_kernel_zeros(config: RunConfig):
    domain = _domain(config)
    tag = _space_tag(config)
    N = max(config.N, 96)  # below ~96 truncation zeros hug the circles
    K = build_kernel(domain, tag, N=N, m=max(config.m, 4 * N + 4))
    section = K.section(domain.base_point)
    count = count_zeros(section, domain, full_ring(domain), m=config.m)
    report = locate_zeros(section, domain, expected=count)
    results = {"space": config.extras.get("space", "bergman"),
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
    equivalence = float(np.max(np.abs(G(pts) - F(pts) / complex(F(problem.base)))))
    results = {
        "space": config.extras.get("space", "bergman"),
        "norm": space_norm(G, domain, tag, m=config.m),
        "value_at_base": _cnum(complex(G(problem.base))),
        "max_value_at_zeros": max((abs(complex(G(z))) for z in config.zeros), default=0.0),
        "formulation_equivalence": equivalence,
    }
    if len(config.zeros) == 1:
        results["kernel_product_deviation"] = extremal_identity_check(problem, m=config.m)
    return results, None, {"equivalence": 1e-9}, None


def _cmd_candidate_divisor(config: RunConfig):
    if len(config.zeros) != 1:
        raise click.UsageError("candidate-divisor needs exactly one zero in --zeros")
    domain = _domain(config)
    N = max(config.N, 96)
    cand = candidate_divisor(domain, config.zeros[0], N=N, m=max(config.m, 4 * N + 4))
    report = locate_zeros(cand, domain, expected=1)
    results = {
        "kernel_zero": _cnum(cand.kernel_zero),
        "ring_zero_count": 1,
        "zero_location": _cnum(report.locations[0]),
        "zero_residual": report.residual,
        "inner_by_constant_modulus": verify_inner(cand, domain).passed,
    }
    return results, None, {"newton": 1e-10}, None


def _cmd_qc_divisor(config: RunConfig):
    domain = _domain(config, fallback_base=None)
    G, C = qc_divisor(domain, ZeroSet(points=config.zeros),
                      AtomicSingularMeasure(atoms=config.atoms),
                      N=config.N, tol=config.tol)
    mods = np.abs(G(ring_nodes([1.0, domain.inner_radius], config.m)))
    trials = int(config.extras.get("trials", 100))
    bound = division_bound_check(G, C, domain, trials=trials, seed=config.seed,
                                 m=config.m)
    results = {
        "C": C,
        "lambda": G.lam,
        "boundary_modulus_min": float(mods.min()),
        "boundary_modulus_max": float(mods.max()),
        "division_ratio_max": bound.max_ratio,
        "division_ratio_min": bound.min_ratio,
        "trials": bound.trials,
    }
    return results, None, {"boundary": 1e-7, "ratio": 1e-6}, None


def _cmd_qc_estimate(config: RunConfig):
    if len(config.zeros) != 1:
        raise click.UsageError("qc-estimate needs exactly one zero in --zeros")
    domain = _domain(config)
    z1 = config.zeros[0]
    undivided = bool(config.extras.get("undivided", False))
    N = max(config.N, 96)
    cand = candidate_divisor(domain, z1, N=N, m=max(config.m, 4 * N + 4))
    if undivided:
        def target(z):
            z = np.asarray(z, dtype=complex)
            return np.asarray(cand.blaschke(z)) * np.asarray(cand.kernel(z, cand.base))
    else:
        target = cand
    report = quasicontract_estimate(target, z1, domain, m=config.m)
    changes = [abs(b[1] - a[1]) / b[1]
               for a, b in zip(report.per_truncation, report.per_truncation[1:])]
    results = {
        "constant_estimate": report.constant_estimate,
        "kernel_zero": _cnum(cand.kernel_zero),
        "undivided": undivided,
        "flags": report.notes,
        "extraneous_zeros": [_cnum(z) for z in report.zero_locations_of_kernel],
        "ladder_relative_changes": changes,
        "stabilized": bool(changes and changes[-1] < 0.05),
    }
    return results, report.per_truncation, {"ladder": "report-only"}, None


def _cmd_schottky_fit(config: RunConfig):
    if len(config.zeros) != 1:
        raise click.UsageError("schottky-fit needs exactly one zero in --zeros")
    domain = _domain(config)
    problem = ExtremalProblem(domain=domain, space=hardy_tag(), base=domain.base_point,
                              zeros=config.zeros, truncation=max(config.N, 96))
    G = solve_extremal(problem, m=config.m)
    Gn = G * (1.0 / space_norm(G, domain, hardy_tag(), m=config.m))
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
        problem = ExtremalProblem(domain=domain, space=bergman_tag(),
                                  base=domain.base_point, zeros=config.zeros,
                                  truncation=N)
        G = solve_extremal(problem, m=config.m)
    else:
        K = build_kernel(domain, bergman_tag(), N=N)
        G = K.section(domain.base_point)
    Gn = G * (1.0 / space_norm(G, domain, bergman_tag(), m=config.m))
    lam1, residual = bergman_decomposition_residual(Gn, domain, domain.base_point,
                                                    m=config.m)
    _, c0 = defect_direction(domain, m=config.m)
    results = {
        "lambda_1": lam1,
        "residual": residual,
        "projection_constant": c0,
        "log_radial_moment": log_radial_moment(domain.inner_radius),
    }
    return results, None, {"residual": 1e-5}, None


def _cmd_biharmonic(config: RunConfig):
    disk = bool(config.extras.get("disk", False))
    pole = config.extras.get("pole")
    if pole is None:
        raise click.UsageError("biharmonic needs --pole")
    pole = parse_complex(pole) if isinstance(pole, str) else complex(pole)
    n_rho = int(config.extras.get("n_rho", 64))
    n_theta = int(config.extras.get("n_theta", 64))
    domain = None if disk else make_annulus(config.r, pole)
    sol = biharmonic_green(domain, pole, n_rho, n_theta,
                           check_refinement=bool(config.extras.get("check_refinement", False)))
    grids = None
    grid_out = config.extras.get("grid_out")
    if grid_out:
        write_grid_csv(grid_out, sol.grid.radii, sol.grid.angles,
                       sol.grid.values.astype(complex))
        grids = [{"name": "biharmonic_solution", "path": str(grid_out)}]
    results = {
        "disk": disk,
        "min_value": sol.min_value,
        "max_value": sol.max_value,
        "sign_change_cell_count": len(sol.sign_change_cells),
        "operator_residual": sol.operator_residual,
    }
    if sol.refinement_warning is not None:
        results["refinement_warning"] = bool(sol.refinement_warning)
    return results, None, {"positivity_floor": 1e-6}, grids


_HANDLERS = {
    "green": _cmd_green,
    "hmeasure": _cmd_hmeasure,
    "blaschke": _cmd_blaschke,
    "singular": _cmd_singular,
    "inner-verify": _cmd_inner_verify,
    "kernel": _cmd_kernel,
    "kernel-zeros": _cmd_kernel_zeros,
    "extremal": _cmd_extremal,
    "candidate-divisor": _cmd_candidate_divisor,
    "qc-divisor": _cmd_qc_divisor,
    "qc-estimate": _cmd_qc_estimate,
    "schottky-fit": _cmd_schottky_fit,
    "decomposition": _cmd_decomposition,
    "biharmonic": _cmd_biharmonic,
}


def _common_options(fn):
    decorators = [
        click.option("--r", type=float, default=None, help="inner radius in (0,1)"),
        click.option("--base", type=str, default=None, help="base point (a+bi or rho∠theta)"),
        click.option("--zeros", type=str, default=None, help="comma-separated zero list"),
        click.option("--atoms", type=str, default=None, help="comma-separated point:mass atoms"),
        click.option("--N", "N", type=int, default=None, help="series/window truncation"),
        click.option("--m", type=int, default=None, help="quadrature nodes per circle/ring"),
        click.option("--tol", type=float, default=None, help="stopping tolerance"),
        click.option("--seed", type=int, default=None, help="seed for random trials"),
        click.option("--out", type=str, default=None, help="write the result document here"),
        click.option("--format", "format_", type=click.Choice(["json", "csv"]),
                     default=None, help="primary output format"),
        click.option("--config", "config_path", type=str, default=None,
                     help="JSON config file mirroring the flags (flags win)"),
    ]
    for dec in reversed(decorators):
        fn = dec(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="ringspace")
def main():
    """Numerics for function spaces on the annulus {r < |z| < 1}."""


def _invoke(command: str, extras: dict, **kw):
    cli_values = {
        "r": kw.get("r"), "base": kw.get("base"), "zeros": kw.get("zeros"),
        "atoms": kw.get("atoms"), "N": kw.get("N"), "m": kw.get("m"),
        "tol": kw.get("tol"), "seed": kw.get("seed"), "out": kw.get("out"),
        "format": kw.get("format_"),
    }
    config = parse_config(command, cli_values, kw.get("config_path"))
    config.extras.update({k: v for k, v in extras.items() if v is not None})
    sys.exit(run(config))


@main.command("green")
@_common_options
@click.option("--pole", type=str, default=None, help="interior pole of the Green's function")
@click.option("--grid-out", type=str, default=None, help="CSV path for sampled values")
def green_cmd(pole, grid_out, **kw):
    """Green's function: boundary residual, measure mass, positivity."""
    _invoke("green", {"pole": pole, "grid_out": grid_out}, **kw)


@main.command("hmeasure")
@_common_options
@click.option("--j", type=int, default=None, help="boundary component (1 outer, 2 inner)")
def hmeasure_cmd(j, **kw):
    """Harmonic measure of one boundary circle."""
    _invoke("hmeasure", {"j": j}, **kw)


@main.command("blaschke")
@_common_options
def blaschke_cmd(**kw):
    """Generalized Blaschke product over the given zeros."""
    _invoke("blaschke", {}, **kw)


@main.command("singular")
@_common_options
def singular_cmd(**kw):
    """Singular inner function driven by boundary atoms."""
    _invoke("singular", {}, **kw)


@main.command("inner-verify")
@_common_options
def inner_verify_cmd(**kw):
    """Constant-modulus verification of the inner function built from flags."""
    _invoke("inner-verify", {}, **kw)


@main.command("kernel")
@_common_options
@click.option("--space", type=str, default=None, help="smirnov | hardy | bergman")
@click.option("--grid-out", type=str, default=None, help="CSV path for the kernel section")
def kernel_cmd(space, grid_out, **kw):
    """Reproducing kernel diagnostics at the base point."""
    _invoke("kernel", {"space": space, "grid_out": grid_out}, **kw)


@main.command("kernel-zeros")
@_common_options
@click.option("--space", type=str, default=None, help="smirnov | hardy | bergman")
def kernel_zeros_cmd(space, **kw):
    """Count and locate the zeros of the kernel section at the base point."""
    _invoke("kernel-zeros", {"space": space}, **kw)


@main.command("extremal")
@_common_options
@click.option("--space", type=str, default=None, help="smirnov | hardy | bergman")
def extremal_cmd(space, **kw):
    """Constrained least-norm extremal function."""
    _invoke("extremal", {"space": space}, **kw)


@main.command("candidate-divisor")
@_common_options
def candidate_divisor_cmd(**kw):
    """One-zero Bergman divisor candidate (kernel zero divided out)."""
    _invoke("candidate-divisor", {}, **kw)


@main.command("qc-divisor")
@_common_options
@click.option("--trials", type=int, default=None, help="random division trials")
def qc_divisor_cmd(trials, **kw):
    """Quasi-contractive divisor with boundary bounds and division ratios."""
    _invoke("qc-divisor", {"trials": trials}, **kw)


@main.command("qc-estimate")
@_common_options
@click.option("--undivided", is_flag=True, default=False,
              help="probe the raw extremal with its extraneous kernel zero")
def qc_estimate_cmd(undivided, **kw):
    """Operator-norm ladder for division by the candidate divisor."""
    _invoke("qc-estimate", {"undivided": undivided or None}, **kw)


@main.command("schottky-fit")
@_common_options
def schottky_fit_cmd(**kw):
    """Fit |G|^2 - 1 of the Hardy extremal against the Schottky function."""
    _invoke("schottky-fit", {}, **kw)


@main.command("decomposition")
@_common_options
def decomposition_cmd(**kw):
    """Pairings of |G|^2 - H(., z0) against harmonic tests and the log defect."""
    _invoke("decomposition", {}, **kw)


@main.command("biharmonic")
@_common_options
@click.option("--disk", is_flag=True, default=False, help="solve on the unit disk")
@click.option("--pole", type=str, default=None, help="load location")
@click.option("--n-rho", type=int, default=None, help="radial resolution")
@click.option("--n-theta", type=int, default=None, help="angular resolution")
@click.option("--check-refinement", is_flag=True, default=False,
              help="re-solve at doubled resolution and compare minima")
@click.option("--grid-out", type=str, default=None, help="CSV path for the solution grid")
def biharmonic_cmd(disk, pole, n_rho, n_theta, check_refinement, grid_out, **kw):
    """Clamped biharmonic Green's function probe."""
    _invoke("biharmonic", {"disk": disk or None, "pole": pole, "n_rho": n_rho,
                           "n_theta": n_theta,
                           "check_refinement": check_refinement or None,
                           "grid_out": grid_out}, **kw)


if __name__ == "__main__":
    main()
