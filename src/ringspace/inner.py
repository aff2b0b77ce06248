"""Inner functions on the ring: Blaschke factors and products, singular inner
functions, period removal, verification, and quasi-contractive divisors.

Every constructed inner function is held in closed multiplicative form

    f(z) = z^power * exp(series(z)) * prod_k exp(s_k H_k(z)) * prod_j N_j(z),

where ``H_k`` is singular atom ``k``'s closed-form disk Herglotz kernel,
``N_j = (z - a_j) v / ((1 - v)(v - r^2))`` with ``v = z conj a_j`` the near factors of
zero ``j``'s prime-function ratio (``harmonic.times_near_factors``), and ``series`` a
truncated Laurent series collecting the rest of those ratios
(``harmonic.prime_series``), the atoms' smooth corrections and the period remover.

The factor with zero ``a`` is ``B_a = c P(z/a) / P(z conj a)``, ``P`` the annulus
prime function and ``|c| = 1``: single-valued with no period to remove, it has
modulus ``1`` on the inner circle and ``e^lambda = 1/|a|`` on the outer one, so
``lambda = log(1/|a|)`` lies in ``(0, log(1/r))`` and ``power = 0``.
Choosing the removal exponent ``lambda`` of a singular function on the lattice
``log(1/r) * Z`` makes its log-term coefficient an exact integer, which is the
``z^power`` factor; single-valuedness is then structural.  One helper,
``_close_period``, picks ``lambda`` and ``power`` and checks the closed-form
period residual against ``power``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, ConvergenceError, GeometryError, PeriodError
from .geometry import INNER, OUTER, AnnulusDomain, offset_boundary_nodes, ring_nodes
from .harmonic import (TRUNCATION_CAP, analytic_completion, harmonic_measure, prime_series,
                       schottky, solve_dirichlet, times_near_factors)
from .laurent import LaurentPolynomial
from .spaces import boundary_quadrature, log_monomial_norms, ring_values, smirnov_tag

_PERIOD_TOL = 1e-8
_ATOM_TAIL = 1e-16     # an atom's correction runs to the first N with r^N <= this
_AT_ATOM = 1e-12       # a point this close to an atom takes its factor's radial limit


@dataclass(frozen=True)
class AtomicSingularMeasure:
    """Finitely many non-positive point masses on the boundary circles."""

    atoms: tuple[tuple[complex, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms",
                           tuple((complex(p), float(m)) for p, m in self.atoms))
        for point, mass in self.atoms:
            if mass > 0.0:
                raise ArgumentError(f"singular masses must be non-positive, got {mass}")

    @classmethod
    def empty(cls) -> "AtomicSingularMeasure":
        return cls(atoms=())


def _atom_component(domain: AnnulusDomain, point: complex) -> int:
    rho = abs(point)
    if abs(rho - 1.0) <= 1e-9:
        return OUTER
    if abs(rho - domain.inner_radius) <= 1e-9:
        return INNER
    raise GeometryError(f"singular atom {point} is not on the boundary")


def _atom_factor(domain: AnnulusDomain, zeta: complex, mass: float, z: np.ndarray):
    """``exp(s H(z))`` of an atom: ``H = (zeta + z)/(zeta - z)``, ``s = mass/2pi`` on the
    outer circle, ``H = (z + zeta)/(z - zeta)``, ``s = mass/(2 pi r)`` on the inner; ``Re H``
    is the disk Poisson kernel.  Within ``_AT_ATOM`` of the atom (rounding puts ring
    nodes there) the factor is its radial limit: 0, or 1 for mass 0."""
    diff = zeta - z
    near = np.abs(diff) <= _AT_ATOM
    # the inner circle's H is -(zeta + z)/(zeta - z), so its s takes the sign
    s = mass / (2.0 * np.pi) * (1.0 if _atom_component(domain, zeta) == OUTER
                                else -1.0 / domain.inner_radius)
    w = s * (zeta + z) / np.where(near, 1.0, diff)
    # Re w <= 0 on the closed ring: a node rounded just outside it must not overflow
    return np.where(near, float(mass == 0.0), np.exp(w - np.maximum(w.real, 0.0)))


@dataclass(frozen=True)
class InnerFunctionSpec:
    """Closed-form inner function ``z^power exp(series) prod exp(s_k H_k) prod N_j``
    (the module docstring)."""

    domain: AnnulusDomain
    zeros: tuple[complex, ...]
    singular: AtomicSingularMeasure
    lam: float
    power: int
    series: LaurentPolynomial
    period_residual: float = 0.0

    @property
    def boundary_moduli(self) -> tuple[float, float]:
        """``|f|`` on the outer and on the inner circle (away from singular atoms)."""
        return math.exp(self.lam), 1.0

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = self._times_factors(z, np.exp(self.series(z)))
        return out if out.shape else complex(out)

    def on_rings(self, radii, m: int, turn: float = 0.0) -> np.ndarray:
        """Values at ``ring_nodes(radii, m, turn)``, the series by one FFT per ring."""
        return self._times_factors(ring_nodes(radii, m, turn),
                                   np.exp(self.series.on_rings(radii, m, turn)))

    def _times_factors(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        if self.power != 0:
            out = out * z**self.power
        for a in self.zeros:
            out = times_near_factors(out, z, a, self.domain.inner_radius)
        for zeta, mass in self.singular.atoms:
            out = out * _atom_factor(self.domain, zeta, mass, z)
        return out


def _close_period(domain: AnnulusDomain, log_coeff: float) -> tuple[float, int, float]:
    """``(lam, power, residual)`` that make ``exp`` of an exponent single-valued.

    The exponent's conjugate has period ``2 pi log_coeff`` around the inner
    circle, and ``lam (omega_1 + i conj)`` adds ``2 pi lam / log(1/r)``.  The
    minimal ``lam`` in ``(0, log(1/r)]`` brings the total to the integer
    ``power``; ``residual`` is ``2 pi`` times what is left over, and above
    ``_PERIOD_TOL`` raises ``PeriodError``.
    """
    L = domain.log_gap
    power = math.floor(log_coeff) + 1
    lam = L * (power - log_coeff)
    if not (0.0 < lam <= L + 1e-12):
        lam, power = lam - L, power - 1  # roundoff at the lattice edge
    omega1_clog = harmonic_measure(domain, OUTER).clog  # 1 / log(1/r)
    residual = abs(2.0 * np.pi * (log_coeff + omega1_clog * lam - power))
    if not residual <= _PERIOD_TOL:
        raise PeriodError(f"period bookkeeping failed: residual {residual:.3e}")
    return lam, power, residual


def _reduce_lattice(domain: AnnulusDomain, lam: float, power: int,
                    series: LaurentPolynomial):
    """Shift ``lam`` by lattice multiples into ``(0, L]``; each downward step
    divides by ``e^L z``, i.e. decrements the power and the series constant."""
    L = domain.log_gap
    k = math.ceil(lam / L) - 1
    if lam - k * L <= 0.0:  # guard roundoff at the lattice edge
        k -= 1
    if k != 0:
        lam = lam - k * L
        power = power - k
        series = series + LaurentPolynomial.constant(-k * L)
    return lam, power, series


def _normalize_phase(spec: InnerFunctionSpec, value: complex) -> InnerFunctionSpec:
    """Rotate ``spec`` by a unimodular constant so that ``value`` (its value at
    the base point) becomes positive real.

    A unimodular factor is an invertible inner function, so this does not
    change any modulus; it pins the free additive constant of the conjugates.
    """
    if value == 0.0 or not np.isfinite(value):
        return spec
    return replace(spec, series=spec.series + LaurentPolynomial.constant(-1j * np.angle(value)))


def blaschke_factor(domain: AnnulusDomain, a: complex) -> InnerFunctionSpec:
    """Single-zero inner factor ``c P(z/a) / P(z conj a)``, normalized positive at
    the base point: ``exp(prime_series)`` times the near factors ``times_near_factors``
    (``ConvergenceError`` where ``prime_series``' window passes its cap).

    The ratio is single-valued, so ``lambda = log(1/|a|)`` exactly and ``power = 0``.
    """
    a = complex(a)
    if not domain.contains(a):
        raise GeometryError(f"Blaschke zero {a} must be strictly interior")
    series = prime_series(domain, a)
    spec = InnerFunctionSpec(domain=domain, zeros=(a,),
                             singular=AtomicSingularMeasure.empty(),
                             lam=-math.log(abs(a)), power=0, series=series)
    z0 = domain.base_point
    shift = z0 - a if abs(z0 - a) > 1e-12 else 1.0
    value = times_near_factors(np.exp(series(z0)), z0, a, domain.inner_radius, shift)
    return _normalize_phase(spec, complex(value))


def multiply(f: InnerFunctionSpec, g: InnerFunctionSpec) -> InnerFunctionSpec:
    """Product of two inner specs with the running exponent reduced to one
    lattice cell, so boundary moduli stay within ``[1, 1/r]``."""
    domain = f.domain
    lam = f.lam + g.lam
    power = f.power + g.power
    series = f.series + g.series
    lam, power, series = _reduce_lattice(domain, lam, power, series)
    atoms = f.singular.atoms + g.singular.atoms
    return InnerFunctionSpec(domain=domain, zeros=f.zeros + g.zeros,
                             singular=AtomicSingularMeasure(atoms),
                             lam=lam, power=power, series=series,
                             period_residual=max(f.period_residual, g.period_residual))


def unit_inner(domain: AnnulusDomain) -> InnerFunctionSpec:
    """The constant 1 as an inner spec (empty product)."""
    return InnerFunctionSpec(domain=domain, zeros=(),
                             singular=AtomicSingularMeasure.empty(),
                             lam=0.0, power=0,
                             series=LaurentPolynomial.constant(0.0))


def blaschke_product(domain: AnnulusDomain, zeros: Sequence[complex]) -> InnerFunctionSpec:
    """Product of single-zero factors over a finite zero sequence, repeated
    points counted with multiplicity; no zeros give ``unit_inner``."""
    product = unit_inner(domain)
    for a in zeros:
        product = multiply(product, blaschke_factor(domain, a))
    return product


def singular_inner(domain: AnnulusDomain, mu: AtomicSingularMeasure) -> InnerFunctionSpec:
    """Zero-free inner function driven by a non-positive atomic measure.

    Atom ``k`` adds ``s_k (H_k + h_k)`` to the exponent: the spec keeps the
    closed-form factor ``exp(s_k H_k)`` (``_atom_factor``) and ``series`` the
    completion of the smooth correction ``h_k``, the Dirichlet solution with data
    ``-r^|n| e^{-in arg zeta_k}`` (cancelling ``Re H_k``) on the far circle and 0
    on the atom's own, up to ``r^N <= _ATOM_TAIL`` (``ConvergenceError`` past
    ``TRUNCATION_CAP``, r above about 0.991).  Non-positive masses pull ``|S|``
    down toward the atoms; it is constant on each circle away from them.
    ``lambda`` in ``(0, log(1/r)]`` cancels the summed period (``_close_period``;
    each ``h_k`` has log coefficient exactly ``-+1/log r``); with no atoms
    ``lambda = log(1/r)`` and the result is the invertible inner function ``z / r``.
    """
    r = domain.inner_radius
    N = math.ceil(math.log(_ATOM_TAIL) / math.log(r))
    series, clog_total = LaurentPolynomial.constant(0.0), 0.0
    for point, mass in mu.atoms:
        if N > TRUNCATION_CAP:
            raise ConvergenceError(f"atom correction window past the cap N = {TRUNCATION_CAP}")
        ns = np.arange(-N, N + 1)
        far, zero = -r ** np.abs(ns) * np.exp(-1j * ns * np.angle(point)), np.zeros(2 * N + 1)
        outer = _atom_component(domain, point) == OUTER
        scale = mass / (2.0 * np.pi) * (1.0 if outer else 1.0 / r)
        correction = solve_dirichlet(domain, *((zero, far) if outer else (far, zero)), N)
        series = series + analytic_completion(correction) * scale
        clog_total += correction.clog * scale
    lam, power, residual = _close_period(domain, clog_total)
    series = series + LaurentPolynomial.constant(lam)
    spec = InnerFunctionSpec(domain=domain, zeros=(), singular=mu,
                             lam=lam, power=power, series=series,
                             period_residual=residual)
    return _normalize_phase(spec, complex(spec(domain.base_point)))


@dataclass(frozen=True)
class InnerVerification:
    """Per-circle mean modulus and maximal deviation of a candidate inner function."""

    c1: float
    c2: float
    dev1: float
    dev2: float

    @property
    def passed(self) -> bool:
        return self.dev1 <= 1e-6 * self.c1 and self.dev2 <= 1e-6 * self.c2


def verify_inner(f: Callable, domain: AnnulusDomain, m: int = 256) -> InnerVerification:
    """Check constancy of ``|f|`` on each circle at ``m`` nodes off the quadrature nodes."""
    pts = offset_boundary_nodes(domain, m)
    outer, inner_v = np.abs(ring_values(f, pts, m)).reshape(2, m)
    c1, c2 = float(outer.mean()), float(inner_v.mean())
    return InnerVerification(c1=c1, c2=c2,
                             dev1=float(np.max(np.abs(outer - c1))),
                             dev2=float(np.max(np.abs(inner_v - c2))))


def check_orthogonality(f: LaurentPolynomial, domain: AnnulusDomain, N: int) -> float:
    """``max_{0 < |n| <= N} |<z^n f, f>|`` in the arclength space.

    In the monomial basis the pairing is diagonal:
    ``<z^n f, f> = sum_j f_j conj(f_{j+n}) ||z^{j+n}||^2``.  Each term's
    modulus is formed in log space, so a zero coefficient gives 0 where
    ``||z^{j+n}||^2`` is past the double range.
    """
    W = max(-f.lo, f.hi, 0)
    log_norms = log_monomial_norms(domain, smirnov_tag(), W)[f.lo + W:f.hi + W + 1]
    with np.errstate(divide="ignore"):
        log_mod = np.log(np.abs(f.coeffs))
    phase = np.exp(1j * np.angle(f.coeffs))
    worst, size = 0.0, f.coeffs.size
    for n in (*range(-N, 0), *range(1, N + 1)):
        j = np.arange(max(0, -n), min(size, size - n))  # j and j + n in the window
        terms = np.exp(log_mod[j] + log_mod[j + n] + log_norms[j + n])
        worst = max(worst, abs(complex(np.sum(terms * phase[j] * np.conj(phase[j + n])))))
    return worst


def schottky_fit(f: Callable, domain: AnnulusDomain, m: int = 512) -> tuple[float, float]:
    """Least-squares fit of ``|f|^2 - 1`` against the Schottky function ``s_1``
    over all boundary nodes; residual in the boundary arclength norm.
    """
    pts, ds = boundary_quadrature(domain, m)
    s1 = schottky(domain, m)
    y = np.abs(ring_values(f, pts, m))**2 - 1.0
    denom = float(np.sum(ds * s1 * s1))
    lam1 = float(np.sum(ds * s1 * y) / denom)
    residual = float(np.sqrt(np.sum(ds * (y - lam1 * s1)**2)))
    return lam1, residual


def qc_divisor(domain: AnnulusDomain, zeros: Sequence[complex] = (),
               mu: AtomicSingularMeasure | None = None) -> tuple[InnerFunctionSpec, float]:
    """Quasi-contractive divisor ``G = B_Z * S_mu`` of a finite zero sequence ``Z`` and
    an atomic measure, and its domain constant.

    With the combined removal exponent reduced into one period cell
    ``(0, log(1/r)]``, the boundary moduli satisfy ``1 <= |G| <= 1/r``
    (away from singular atoms), so the divisor constant is ``C = 1/r``.
    """
    mu = mu if mu is not None else AtomicSingularMeasure.empty()
    G = multiply(blaschke_product(domain, zeros), singular_inner(domain, mu))
    return G, 1.0 / domain.inner_radius


@dataclass(frozen=True)
class DivisionBoundReport:
    """Supremum and infimum of ``||h|| ||G|| / ||G h||`` over the Hardy space."""

    max_ratio: float
    min_ratio: float


def division_bound_check(G: InnerFunctionSpec, domain: AnnulusDomain) -> DivisionBoundReport:
    """Two-sided division bounds for the normalized divisor, in closed form.

    With ``G0 = G / ||G||`` and ``f = G0 h``, ``||f / G0|| / ||f|| = ||h|| ||G|| / ||G h||``
    must lie in ``[1/C, C]``.  ``|G|`` is ``e^lam`` on the outer circle and 1 on the
    inner one, so in the Hardy space of harmonic measure at the base point
    ``||G h||^2 = e^{2 lam} ||h||_1^2 + ||h||_2^2`` (``||h||_j^2`` the mass on circle
    ``j``) for every ``h``.  The extremes are ``||G||`` (approached by ``z^-n``) and
    ``||G|| e^-lam`` (by ``z^n``), with ``||G||^2 = e^{2 lam} omega_1(z0) + omega_2(z0)``.
    Only an inner spec has those moduli; anything else raises ``ArgumentError``.
    """
    if not isinstance(G, InnerFunctionSpec):
        raise ArgumentError(f"division bounds need an InnerFunctionSpec, got {type(G).__name__}")
    moduli = G.boundary_moduli
    z0 = domain.base_point
    g_norm = math.sqrt(sum(mod**2 * harmonic_measure(domain, j)(z0)
                           for mod, j in zip(moduli, (OUTER, INNER))))
    return DivisionBoundReport(g_norm, g_norm / moduli[0])
