"""Constrained least-norm extremal problems and divisor probes.

The two classical formulations (maximize |f(z0)| at unit norm with prescribed
zeros / minimize the norm with f(z0) = 1 and the same zeros) are equivalent;
the solver works the linearly constrained form as a bordered KKT system on
the Laurent window and the maximizing form is recovered from reproducing
kernel sections, which doubles as an independent cross-check.

The candidate divisor removes the extraneous kernel zero from the extremal
by dividing out a Blaschke factor at that zero, and the operator-norm ladder
measures quasi-contractivity of division on the zero-based subspace as a
generalized eigenvalue of a Gram pencil.

The KKT stays a solve of its own.  The Schur complement
``G^-1 E* (E G^-1 E*)^-1 b`` from the kernel factor would be the kernel
route again (``G^-1 E*`` are the sections at the constrained points), agree
with ``extremal_maximizer`` to rounding, and leave the CLI's equivalence
check comparing one solve with itself; on ill-conditioned Hardy Grams the
two routes differ by up to about 5e-9, which that check exists to see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ArgumentError, ConvergenceError, GeometryError, RingspaceError,
                     SingularConstraintsError, SingularGramError, ZeroOnContourError)
from .geometry import AnnulusDomain, polar_grid, ring_nodes
from .inner import InnerFunctionSpec, blaschke_factor
from .kernels import build_kernel, count_zeros, full_ring, locate_zeros, refined_solve
from .laurent import LaurentPolynomial
from .spaces import (SpaceKind, SpaceTag, area_quadrature, base_quadrature, bergman_tag,
                     ring_gram, ring_values, scaled_gram, scaled_rows)

_IDENTITY_GRID = 32  # polar grid of extremal_identity_check
_LADDER = (8, 16, 24, 32)  # quasicontract_estimate's windows


@dataclass(frozen=True)
class ExtremalProblem:
    """Least-norm data: value 1 at ``base``, zeros at ``zeros``, window ``truncation``.

    The problem holds its space's quadrature and Gram once formed (``measure``,
    ``gram``), so the solves, the norm and the checks of one problem share one
    harmonic-measure density and one Gram.
    """

    domain: AnnulusDomain
    space: SpaceTag
    base: complex
    zeros: tuple[complex, ...]
    truncation: int
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.truncation < 0:
            raise ArgumentError(f"window N must be non-negative, got {self.truncation}")
        object.__setattr__(self, "base", complex(self.base))
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        for z in (self.base, *self.zeros):
            if not self.domain.contains(z, margin=1e-9):
                raise GeometryError(f"point {z} is not strictly inside the annulus")
        if any(abs(z - self.base) < 1e-12 for z in self.zeros):
            raise GeometryError("base point must not be among the zeros")

    def _once(self, key, make):
        if key not in self._held:
            self._held[key] = make()
        return self._held[key]

    def measure(self, m: int):
        """The space's unweighted ``(pts, w)`` on ``m`` nodes per circle or ring
        (``base_quadrature``), formed once per problem and ``m``."""
        return self._once(("measure", m),
                          lambda: base_quadrature(self.domain, self.space.kind, m))

    def gram(self, m: int):
        """``scaled_gram`` of the space on the window over ``measure``, formed once
        per problem and ``m``."""
        return self._once(("gram", m), lambda: scaled_gram(
            self.domain, self.space, self.truncation, m, self.measure))


@dataclass(frozen=True)
class DivisorReport:
    """Operator-norm ladder for the division map on a zero-based subspace."""

    constant_estimate: float
    per_truncation: tuple[tuple[int, float], ...]
    zero_locations_of_kernel: tuple[complex, ...]
    notes: str


def solve_extremal(p: ExtremalProblem, m: int = 512) -> LaurentPolynomial:
    """Minimize the space norm subject to the evaluation constraints.

    Bordered system [[conj(G), E*], [E, 0]] [a; mu] = [0; b] (the norm is
    ``a^H conj(G) a``) solved in the basis ``scaled_gram`` equilibrates and
    refined once (``refined_solve``); the form is positive definite so the
    solution is unique for independent constraints.  The system is LU-factored
    once (LAPACK ``getrf``), for the solve and its refinement.
    """
    Gs, d = p.gram(m)
    Es = scaled_rows([p.base, *p.zeros], p.truncation, d)  # rows E: z^n at the points
    k = Es.shape[0]
    try:
        if np.linalg.matrix_rank(Es, tol=1e-12) < k:
            raise SingularConstraintsError("evaluation constraints are linearly dependent "
                                           "on this window")
    except np.linalg.LinAlgError as exc:
        raise SingularConstraintsError(f"evaluation constraints have no rank ({exc})") from exc
    n = d.size
    kkt = np.zeros((n + k, n + k), dtype=complex)
    kkt[:n, :n] = np.eye(n) if Gs is None else Gs.conj()
    kkt[:n, n:] = Es.conj().T
    kkt[n:, :n] = Es
    rhs = np.zeros(n + k, dtype=complex)
    rhs[n] = 1.0  # value 1 at the base, 0 at the zeros
    import scipy.linalg
    lu, piv, info = scipy.linalg.lapack.zgetrf(kkt)
    if info != 0:
        raise SingularGramError(f"bordered KKT system is singular (getrf info {info})")
    sol = refined_solve(kkt.astype(np.clongdouble),
                        lambda v: scipy.linalg.lapack.zgetrs(lu, piv, v)[0], rhs)
    coeffs = sol[:n] / d
    return LaurentPolynomial(-p.truncation, p.truncation, coeffs)


def extremal_maximizer(p: ExtremalProblem, m: int = 512) -> LaurentPolynomial:
    """Unit-norm maximizer of ``|f(base)|`` over the zero-constrained window.

    Projects the kernel section at the base point off the span of the
    sections at the zeros (a small solve on the kernel matrix), then
    normalizes.  Independent of the KKT route; the two agree after dividing
    by the base value.
    """
    K = build_kernel(p.domain, p.space, p.truncation, m, gram=p.gram(m))
    section, *at_zeros = [K.section(w) for w in (p.base, *p.zeros)]
    if p.zeros:
        kz = np.array([[complex(kj(zi)) for kj in at_zeros] for zi in p.zeros])
        rhs = np.array([complex(section(zi)) for zi in p.zeros])
        try:
            c = np.linalg.solve(kz, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularConstraintsError(
                f"kernel matrix at the zeros is singular ({exc})") from exc
        for cj, kj in zip(c, at_zeros):
            section = section + kj * (-cj)
    value = complex(section(p.base))  # equals ||section||^2, positive real
    return section * (1.0 / math.sqrt(value.real))


def extremal_identity_check(G: LaurentPolynomial, p: ExtremalProblem, m: int = 512) -> float:
    """Deviation between the extremal ``G`` (``solve_extremal(p)``) and
    ``B_z1 * weighted-kernel``.

    Builds the single-zero Blaschke factor, the ``|B|^2``-weighted kernel
    section at the base point, matches the value-1-at-base normalization, and
    returns the max pointwise deviation on an interior polar grid.
    """
    if len(p.zeros) != 1:
        raise ArgumentError("the kernel-product identity check needs exactly one zero")
    B = blaschke_factor(p.domain, p.zeros[0])
    weighted = SpaceTag(p.space.kind, weight_fn=B)
    gram = scaled_gram(p.domain, weighted, p.truncation, m, p.measure)
    section = build_kernel(p.domain, weighted, p.truncation, m, gram=gram).section(p.base)
    n = _IDENTITY_GRID
    pts = polar_grid(p.domain, n)
    formula = ring_values(B, pts, n) * ring_values(section, pts, n)
    base_val = complex(B(p.base)) * complex(section(p.base))
    return float(np.max(np.abs(ring_values(G, pts, n) - formula / base_val)))


def repro_fact_check(G: LaurentPolynomial, p: ExtremalProblem, m: int = 512) -> float:
    """Max residual of the reproducing identity for the normalized extremal:
    ``max_F | integral F |G|^2 d omega - F(base) |`` over monomials ``|n| <= N/2``.

    Each monomial's residual is scaled by ``max(1, |F(base)|)``: the negative
    powers grow like ``|base|^-n``, so an unscaled maximum would only measure
    the largest member of the family.
    """
    if p.space.kind is not SpaceKind.HARDY_HARMONIC_MEASURE:
        raise ArgumentError("the reproducing identity lives in the harmonic-measure space")
    pts, w = p.measure(m)
    gsq = np.abs(ring_values(G, pts, m))**2
    worst = 0.0
    half = p.truncation // 2
    for n in range(-half, half + 1):
        lhs = complex(np.sum(w * pts**n * gsq))
        target = complex(p.base)**n
        worst = max(worst, abs(lhs - target) / max(1.0, abs(target)))
    return worst


@dataclass(frozen=True)
class CandidateDivisor:
    """One-zero divisor candidate ``K_I(., z0) / B_kernel_zero``."""

    kernel_zero: complex
    kernel_section: LaurentPolynomial       # K_I(., z0): zeros at z1 and kernel_zero
    kernel_zero_factor: InnerFunctionSpec   # B_kernel_zero

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.asarray(self.kernel_section(z)) / np.asarray(self.kernel_zero_factor(z))
        return out if out.shape else complex(out)

    def on_rings(self, radii, m: int, turn: float = 0.0) -> np.ndarray:
        """Values at ``ring_nodes(radii, m, turn)``, every factor by one FFT per ring."""
        return (self.kernel_section.on_rings(radii, m, turn)
                / self.kernel_zero_factor.on_rings(radii, m, turn))


@dataclass(frozen=True)
class _Deflated:
    """``F(z) / (z - z1)``: ``F`` with its zero at ``z1`` divided out, on rings
    ``F.on_rings`` over the nodes less ``z1``."""

    F: LaurentPolynomial
    z1: complex

    def __call__(self, z):
        return self.F(z) / (np.asarray(z, dtype=complex) - self.z1)

    def on_rings(self, radii, m: int, turn: float = 0.0) -> np.ndarray:
        return self.F.on_rings(radii, m, turn) / (ring_nodes(radii, m, turn) - self.z1)


def candidate_divisor(domain: AnnulusDomain, z1: complex, N: int = 96) -> CandidateDivisor:
    """Bergman divisor candidate vanishing only at ``z1``: ``K_I(., z0) / B_w*``.

    ``F = K_I(., z0)`` (``extremal_maximizer`` for ``I = {g : g(z1) = 0}``, diagonal
    Gram) is ``B_z1`` times the ``|B_z1|^2``-weighted section up to a constant.
    Its window is the first of ``max(N, 96) * (1, 2, 4, 8)`` where it counts 2 ring
    zeros, ``z1`` and ``w*`` (short windows leave truncation zeros at the circles).
    ``w*`` (the one zero of ``F / (z - z1)``) may hug a circle.
    """
    windows = [max(N, 96) * k for k in (1, 2, 4, 8)]
    for window in windows:
        F = extremal_maximizer(ExtremalProblem(domain, bergman_tag(), domain.base_point,
                                               (z1,), window))
        try:
            count = count_zeros(F, domain, full_ring(domain))
        except ZeroOnContourError as exc:
            count = f"nothing ({exc})"
        if count == 2:
            break
    else:
        raise ConvergenceError(f"argument principle counted {count} where 2 ring zeros were "
                               f"expected at windows {', '.join(map(str, windows))}")
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only at z = z1 exactly
        w_star = locate_zeros(_Deflated(F, z1), domain, 1).locations[0]
    return CandidateDivisor(kernel_zero=w_star, kernel_section=F,
                            kernel_zero_factor=blaschke_factor(domain, w_star))


def quasicontract_estimate(G, z1: complex, domain: AnnulusDomain,
                           m: int = 512) -> DivisorReport:
    """Operator norm of ``f -> f / G0`` on the subspace vanishing at ``z1``.

    ``G0`` is ``G`` scaled to unit Bergman norm (a canonical gauge so the
    estimate is invariant under rescaling ``G``).  For each window of
    ``_LADDER`` the squared norm is the top generalized eigenvalue of the Grams
    of ``z^n`` weighted by ``|z - z1|^2 / |G0|^2`` and by ``|z - z1|^2``.  Each
    rung is a principal submatrix of the pencil at the largest window, so the
    reported square roots are nondecreasing.  Extraneous zeros of ``G`` beyond ``z1``
    make the quotients meromorphic and the ladder grow without settling; they
    are detected by the argument principle and flagged.
    """
    pts, w = area_quadrature(domain, m)
    g_vals = ring_values(G, pts, m)
    g_norm_sq = float(np.sum(w * np.abs(g_vals)**2))
    total = count_zeros(G, domain, full_ring(domain))
    notes = ""
    extra_locations: tuple[complex, ...] = ()
    if total != 1:
        notes = (f"EXTRANEOUS_ZERO: {total} ring zeros where 1 was prescribed; "
                 "division is meromorphic and the ladder will not settle")
        try:
            report = locate_zeros(G, domain, total)
            extra_locations = tuple(z for z in report.locations
                                    if abs(z - z1) > 1e-4)
        except RingspaceError as exc:
            notes += f"; zeros not located ({type(exc).__name__}: {exc})"
    top = _LADDER[-1]
    plain = w * np.abs(pts - z1)**2
    A_s, d = ring_gram(pts, plain, m, top)
    B_s, d_div = ring_gram(pts, plain * g_norm_sq / np.abs(g_vals)**2, m, top)
    B_s = B_s * np.outer(d_div / d, d_div / d)  # into the plain Gram's scaling
    import scipy.linalg
    estimates = []
    for N in _LADDER:
        rung = slice(top - N, top + N + 1)
        try:
            eig = scipy.linalg.eigh(B_s[rung, rung], A_s[rung, rung], eigvals_only=True)
        except np.linalg.LinAlgError as exc:
            raise SingularGramError(f"division pencil at N={N} is singular ({exc})") from exc
        estimates.append((int(N), float(math.sqrt(max(eig)))))
    return DivisorReport(constant_estimate=estimates[-1][1],
                         per_truncation=tuple(estimates),
                         zero_locations_of_kernel=extra_locations,
                         notes=notes)
