"""Reproducing kernels on the ring and argument-principle zero counting.

Unweighted arclength and area kernels are diagonal series over the monomial
norms of ``log_monomial_norms``.  Weighted kernels (and the harmonic-measure
kernel, whose monomials are not orthogonal because the base point breaks
rotational symmetry) solve through a Cholesky factor of the equilibrated Gram
on the truncated window, refined once with an extended-precision residual.
Ring zeros are counted once, by ``count_zeros``; ``locate_zeros`` finds that many.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArgumentError, ConvergenceError, SingularGramError, ZeroOnContourError
from .geometry import AnnulusDomain, ring_nodes
from .laurent import LaurentPolynomial
from .spaces import SpaceTag, inner_product, ring_values, scaled_gram, scaled_rows

_CONTOUR_MARGIN = 1e-4  # full_ring's inset from each circle, relative to the gap
_LOCATE_GRID = 64       # locate_zeros' polar scan: grid x grid cells
_NEWTON_TOL, _NEWTON_MAXITER = 1e-10, 60  # Newton accepts a zero at |f| <= _NEWTON_TOL
_DIFF_STEP = 1e-6       # central-difference step of the Newton derivative


@dataclass
class KernelEvaluator:
    """Reproducing kernel ``K(z, w)`` of the tagged space on window -N..N.

    ``K(z, w) = conj(K(w, z))`` and ``K(w, w) > 0`` for interior ``w``.
    """

    domain: AnnulusDomain
    tag: SpaceTag
    N: int
    scale: np.ndarray                         # sqrt of diag(G): G = scale Gs scale
    factor: Optional[tuple] = None            # cho_factor of conj(Gs); None: Gs = I, diagonal
    gram: Optional[np.ndarray] = None         # conj(Gs) in extended precision

    def __call__(self, z, w):
        return self.section(w)(z)

    def section(self, w):
        """``K(., w)``, coefficients ``conj(G)^-1 conj(w^n)``."""
        x = np.conj(scaled_rows([w], self.N, self.scale)[0])
        if self.factor is not None:
            import scipy.linalg
            x = refined_solve(self.gram, lambda b: scipy.linalg.cho_solve(self.factor, b), x)
        return LaurentPolynomial(-self.N, self.N, x / self.scale)


def refined_solve(a_ext: np.ndarray, solve, b: np.ndarray) -> np.ndarray:
    """``solve(b)`` plus one refinement step whose residual ``b - a x`` is
    formed in extended precision (``a_ext`` is ``a`` as ``clongdouble``).

    Hardy Grams reach scaled condition 1e8 and beyond when the base point is
    near a circle, so a plain solve is good to about ``cond * eps`` and the KKT
    and kernel routes to one extremal disagreed by 1e-9.  The extended
    residual brings each solve to about ``eps + cond * 1e-19`` relative to the
    stored matrix (where ``clongdouble`` is plain double it is ordinary
    fixed-precision refinement).
    """
    x = solve(b)
    r = np.asarray(b, dtype=np.clongdouble) - a_ext @ x.astype(np.clongdouble)
    return x + solve(r.astype(complex))


def _check_scaled_condition(cond: float) -> None:
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularGramError(f"weighted Gram is numerically singular "
                                f"(scaled condition {cond:.3e})")


def build_kernel(domain: AnnulusDomain, tag: SpaceTag, N: int = 64,
                 m: int = 512, gram=None) -> KernelEvaluator:
    """Build the reproducing kernel for a tagged space from ``scaled_gram``, or
    from its ``(Gs, d)`` where the caller holds them (``ExtremalProblem.gram``).

    Unweighted arclength/area kernels use the diagonal monomial series.
    Weighted kernels factor the equilibrated quadrature Gram; so does the
    unweighted harmonic-measure kernel, whose Gram is dense.  A scaled
    condition number above 1e14 or a failed factorization raises
    ``SingularGramError``.
    """
    Gs, d = scaled_gram(domain, tag, N, m) if gram is None else gram
    if Gs is None:
        return KernelEvaluator(domain, tag, N, scale=d)
    import scipy.linalg
    import scipy.sparse.linalg  # noqa: F401  (unused; perfbench/tracer.py looks it up in sys.modules)
    try:
        factor = scipy.linalg.cho_factor(Gs.conj(), check_finite=False)  # NaN: cond raises
    except np.linalg.LinAlgError as exc:
        _check_scaled_condition(np.linalg.cond(Gs))
        raise SingularGramError(f"weighted Gram is not positive definite ({exc})") from exc
    # Screen: kappa_2 <= |Gs|_F |Gs^-1|_F, Gs^-1 from the factor (upper triangle),
    # good to about n eps kappa; the SVD decides only what the screen cannot.
    inv = np.triu(scipy.linalg.lapack.zpotri(*factor)[0])
    bound = np.linalg.norm(Gs) * np.linalg.norm(inv + np.triu(inv, 1).conj().T)
    if not bound * (1.0 + 2.0 * Gs.shape[0] * np.finfo(float).eps * bound) <= 1e14:
        _check_scaled_condition(np.linalg.cond(Gs))
    return KernelEvaluator(domain, tag, N, scale=d, factor=factor,
                           gram=Gs.conj().astype(np.clongdouble))


def reproduce_check(K: KernelEvaluator, f: LaurentPolynomial, w: complex,
                    m: int = 512) -> float:
    """Residual ``|<f, K(., w)> - f(w)|`` by quadrature in the kernel's space."""
    return abs(inner_product(f, K.section(w), K.domain, K.tag, m) - f(complex(w)))


_WINDING_BLOCK = 8192  # nodes per evaluation of f, so memory stays flat as m doubles


def _ring_phases(f, rho: float, m: int, turn: float) -> np.ndarray:
    """Phases of ``f`` at ``ring_nodes([rho], m, turn)``: one FFT through ``f.on_rings``
    where ``f`` has it, point values otherwise; a value that is not finite or dips
    below ``1e-10`` refuses the count."""
    vals = (f.on_rings([rho], m, turn)[0] if hasattr(f, "on_rings")
            else np.asarray(f(ring_nodes([rho], m, turn)[0]), dtype=complex))
    if not np.all(np.isfinite(vals)):
        raise ConvergenceError(f"f is not finite on the circle |z| = {rho}; cannot count")
    if np.min(np.abs(vals)) < 1e-10:
        raise ZeroOnContourError(f"|f| dips below 1e-10 on the circle |z| = {rho}; cannot count")
    return np.angle(vals)


def _winding_on_circle(f, rho: float, m: int) -> int:
    """Winding number of ``f`` along ``|z| = rho`` from its wrapped phase steps.

    Doubles the node count while a step exceeds pi/2, the guard against wrap
    ambiguity.  The circle is read as ``P`` strided sub-rings (``P`` a power of
    two dividing ``m``, ``m/P <= _WINDING_BLOCK`` where that exists): sub-ring
    ``s`` holds nodes ``s, s + P, ...`` and is the ring at turn ``2 pi s/m``
    (``_ring_phases``).  Node ``j + 1`` of sub-ring ``s`` is node ``j`` of
    sub-ring ``s + 1``, so the steps come elementwise from consecutive sub-rings.
    A level read as one ring is held: the next doubling's even nodes are its
    nodes, so only the odd ones, the ring of ``m/2`` turned by ``2 pi/m``, are new.
    """
    held = None
    while True:
        P = 1
        while m // P > _WINDING_BLOCK and m % (2 * P) == 0:
            P *= 2
        worst, turn = 0.0, 0.0
        for s in range(P + 1):  # sub-ring P is sub-ring 0 shifted by one node
            if s == P:
                phase = np.roll(first, -1)
            elif held is not None and P == 1:  # interleave the held level and the odd nodes
                phase = np.empty(m)
                phase[::2], phase[1::2] = held, _ring_phases(f, rho, m // 2, 2.0 * np.pi / m)
            elif held is not None and s == 0:  # P == 2: sub-ring 0 is the held level
                phase = held
            else:
                phase = _ring_phases(f, rho, m // P, 2.0 * np.pi * s / m)
            if s == 0:
                first = prev = phase
            step = np.mod(phase - prev + np.pi, 2.0 * np.pi) - np.pi
            worst = max(worst, float(np.max(np.abs(step))))
            turn, prev = turn + float(step.sum()), phase
        total = turn / (2.0 * np.pi)
        if worst <= 0.5 * np.pi:
            rounded = int(round(total))
            if abs(total - rounded) > 0.25:
                raise ConvergenceError(
                    f"winding number did not settle on an integer: {total}")
            return rounded
        if m >= 2**20:
            raise ConvergenceError(f"phase unwrapping failed to settle at m = {m}")
        held = first if P == 1 else None
        m *= 2


def count_zeros(f, domain: AnnulusDomain, ring: tuple[float, float],
                m: int = 512) -> int:
    """Zeros of ``f`` (with multiplicity) in ``{ring[0] < |z| < ring[1]}``.

    Argument principle: winding along the outer sampling circle minus winding
    along the inner one.
    """
    rho_lo, rho_hi = ring
    if m < 4:
        raise ArgumentError(f"need at least 4 nodes per counting circle, got {m}")
    if not (domain.inner_radius <= rho_lo < rho_hi <= 1.0):
        raise ArgumentError(f"ring {ring} is not inside the annulus")
    return _winding_on_circle(f, rho_hi, m) - _winding_on_circle(f, rho_lo, m)


def full_ring(domain: AnnulusDomain) -> tuple[float, float]:
    """The counting ring covering the annulus up to a small contour margin."""
    gap = 1.0 - domain.inner_radius
    return (domain.inner_radius + _CONTOUR_MARGIN * gap, 1.0 - _CONTOUR_MARGIN * gap)


@dataclass(frozen=True)
class ZeroReport:
    locations: tuple[complex, ...]
    residual: float


def _derivative(f, z):
    return (np.asarray(f(z + _DIFF_STEP)) - np.asarray(f(z - _DIFF_STEP))) / (2.0 * _DIFF_STEP)


def _newton_polish(f, z0: complex):
    z = complex(z0)
    with np.errstate(all="ignore"):   # np.abs: a modulus past 1.8e308 is inf, not OverflowError
        best = (np.abs(complex(f(z))), z)
        for _ in range(_NEWTON_MAXITER):
            fz = complex(f(z))
            if not np.isfinite(fz):
                break
            modulus = np.abs(fz)
            if modulus < best[0]:
                best = (modulus, z)
            if modulus <= _NEWTON_TOL:
                return z, modulus
            dz = complex(_derivative(f, z))
            if dz == 0.0:
                break
            step = fz / dz
            if not np.isfinite(step):
                break
            z = z - step
        fz = np.abs(complex(f(z)))
    if np.isfinite(fz) and fz <= _NEWTON_TOL:
        return z, fz
    return None, min(fz if np.isfinite(fz) else np.inf, best[0])


def _local_minima(vals: np.ndarray) -> np.ndarray:
    """Cells of a (radius, angle) grid no larger than any of their 8 neighbours,
    with no neighbour past the end radii and wrapping in angle."""
    padded = np.pad(np.pad(vals, ((1, 1), (0, 0)), constant_values=np.inf),
                    ((0, 0), (1, 1)), mode="wrap")
    return vals <= sliding_window_view(padded, (3, 3)).min(axis=(2, 3))


def locate_zeros(f, domain: AnnulusDomain, count: int,
                 ring: tuple[float, float] | None = None) -> ZeroReport:
    """Locate the ``count`` zeros the caller counted in ``ring`` (no count here).

    Scans a polar grid for local minima of ``|f|`` and polishes the best
    candidate cells with Newton iterations until ``count`` distinct roots
    reach ``|f| <= 1e-10``.
    """
    ring = ring or full_ring(domain)
    if count == 0:
        return ZeroReport(locations=(), residual=0.0)
    Z = ring_nodes(np.linspace(ring[0], ring[1], _LOCATE_GRID), _LOCATE_GRID)
    vals = np.abs(ring_values(f, Z.ravel(), _LOCATE_GRID)).reshape(Z.shape)
    # Seed Newton from grid-local minima, so a shallow boundary dip cannot
    # crowd out a genuine interior zero; fall back to the globally smallest
    # cells afterwards.
    minima = np.flatnonzero(_local_minima(vals).ravel())
    minima = minima[np.argsort(vals.ravel()[minima])]
    rest = np.argsort(vals.ravel())
    seeds = np.concatenate([minima, rest])
    roots: list[complex] = []
    best_residual = np.inf
    residuals: list[float] = []
    for flat in seeds[: minima.size + 8 * count + 16]:
        z0 = Z.ravel()[flat]
        root, res = _newton_polish(f, z0)
        best_residual = min(best_residual, res)
        if root is None:
            continue
        if not (ring[0] - 1e-8 < abs(root) < ring[1] + 1e-8):
            continue
        if any(abs(root - rr) < 1e-6 for rr in roots):
            continue
        roots.append(root)
        residuals.append(res)
        if len(roots) == count:
            return ZeroReport(locations=tuple(roots), residual=float(max(residuals)))
    raise ConvergenceError(
        f"Newton refinement found {len(roots)} of {count} zeros",
        best_residual=float(best_residual))
