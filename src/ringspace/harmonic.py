"""Harmonic machinery on the annulus via Fourier matching and the prime function.

Green's function and the single-zero inner factor read one closed form, the
annulus prime function ``P(u) = (1 - u) prod_{k>=1} (1 - r^{2k} u)(1 - r^{2k}/u)``
(Crowdy & Marshall 2007): ``B_a = P(z/a) / P(z conj a)`` has modulus ``1/|a|`` on
the unit circle and 1 on the inner one, and ``g(z, a) = -log|B_a| - log|a| omega_1``.

A harmonic function on the ring splits into angular modes; each nonzero mode
``n`` is a combination ``Re[(A_n rho^n + B_n rho^-n) e^{i n theta}]`` and the
zero mode is ``c0 + clog * log(rho)``.  Matching Fourier data on the two
circles gives one uniform Dirichlet solver that realizes the smooth corrections
of singular atoms, and analytic completions whose one multi-valued term,
``clog * log z``, carries the whole conjugate period.

Harmonic measure at the base point needs no solve: its density is the Poisson
kernel of the annulus, whose Fourier coefficients on each circle are closed
forms in ``r`` and the base point (``measure_density``).  The Schottky function
reads that density as ``dg/dn``.

Mode coefficients are stored in the scaled form ``Bhat_n = B_n r^{-n}`` so the
2x2 matching systems stay perfectly conditioned and evaluation never forms
``rho^-n`` against a large coefficient: the modes' sum is
``Re[sum_n A_n z^n + Bhat_n (r / conj z)^n]``, two power series evaluated by
Horner in ``z`` and ``r / conj z``, both of modulus at most 1 on the ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ConvergenceError, GeometryError
from .geometry import INNER, OUTER, AnnulusDomain, boundary_nodes
from .laurent import LaurentPolynomial, fold_sum


@dataclass(frozen=True, eq=False)
class HarmonicRepresentation:
    """Harmonic function ``c0 + clog*log(rho) + sum_n Re[(A_n rho^n + B_n rho^-n) e^{in theta}]``.

    ``ns`` holds the positive mode indices in ascending order, ``A`` their
    ``A_n`` and ``Bhat`` the scaled ``B_n rref^-n``.  The conjugate of the
    function is multi-valued with period ``2*pi*clog`` around the inner circle.
    """

    c0: float
    clog: float
    rref: float
    ns: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    A: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    Bhat: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))

    def __call__(self, z):
        """The value at ``z``: ``c0 + clog log|z|`` plus the modes by Horner in ``z`` and
        ``rref / conj z`` (the module docstring), with no (modes x points) table."""
        z = np.asarray(z, dtype=complex)
        out = self.c0 + self.clog * np.log(np.abs(z))
        if self.ns.size:
            c = np.zeros((2, self.ns[-1] + 1), dtype=complex)
            c[:, self.ns] = self.A, self.Bhat
            P_A, P_Bhat = (LaurentPolynomial(0, len(row) - 1, row) for row in c)
            out = out + np.real(P_A(z) + P_Bhat(self.rref / np.conj(z)))
        return out if out.shape else float(out)


@dataclass(frozen=True)
class GreenFunction:
    """``g(z) = -log|B(z)| - log|pole| omega_1(z)``, vanishing on both circles, with
    ``B = P(z/pole) / P(z conj pole)`` from ``prime_series`` and ``times_near_factors``."""

    domain: AnnulusDomain
    pole: complex
    series: LaurentPolynomial

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        a, r = self.pole, self.domain.inner_radius
        log_b = np.real(self.series(z)) + np.log(np.abs(times_near_factors(1.0, z, a, r)))
        out = -log_b - math.log(abs(a)) * harmonic_measure(self.domain, OUTER)(z)
        return out if out.shape else float(out)


def _validate_conjugate_symmetry(data: np.ndarray, N: int, what: str):
    if not np.all(np.isfinite(data)):
        raise ArgumentError(f"{what} Fourier data is not finite")
    scale = max(1.0, float(np.max(np.abs(data))))
    flipped = np.conj(data[::-1])
    if np.max(np.abs(data - flipped)) > 1e-12 * scale:
        raise ArgumentError(f"{what} Fourier data is not conjugate-symmetric (real data required)")


def solve_dirichlet(domain: AnnulusDomain, outer_data, inner_data, N: int) -> HarmonicRepresentation:
    """Solve the Dirichlet problem from Fourier data on the two circles.

    ``outer_data``/``inner_data`` hold complex coefficients for frequencies
    ``-N..N`` (index 0 is frequency ``-N``).  Each mode ``n >= 1`` solves the
    2x2 system matching ``A rho^n + B rho^-n`` at ``rho = 1`` and ``rho = r``;
    in the scaled unknowns ``(A, Bhat)`` the determinant is ``1 - r^{2n}``,
    which is bounded away from zero for every ``r`` in (0, 1).
    """
    outer = np.asarray(outer_data, dtype=complex)
    inner = np.asarray(inner_data, dtype=complex)
    if outer.shape != (2 * N + 1,) or inner.shape != (2 * N + 1,):
        raise ArgumentError(f"boundary data must have length 2N+1 = {2 * N + 1}")
    _validate_conjugate_symmetry(outer, N, "outer")
    _validate_conjugate_symmetry(inner, N, "inner")
    r = domain.inner_radius
    f0_out = float(np.real(outer[N]))
    f0_in = float(np.real(inner[N]))
    c0 = f0_out
    clog = (f0_in - f0_out) / math.log(r)
    ns = np.arange(1, N + 1)
    rn = r**ns.astype(float)
    det = 1.0 - rn**2
    if not det.min() > 0.0:
        raise ArgumentError(f"matching determinant 1 - r^(2n) is not positive for r = {r}")
    dout = 2.0 * outer[N + ns]
    din = 2.0 * inner[N + ns]
    # [[1, r^n], [r^n, 1]] @ [A, Bhat] = [dout, din]
    A = (dout - rn * din) / det
    Bhat = (din - rn * dout) / det
    keep = (A != 0) | (Bhat != 0)
    return HarmonicRepresentation(c0, clog, r, ns[keep], A[keep], Bhat[keep])


def harmonic_measure(domain: AnnulusDomain, j: int) -> HarmonicRepresentation:
    """Closed-form harmonic measure of boundary component ``j``.

    ``omega_1 = log(|z|/r) / log(1/r)`` (outer), ``omega_2 = log|z| / log(r)``
    (inner); they sum to 1.
    """
    r = domain.inner_radius
    if j == OUTER:
        return HarmonicRepresentation(1.0, 1.0 / domain.log_gap, r)
    if j == INNER:
        return HarmonicRepresentation(0.0, 1.0 / math.log(r), r)
    raise ArgumentError(f"boundary component must be 1 or 2, got {j}")


TRUNCATION_CAP = 4096


def tail_truncation(domain: AnnulusDomain, pole: complex, tol: float, floor: int) -> int:
    """Smallest ``N >= floor`` with ``max(|pole|, r/|pole|)^N <= tol``.

    A series in the Fourier modes of a point's Poisson or log kernel decays like
    ``|pole|^n`` on the outer circle and ``(r/|pole|)^n`` on the inner one, so this
    bounds its tail at ``N``: the harmonic-measure density's correction
    (``measure_density``) and the clamped plate's modes read it.  An ``N`` past
    ``TRUNCATION_CAP`` (at ``tol = 1e-15``, a pole within about 0.0084 of the
    unit circle or 0.0085 r of the inner one) raises ``ConvergenceError``.
    """
    r, rho = domain.inner_radius, abs(pole)
    q = max(rho, r / rho)
    n = math.ceil(math.log(tol) / math.log(q)) if q < 1.0 else math.inf
    if n > TRUNCATION_CAP:
        side, gap = ("unit", 1.0 - rho) if rho >= r / rho else ("inner", rho - r)
        raise ConvergenceError(
            f"series tail {q:.6g}^N reaches {tol:.0e} only past the cap "
            f"N = {TRUNCATION_CAP}: pole {pole} is {gap:.3e} from the {side} circle")
    return max(n, floor)


_PRIME_TAIL = 1e-17  # the prime-function series runs to the first N with r^N <= this


def prime_series(domain: AnnulusDomain, a: complex) -> LaurentPolynomial:
    """``log`` of ``P(z/a) / P(z conj a)`` less its near factors, as a Laurent series.

    ``1 - z/a = -(z - a)/a`` gives the constant ``log(-1/a)``; ``z - a``, ``1 - z conj a``
    and ``1 - r^2/(z conj a)`` are ``times_near_factors``.  The other factors' logs sum over
    ``k`` in closed form: ``z^n`` has ``r^{2n} (conj(a)^n - a^-n)`` and ``z^-n`` has
    ``r^{4n} conj(a)^-n - r^{2n} a^n``, each over ``n (1 - r^{2n})``.  On the ring every
    term is at most ``r^n / (n (1 - r^{2n}))`` wherever ``a`` is.  A window past
    ``TRUNCATION_CAP`` (r above about 0.9905) raises ``ConvergenceError``.
    """
    r, a = domain.inner_radius, complex(a)
    N = math.ceil(math.log(_PRIME_TAIL) / math.log(r))
    if N > TRUNCATION_CAP:
        raise ConvergenceError(f"prime-function series r^N reaches {_PRIME_TAIL:.0e} only "
                               f"past the cap N = {TRUNCATION_CAP}: r = {r}")
    ns = np.arange(1, N + 1)
    r2, den = r * r, ns * -np.expm1(2.0 * ns * math.log(r))
    pos = ((r2 * np.conj(a))**ns - (r2 / a)**ns) / den
    neg = ((r2 * r2 / np.conj(a))**ns - (r2 * a)**ns) / den
    return LaurentPolynomial(-N, N, np.concatenate([neg[::-1], [np.log(-1.0 / a)], pos]))


def times_near_factors(out, z, a: complex, r: float, shift=None):
    """``out * (z - a) v / ((1 - v)(v - r^2))``, ``v = z conj a``, in place where ``out`` is
    an array: the factors of ``P(z/a) / P(z conj a)`` whose zero or poles come near a circle
    with ``a``.  ``shift`` stands in for ``z - a``: 1 takes a zero's phase at the zero."""
    v = z * np.conj(a)
    out *= v
    out /= 1.0 - v
    v -= r * r
    out /= v
    out *= z - a if shift is None else shift
    return out


def green(domain: AnnulusDomain, pole: complex) -> GreenFunction:
    """Green's function of the annulus with the given interior pole, in closed form
    (``ConvergenceError`` where ``prime_series``' window passes its cap)."""
    r = domain.inner_radius
    a = complex(pole)
    if abs(a) <= r + 1e-9 or abs(a) >= 1.0 - 1e-9:
        raise GeometryError(f"pole {pole} is on or within 1e-9 of the boundary")
    return GreenFunction(domain=domain, pole=a, series=prime_series(domain, a))


def measure_density(domain: AnnulusDomain, m: int) -> np.ndarray:
    """Density of harmonic measure at ``domain.base_point`` w.r.t. arclength, at
    the ``boundary_nodes(domain, m)``, in closed form: no Green function is solved.

    With ``z0 = rho e^{i phi}`` the density per unit angle is
    ``(1/2 pi) [u_0 + 2 sum_n u_n cos n(theta - phi)]`` on the unit circle,
    ``u_n = rho^n (1 - (r/rho)^{2n}) / (1 - r^{2n})``, and the same with
    ``v_n = (r/rho)^n (1 - rho^{2n}) / (1 - r^{2n})`` on the inner one; ``u_0`` and
    ``v_0`` are ``omega_1(z0)`` and ``omega_2(z0)``.  The terms ``rho^n`` and
    ``(r/rho)^n`` sum to each circle's Poisson kernel, taken node by node; the
    rest of the series is folded onto ``n mod m`` (``fold_sum``), exact for every
    ``m``, over ``tail_truncation``'s window at ``1e-15``.
    """
    r, z0 = domain.inner_radius, domain.base_point
    rho = abs(z0)
    ns = np.arange(1, tail_truncation(domain, z0, 1e-15, 128) + 1)
    r2n, pn, qn = r**(2 * ns), rho**ns, (r / rho)**ns
    du = pn * (r2n - qn**2) / (1.0 - r2n)
    dv = qn * (r2n - pn**2) / (1.0 - r2n)
    c = math.log(rho) / domain.log_gap  # u_0 - 1, and -v_0
    series = 2.0 * np.real(fold_sum(ns, np.stack([du, dv]) * (np.conj(z0) / rho)**ns, m))
    nodes = boundary_nodes(domain, m).reshape(2, m)
    # factored, as rho^2 - r^2 loses digits for a base point near the inner circle
    poisson = np.array([[(1 - rho) * (1 + rho)], [(rho - r) * (rho + r)]]) / np.abs(nodes - z0)**2
    density = (poisson + series + [[c], [-c - 1.0]]) / (2.0 * np.pi * np.array([[1.0], [r]]))
    return density.ravel()


def schottky(domain: AnnulusDomain, m: int) -> np.ndarray:
    """Schottky function ``s_1 = (d omega_1/dn) / (dg/dn)`` at the
    ``boundary_nodes(domain, m)``, the Green pole at the base point.

    The annulus has this one independent Schottky function.
    ``d omega_1/dn = +-1/(rho log(1/r))`` is constant on each circle, and
    ``dg/dn = -2 pi measure_density``.
    """
    L = domain.log_gap
    num = np.repeat([1.0 / L, -1.0 / (domain.inner_radius * L)], m)
    den = -2.0 * np.pi * measure_density(domain, m)
    # dg/dn < 0 on an analytic boundary with an interior pole; guard anyway.
    if not np.min(np.abs(den)) > 1e-14:
        raise ConvergenceError("dg/dn vanished on the boundary")
    return num / den


def conjugate_period(h: HarmonicRepresentation) -> float:
    """Period of the multi-valued harmonic conjugate around the inner circle."""
    return 2.0 * np.pi * h.clog


def analytic_completion(h: HarmonicRepresentation) -> LaurentPolynomial:
    """Single-valued part ``F`` of the analytic completion of ``h``:
    ``Re F + clog * log|z| = h``.

    The mode ``Re[(A_n rho^n + B_n rho^-n) e^{in theta}]`` completes to
    ``A_n z^n + conj(B_n) z^-n``.  The log mode completes to the multi-valued
    ``clog * log z``, which is left to the caller: its period around the inner
    circle is ``conjugate_period(h)``, and ``exp`` of the completion is
    single-valued exactly when ``h.clog`` is an integer.
    """
    n = int(h.ns[-1]) if h.ns.size else 0
    c = np.zeros(2 * n + 1, dtype=complex)
    c[n] = h.c0
    c[n + h.ns] += h.A
    # libm pow per power: numpy's vector power can differ in the last bit
    c[n - h.ns] += np.conj(h.Bhat) * [h.rref**float(k) for k in h.ns]
    return LaurentPolynomial(-n, n, c)
