"""Harmonic machinery on the annulus via Fourier matching.

A harmonic function on the ring splits into angular modes; each nonzero mode
``n`` is a combination ``Re[(A_n rho^n + B_n rho^-n) e^{i n theta}]`` and the
zero mode is ``c0 + clog * log(rho)``.  Matching Fourier data on the two
circles gives one uniform Dirichlet solver that realizes everything built
here: harmonic measures, Green's functions, the smooth corrections of singular
atoms, Schottky functions, and analytic completions whose one multi-valued term,
``clog * log z``, carries the whole conjugate period.

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

    def radial_derivative_on_circle(self, rho: float, m: int) -> np.ndarray:
        """d/d(rho) at the ``m`` equispaced points ``rho e^{2 pi i k/m}``, by one FFT.

        Mode ``n`` contributes ``Re[c_n e^{i n theta}]`` with
        ``c_n = (n/rho)(A_n rho^n - Bhat_n (rref/rho)^n)``.  At the nodes
        ``e^{i n theta_k}`` depends on ``n mod m`` only, so folding ``c_n``
        onto ``n mod m`` is exact for every ``m`` (``fold_sum``).
        """
        out = np.full(m, self.clog / rho)
        if self.ns.size:
            ns = self.ns
            c = (ns / rho) * (self.A * rho**ns - self.Bhat * (self.rref / rho)**ns)
            out += np.real(fold_sum(ns, c, m))
        return out


@dataclass(frozen=True)
class GreenFunction:
    """``g(z) = -log|z - pole| + corrector(z)``, vanishing on both circles."""

    domain: AnnulusDomain
    pole: complex
    corrector: HarmonicRepresentation
    truncation: int

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = -np.log(np.abs(z - self.pole)) + self.corrector(z)
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


def _log_kernel_data(domain: AnnulusDomain, pole: complex, N: int):
    """Fourier coefficients of ``log|zeta - pole|`` on the two circles.

    Outer circle: ``log|e^{i t} - a| = -sum_k Re[(a e^{-i t})^k] / k``.
    Inner circle (valid since ``|pole| > r``):
    ``log|r e^{i t} - a| = log|a| - sum_k Re[(r e^{i t}/a)^k] / k``.
    """
    r = domain.inner_radius
    a = complex(pole)
    ks = np.arange(1, N + 1, dtype=float)
    outer_pos = -np.conj(a)**ks / (2.0 * ks)
    inner_pos = -(r / a)**ks / (2.0 * ks)
    outer = np.concatenate([np.conj(outer_pos[::-1]), [0.0], outer_pos])
    inner = np.concatenate([np.conj(inner_pos[::-1]), [math.log(abs(a))], inner_pos])
    return outer, inner


TRUNCATION_CAP = 4096


def tail_truncation(domain: AnnulusDomain, pole: complex, tol: float, floor: int) -> int:
    """Smallest ``N >= floor`` with ``max(|pole|, r/|pole|)^N <= tol``.

    The Fourier data of ``log|zeta - pole|`` decays like ``|pole|^n`` on the
    outer circle and ``(r/|pole|)^n`` on the inner one, so this bounds the
    boundary residual of a Green corrector truncated at ``N``.  An ``N`` past
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


def green(domain: AnnulusDomain, pole: complex, N: int | None = None) -> GreenFunction:
    """Green's function of the annulus with the given interior pole.

    The corrector solves the Dirichlet problem with data ``log|zeta - pole|``,
    so the boundary values vanish up to the series truncation error, which
    decays like ``|pole|^N`` (outer data) and ``(r/|pole|)^N`` (inner data).
    ``N=None`` takes the truncation from ``tail_truncation`` at ``1e-15`` with
    a floor of 128: a fixed 128 left boundary residuals of order ``1e-4`` and
    negative harmonic-measure weights for poles near a circle (r=0.7,
    |a|=0.955; r=0.9, a=0.95).
    """
    if N is not None and N < 8:
        raise ArgumentError(f"Green truncation must be at least 8, got {N}")
    r = domain.inner_radius
    a = complex(pole)
    if abs(a) <= r + 1e-9 or abs(a) >= 1.0 - 1e-9:
        raise GeometryError(f"pole {pole} is on or within 1e-9 of the boundary")
    if N is None:
        N = tail_truncation(domain, a, 1e-15, 128)
    outer, inner = _log_kernel_data(domain, a, N)
    corrector = solve_dirichlet(domain, outer, inner, N)
    return GreenFunction(domain=domain, pole=a, corrector=corrector, truncation=N)


def green_boundary_flux(domain: AnnulusDomain, m: int) -> np.ndarray:
    """Outward ``dg/dn`` of Green's function with pole at the base point, at
    the ``boundary_nodes(domain, m)``: ``m`` equispaced on the unit circle,
    then ``m`` on the inner one.

    The ``-log|z - a|`` term is taken node by node and the corrector by one
    FFT per circle, so a long truncation costs little.
    """
    g = green(domain, domain.base_point)
    nodes = boundary_nodes(domain, m).reshape(2, m)
    unit = nodes[0]
    flux = []
    for z, rho, sign in ((unit, 1.0, 1.0), (nodes[1], domain.inner_radius, -1.0)):
        diff = z - g.pole
        sing = -np.real(unit * np.conj(diff)) / np.abs(diff)**2
        flux.append(sign * (sing + g.corrector.radial_derivative_on_circle(rho, m)))
    return np.concatenate(flux)


def measure_density(domain: AnnulusDomain, m: int) -> np.ndarray:
    """Density of harmonic measure at ``domain.base_point`` w.r.t. arclength,
    ``-(1/2 pi) dg/dn``, at the ``boundary_nodes(domain, m)``."""
    return -green_boundary_flux(domain, m) / (2.0 * np.pi)


def schottky(domain: AnnulusDomain, m: int) -> np.ndarray:
    """Schottky function ``s_1 = (d omega_1/dn) / (dg/dn)`` at the
    ``boundary_nodes(domain, m)``, the Green pole at the base point.

    The annulus has this one independent Schottky function.
    ``d omega_1/dn = +-1/(rho log(1/r))`` is constant on each circle.
    """
    L = domain.log_gap
    num = np.repeat([1.0 / L, -1.0 / (domain.inner_radius * L)], m)
    den = green_boundary_flux(domain, m)
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
