"""Numerical probes: the decomposition of ``|G|^2`` against the harmonic
reproducing kernel, and the clamped biharmonic Green's function.

The harmonic reproducing kernel ``H(., z0)`` of ``L^2(dA)`` on the ring
reproduces every square-integrable harmonic function ``u``, the log mode
``log|z|`` included (it is not the real part of a single-valued analytic
function): ``<H(., z0), u> = u(z0)``.  The decomposition pairs ``H`` with
harmonic tests only, so it takes those pairings in closed form, the tests'
values at ``z0``, and never evaluates ``H``.  A mode-by-mode ``H`` is kept in
``tests/oracles.py`` as the independent check of that identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, GeometryError, SolverError
from .geometry import AnnulusDomain, boundary_angles
from .harmonic import tail_truncation
from .laurent import LaurentPolynomial, fold_sum
from .spaces import radial_rule

_EXPONENTS = np.outer(np.arange(1, 9), [1, -1]).ravel()  # tests Re, Im z^k: k = 1, -1, ..., 8, -8


def log_radial_moment(r: float) -> float:
    """``2 pi * integral_r^1 rho log(rho) d rho`` (closed form)."""
    def antiderivative(x):
        return 0.5 * x * x * math.log(x) - 0.25 * x * x
    return 2.0 * math.pi * (antiderivative(1.0) - antiderivative(r))


def _defect_pairings(rho, mass):
    """``nu_1 = log|z| - c0`` on rings ``rho`` of area ``mass`` paired with the tests of
    ``_reproduced_values``, and ``c0``, the mean of ``log|z|``: radial, so 0 on ``z^k``."""
    log_rho = np.log(rho)
    c0 = float(mass @ log_rho / np.sum(mass))
    qs = np.zeros(2 * _EXPONENTS.size + 2)
    qs[0], qs[-1] = mass @ (log_rho - c0), (mass * (log_rho - c0)) @ log_rho
    return qs, c0


def _gauge_pairings(G: LaurentPolynomial, rho, mass) -> np.ndarray:
    """``|G|^2 / <|G|^2, 1>`` paired under ``dA`` with the tests of ``_reproduced_values``
    from ``G``'s coefficients: on a ring, ``|G|^2 z^k`` has angular mean ``rho^k s_k``,
    ``s_k = sum_n a_n conj(a_{n+k})``, ``s_{-k} = conj(s_k)``, with ``a_n = c_n rho^n``
    from ``ring_terms`` (``e^top`` times terms of modulus at most 1).  A trapezoid in
    angle sums the same exactly only on more than ``2N + 8`` angles."""
    s, two_top = np.zeros((rho.size, 9), dtype=complex), np.zeros(rho.size)
    for k, ns, top, terms in G.ring_terms(rho):
        a = np.zeros((len(terms), ns[-1] - ns[0] + 9), dtype=complex)  # 8 zeros past the top
        a[:, ns - ns[0]] = terms
        lagged = np.lib.stride_tricks.sliding_window_view(a.conj(), a.shape[1] - 8, axis=1)
        s[k:k + len(a)] = np.einsum("rn,rkn->rk", a[:, :-8], lagged)
        two_top[k:k + len(a)] = 2.0 * top[:, 0]
    weight = mass * np.exp(two_top - two_top.max())  # the rings' e^{2 top}, relative
    sk = np.where(_EXPONENTS > 0, s[:, np.abs(_EXPONENTS)], s[:, np.abs(_EXPONENTS)].conj())
    moments = (weight[:, None] * rho[:, None]**_EXPONENTS * sk).sum(axis=0)  # Re, Im by .view
    g = weight * s[:, 0].real
    return np.array([g.sum(), *moments.view(float), g @ np.log(rho)]) / g.sum()


def _reproduced_values(z0: complex) -> np.ndarray:
    """The tests 1, ``Re z^k``, ``Im z^k`` (k = 1, -1, ..., 8, -8) and ``log|z|`` at
    ``z0``: what each pairs to with ``H(., z0)``."""
    return np.array([1.0, *(complex(z0)**_EXPONENTS).view(float), math.log(abs(z0))])


def bergman_decomposition_residual(G: LaurentPolynomial, domain: AnnulusDomain,
                                   z0: complex) -> tuple[float, float, float]:
    """``(lambda_1, residual, c0)``: fit ``<|G|^2 - H(., z0), u> ~ lambda_1 <nu_1, u>`` over
    the tests ``u`` of ``_reproduced_values`` on the area rule's radii, ``|G|^2`` from its
    coefficients (``_gauge_pairings``), ``<H(., z0), u> = u(z0)`` in closed form and
    ``nu_1`` by ``_defect_pairings``.  The residual is the largest unexplained pairing,
    which vanishes up to truncation because the rest of ``|G|^2 - H`` annihilates
    harmonics."""
    if not isinstance(G, LaurentPolynomial) or not G.coeffs.any():
        raise ArgumentError(f"decomposition needs a nonzero LaurentPolynomial, got {G!r}")
    if not domain.contains(z0):
        raise GeometryError(f"decomposition base {z0} must be interior")
    rho, wr = radial_rule(domain)
    mass = 2.0 * wr * rho  # each ring's share of dA
    qs, c0 = _defect_pairings(rho, mass)
    ps = _gauge_pairings(G, rho, mass) - _reproduced_values(z0)
    lam1 = float(ps @ qs / (qs @ qs))
    return lam1, float(np.max(np.abs(ps - lam1 * qs))), c0


@dataclass(frozen=True)
class PolarGrid:
    radii: np.ndarray
    angles: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.radii.size, self.angles.size):
            raise ArgumentError("grid value matrix does not match the axes")


@dataclass(frozen=True)
class BiharmonicSolution:
    """``biharmonic_green``'s grid and summary.  The sign-change cells are the grid cells
    ``(i, j)`` below ``-1e-6 max_value``, row-major; counting them forms no list."""

    grid: PolarGrid
    pole: complex
    min_value: float
    max_value: float
    clamped_residual: float

    def _below_floor(self) -> np.ndarray:
        return self.grid.values < -1e-6 * max(self.max_value, 0.0)

    @property
    def sign_change_count(self) -> int:
        return int(np.count_nonzero(self._below_floor()))

    @cached_property
    def sign_change_cells(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*(k.tolist() for k in np.nonzero(self._below_floor()))))


def _distance(rho, s: float, t):
    """``d = |rho e^{it} - s|^2 = (rho - s)^2 + 4 rho s sin^2(t/2)`` on the grid ``rho x t``,
    free of cancellation near ``s``, and its ``rho``-derivative."""
    rho, sin2 = rho[:, None], np.sin(0.5 * t)**2
    return (rho - s)**2 + 4.0 * rho * s * sin2, 2.0 * (rho - s + 2.0 * s * sin2)


def _log_product_modes(rho, s: float, N: int):
    """Cosine coefficients ``0..N`` in ``t`` of ``|rho e^{it} - s|^2 log|rho e^{it} - s|`` on
    the circles ``rho`` (none through ``s``), and their ``rho``-derivatives, ``(rho.size, N+1)``
    each.  ``log|rho e^{it} - s|`` has ``a_0 = log max(rho, s)`` and ``a_k = -q^k/k``, ``q =
    min/max`` (as in ``harmonic._log_kernel_data``); the factor ``rho^2 + s^2 - 2 rho s cos t``
    makes ``b_k = (rho^2 + s^2) a_k - rho s (a_{k-1} + a_{k+1})``, ``2 a_0`` for ``a_{k-1}``
    at ``k = 1``, and a term-by-term derivative."""
    rho, k = rho[:, None], np.arange(N + 2)
    outside = rho > s
    a = -np.where(outside, s / rho, rho / s)**k / np.maximum(k, 1)
    da = np.where(outside, -k, k) * a / rho
    a[:, 0], da[:, 0] = np.log(np.maximum(rho, s))[:, 0], np.where(outside, 1.0 / rho, 0.0)[:, 0]

    def pair(c):  # a_{k-1} + a_{k+1}
        return np.hstack([np.zeros_like(c[:, :1]), 2.0 * c[:, :1], c[:, 1:N]]) + c[:, 1:]
    m2 = rho * rho + s * s
    b = m2 * a[:, :-1] - rho * s * pair(a)
    db = 2.0 * rho * a[:, :-1] + m2 * da[:, :-1] - s * pair(a) - rho * s * pair(da)
    return b, db


def _michell(rho, N: int, r: float, slope: bool = False) -> list:
    """Michell's four radial solutions of the biharmonic equation's angular modes ``0..N``
    at ``rho``, ``(rho.size, N+1)`` each, or with ``slope`` their ``rho``-derivatives:
    ``rho^k, (r/rho)^k, rho^(k+2), rho^2 (r/rho)^k``, scaled so that none exceeds 1 on the
    ring, with ``log rho`` where two coincide (``1, log rho, rho^2, rho^2 log rho`` at
    ``k = 0``, ``rho log rho`` fourth at ``k = 1``)."""
    rho, k = rho[:, None], np.arange(N + 1.0)
    L = np.log(rho)
    P, Q = np.exp(k * L), np.exp(k * (math.log(r) - L))  # off by ulps only where tiny
    if slope:
        phi = [k * P / rho, -k * Q / rho, (k + 2.0) * rho * P, (2.0 - k) * rho * Q]
        phi[1][:, :1], phi[3][:, :2] = 1.0 / rho, np.hstack([rho * (2.0 * L + 1.0), L + 1.0])
        return phi
    Q[:, :1] = L
    phi = [P, Q, rho * rho * P, rho * rho * Q]
    phi[3][:, 1:2] = rho * L
    return phi


def biharmonic_green(domain: AnnulusDomain | None, pole: complex,
                     n_rho: int = 64, n_theta: int = 64) -> BiharmonicSolution:
    """The clamped plate's Green function, ``Delta^2 G = delta_pole`` with ``G = dG/drho =
    0`` on the boundary, sampled on an ``n_rho x n_theta`` polar grid.

    ``domain=None`` selects the unit disk (radii offset by half a cell, so none is 0) and
    Boggio's closed form ``[|z-w|^2 log(|z-w|^2 / |1 - conj(w) z|^2) + (1-|z|^2)(1-|w|^2)] /
    (16 pi)``, taken as ``d (x - log1p(x)) / (16 pi)``, ``d = |z-w|^2``, ``x = (1-|z|^2)
    (1-|w|^2) / d``, so it is never negative.  On the ring, ``G = |z-w|^2 log|z-w| / (8 pi)
    + v``, and ``v`` is biharmonic with the opposite data on both circles.  In the pole's
    frame that data is a cosine series in ``theta - arg w`` (``_log_product_modes``), so
    each angular mode of ``v`` is one 4 x 4 matching system in Michell's solutions
    (``_michell``), all solved at once.  The modes run to ``tail_truncation`` at ``1e-17``,
    the data's decay ``max(|w|, r/|w|)^k``, and fold onto the output angles a few rows at a
    time.  ``clamped_residual`` is the largest ``|G|`` or ``|dG/drho|`` on the circles,
    relative to ``max_value``: on the ring from the modes, on the disk from Boggio's
    boundary row.  The boundary rows hold 0.
    """
    if n_rho < 32 or n_theta < 32:
        raise ArgumentError("grid resolutions must be at least 32")
    if n_theta % 2:
        raise ArgumentError("need an even number of angular nodes")
    import scipy.linalg  # noqa: F401  (unused; perfbench/tracer.py looks both up in
    import scipy.sparse.linalg  # noqa: F401  sys.modules)
    R, T = n_rho, n_theta
    if domain is None:
        h = 2.0 / (2 * R - 1)
        rho, edge = (np.arange(R) + 0.5) * h, -np.inf
    else:
        r = domain.inner_radius
        h = (1.0 - r) / (R - 1)
        rho = r + np.arange(R) * h
        edge = rho[0]
    pole = complex(pole)
    rp = abs(pole)
    if not min(rp - edge, rho[-1] - rp) >= 2.0 * h:
        raise GeometryError("pole must sit at least two grid cells from the boundary")

    t = boundary_angles(T) - np.angle(pole)  # the output angles in the pole's frame
    if domain is None:
        d, dd = _distance(rho, rp, t)
        p, dp = (1.0 - rho * rho)[:, None] * (1.0 - rp * rp), -2.0 * rho[-1] * (1.0 - rp * rp)
        x = p / np.where(d > 0.0, d, 1.0)
        values = np.where(d > 0.0, d * (x - np.log1p(x)), p) / (16.0 * np.pi)
        x, d, dd = x[-1], d[-1], dd[-1]  # the boundary row: |G| and dG/drho there
        edges = np.array([values[-1], (dd * (x - np.log1p(x)) + x / (1.0 + x) * (dp - x * dd))
                          / (16.0 * np.pi)])
        values[-1] = 0.0
    else:
        N = tail_truncation(domain, pole, 1e-17, 8)
        circles = np.array([1.0, r])
        b, db = _log_product_modes(circles, rp, N)
        phi, dphi = (np.stack(_michell(circles, N, r, slope), axis=-1) for slope in (False, True))
        matching = np.stack([phi[0], dphi[0], phi[1], dphi[1]], axis=1)
        data = np.stack([b[0], db[0], b[1], db[1]], axis=1) / (-8.0 * np.pi)
        try:
            c = np.linalg.solve(matching, data[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"a biharmonic mode's matching system is singular: {exc}")
        if not np.all(np.isfinite(c)):
            raise SolverError("biharmonic mode coefficients are not finite")
        k = np.arange(N + 1)
        turn = np.exp(-1j * k * np.angle(pole))
        values = np.zeros((R, T))
        # mode k of v decays like max(|w| rho, r^2 / (|w| rho))^k inside, so rows away from
        # the circles need fewer modes: rows by that count, a few at a time (work arrays
        # near 2^13 entries)
        decay = np.maximum(rp * rho, r * r / (rp * rho))
        need = np.clip(np.ceil(math.log(1e-17) / np.log(decay)), 1, N).astype(int)
        order, i = 1 + np.argsort(need[1:-1], kind="stable"), 0
        while i < order.size:
            entries = (need[order[i:]] + 1) * np.arange(1, order.size - i + 1)
            rows = order[i:i + max(1, np.count_nonzero(entries <= 2**13))]
            n = need[rows[-1]] + 1
            V = sum(cj * f for cj, f in zip(c[:n].T, _michell(rho[rows], n - 1, r)))
            values[rows] = fold_sum(k[:n], V * turn[:n], T).real
            i += rows.size
        d = _distance(rho[1:-1], rp, t)[0]
        values[1:-1] += d * np.log(d, out=np.zeros_like(d), where=d > 0.0) / (16.0 * np.pi)
        on_circles = np.stack([np.einsum("ckj,kj->ck", f, c) for f in (phi, dphi)], axis=1)
        d, dd = _distance(circles, rp, t)
        log = np.log(d)
        edges = fold_sum(k, on_circles * turn, T).real  # (circle, value/slope, angle)
        edges += np.stack([d * log, dd * (log + 1.0)], axis=1) / (16.0 * np.pi)
    vmax = float(values.max())
    grid = PolarGrid(radii=rho, angles=boundary_angles(T), values=values)
    return BiharmonicSolution(grid=grid, pole=pole, min_value=float(values.min()), max_value=vmax,
                              clamped_residual=float(np.max(np.abs(edges)) / vmax))
