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

import numpy as np

from .errors import ArgumentError, GeometryError, SolverError
from .geometry import AnnulusDomain, boundary_angles
from .laurent import LaurentPolynomial
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
    grid: PolarGrid
    pole: complex
    min_value: float
    max_value: float
    sign_change_cells: tuple[tuple[int, int], ...]
    operator_residual: float
    refinement_warning: bool | None = None


def _polar_laplacian(rho, h: float, lo: int, T: int):
    """``c_rr, c_r(i), c_tt(i)`` of the five-point polar Laplacian on rows ``lo..R-2``."""
    r_i, htheta = rho[lo:-1], 2.0 * np.pi / T
    return 1.0 / (h * h), 1.0 / (2.0 * h * r_i), 1.0 / (r_i * r_i * htheta * htheta)


def _clamped_apply(u, rho, h: float, lo: int):
    """The clamped operator on interior values ``u`` (rows ``lo..R-2``), matrix-free
    in the dtype of ``u``: the polar Laplacian twice, first with ``u = 0`` on the
    boundary rows, then with the ghost values ``2 u_adjacent / h^2`` there, in place
    on one buffer of rows ``lo-1..R-1`` whose first and last columns repeat the last
    and first angles.  On the disk (``lo = 0``) row -1 is row 0 turned by half a circle.
    """
    T = u.shape[1]
    c_rr, c_r, c_tt = _polar_laplacian(rho, h, lo, T)
    c_r, c_tt = c_r[:, None], c_tt[:, None]
    centre, up, down = -2.0 * c_rr - 2.0 * c_tt, c_rr + c_r, c_rr - c_r
    f = np.zeros((u.shape[0] + 2, T + 2), dtype=u.dtype)
    mid, out, tmp = f[1:-1, 1:-1], np.empty_like(u), np.empty_like(u)
    mid[...] = u
    for ghost in (False, True):
        if ghost:
            mid[...], f[0, 1:-1], f[-1, 1:-1] = out, 2.0 * c_rr * u[0], 2.0 * c_rr * u[-1]
        if lo == 0:
            f[0, 1:-1] = mid[0, (np.arange(T) + T // 2) % T]
        f[:, 0], f[:, -1] = f[:, -2], f[:, 1]
        np.multiply(centre, mid, out=out)
        out += np.multiply(up, f[2:, 1:-1], out=tmp)
        out += np.multiply(down, f[:-2, 1:-1], out=tmp)
        out += np.multiply(np.add(f[1:-1, :-2], f[1:-1, 2:], out=tmp), c_tt, out=tmp)
    return out


def _banded_solver(rho, h: float, lo: int, T: int):
    """Factor the clamped system once and return its solve for interior loads ``b``,
    by a real FFT in angle: mode ``k`` is the pentadiagonal radial system
    ``B_k = A2_k A1_k``.  With ``a_i = c_rr - c_r(i)``, ``e_i = c_rr + c_r(i)`` and
    ``d_ik = -2 c_rr - 4 c_tt(i) sin^2(pi k/T)``, row ``i`` of ``B_k`` is ``a_i a_{i-1},
    a_i (d_{i-1} + d_i), d_i^2 + a_i e_{i-1} + e_i a_{i+1}, e_i (d_i + d_{i+1}),
    e_i e_{i+1}``, with the ghost value ``2/h^2`` for ``a_{i+1}`` on the last row and
    ``e_{i-1}`` on the ring's first.  On the disk ``a_0 = 1/h^2 - 1/(2 h rho_0)`` is
    exactly 0, so the centre flip never enters.  Each mode's bands vanish outside its
    block, so the modes side by side form one banded system: one ``gbtrf``, then one
    ``gbtrs`` per solve (together what ``gbsv`` does, so bit for bit the same).
    """
    n = rho.size - 1 - lo
    c_rr, c_r, c_tt = _polar_laplacian(rho, h, lo, T)
    a, e, g = c_rr - c_r, c_rr + c_r, 2.0 * c_rr
    d = -2.0 * c_rr - 4.0 * c_tt * np.sin(np.pi * np.arange(T // 2 + 1)[:, None] / T)**2
    bands = np.zeros((7, T // 2 + 1, n))  # rows 0-1: room for gbtrf's fill-in
    bands[2, :, 2:] = e[:-2] * e[1:-1]
    bands[3, :, 1:] = e[:-1] * (d[:, :-1] + d[:, 1:])
    bands[4] = d * d + a * np.append(0.0 if lo == 0 else g, e[:-1]) + e * np.append(a[1:], g)
    bands[5, :, :-1] = a[1:] * (d[:, 1:] + d[:, :-1])
    bands[6, :, :-2] = a[2:] * a[1:-1]
    import scipy.linalg.lapack
    import scipy.sparse.linalg  # noqa: F401  (unused; perfbench/tracer.py looks it up in sys.modules)
    lu, piv, info = scipy.linalg.lapack.dgbtrf(bands.reshape(7, -1), 2, 2)
    if info != 0:
        raise SolverError(f"biharmonic radial system is singular (gbtrf info {info})")

    def solve(b):
        bh = np.fft.rfft(b, axis=1).T.ravel()
        x, _ = scipy.linalg.lapack.dgbtrs(lu, 2, 2, np.column_stack([bh.real, bh.imag]), piv)
        return np.fft.irfft((x @ [1.0, 1j]).reshape(-1, n).T, n=T, axis=1)
    return solve


def biharmonic_green(domain: AnnulusDomain | None, pole: complex,
                     n_rho: int = 64, n_theta: int = 64,
                     check_refinement: bool = False) -> BiharmonicSolution:
    """Clamped biharmonic Green's function by squared polar finite differences.

    ``domain=None`` selects the unit disk (offset radial grid through the
    center, no inner boundary).  Both clamped conditions enter through the
    two applications of the Laplacian (``_clamped_apply``): ``u = 0`` on the
    boundary rows, and there the intermediate field takes the mirrored ghost
    value ``2 u_adjacent / h^2`` of the zero normal derivative.  The point
    load, scaled by the inverse polar cell area, is solved mode by mode
    (``_banded_solver``, factored once) and refined once against the operator in
    ``longdouble``.
    """
    if n_rho < 32 or n_theta < 32:
        raise ArgumentError("grid resolutions must be at least 32")
    if n_theta % 2:
        raise ArgumentError("need an even number of angular nodes")
    R, T = n_rho, n_theta
    htheta = 2.0 * np.pi / T
    if domain is None:
        h = 2.0 / (2 * R - 1)
        rho = (np.arange(R) + 0.5) * h
        lo, edges = 0, [R - 1]
    else:
        r = domain.inner_radius
        h = (1.0 - r) / (R - 1)
        rho = r + np.arange(R) * h
        lo, edges = 1, [0, R - 1]
    pole = complex(pole)
    rp, tp = abs(pole), float(np.angle(pole)) % (2 * np.pi)
    if min(abs(rp - rho[b]) for b in edges) < 2.0 * h:
        raise GeometryError("pole must sit at least two grid cells from the boundary")

    i_star = lo + int(np.argmin(np.abs(rho[lo:R - 1] - rp)))
    j_star = int(round(tp / htheta)) % T
    b = np.zeros((R - 1 - lo, T))
    b[i_star - lo, j_star] = 1.0 / (rho[i_star] * h * htheta)
    solve = _banded_solver(rho, h, lo, T)
    u = solve(b)
    refine = b - _clamped_apply(u.astype(np.longdouble), rho, h, lo)  # residual in longdouble
    u = u + solve(refine.astype(float))
    if not np.all(np.isfinite(u)):
        raise SolverError("biharmonic system is numerically singular")
    residual = float(np.max(np.abs(_clamped_apply(u, rho, h, lo) - b)) / np.max(np.abs(b)))

    values = np.zeros((R, T))
    values[lo:R - 1] = u
    vmax = float(values.max())
    vmin = float(values.min())
    floor = -1e-6 * max(vmax, 0.0)
    cells = tuple(zip(*(k.tolist() for k in np.nonzero(values < floor))))
    warning = None
    if check_refinement:
        fine = biharmonic_green(domain, pole, 2 * n_rho, 2 * n_theta,
                                check_refinement=False)
        denom = max(abs(fine.min_value), abs(vmin), 1e-300)
        warning = abs(fine.min_value - vmin) / denom > 0.10
    grid = PolarGrid(radii=rho, angles=boundary_angles(T), values=values)
    return BiharmonicSolution(grid=grid, pole=pole, min_value=vmin, max_value=vmax,
                              sign_change_cells=cells, operator_residual=residual,
                              refinement_warning=warning)
