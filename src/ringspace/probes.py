"""Numerical probes: the harmonic reproducing kernel, the decomposition of
``|G|^2`` against it, and the clamped biharmonic Green's function.

The harmonic kernel is assembled mode by mode.  Angular modes decouple in
``L^2(dA)`` on the ring, but within mode ``n`` the growing and decaying
radial profiles ``rho^n`` and ``rho^-n`` are *not* orthogonal (their cross
moment is half the ring area), so each mode needs a genuine 2x2 Gram
inversion; the zero mode couples ``1`` and ``log rho`` the same way.  The
resulting kernel reproduces every square-integrable harmonic function,
including the log mode that is not the real part of a single-valued analytic
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, GeometryError, SolverError
from .geometry import AnnulusDomain, boundary_angles
from .laurent import fold_sum
from .spaces import area_quadrature, bergman_tag, log_monomial_norms, ring_values

_DEGREE = 8     # decomposition tests: Re and Im of z^k for 0 < |k| <= _DEGREE
_N_KERNEL = 64  # angular degree of the harmonic kernel H(., z0) in the decomposition


def log_radial_moment(r: float) -> float:
    """``2 pi * integral_r^1 rho log(rho) d rho`` (closed form)."""
    def antiderivative(x):
        return 0.5 * x * x * math.log(x) - 0.25 * x * x
    return 2.0 * math.pi * (antiderivative(1.0) - antiderivative(r))


def _log_square_moment(r: float) -> float:
    """``2 * integral_r^1 rho log^2(rho) d rho`` (normalized-area pairing of log with log)."""
    def antiderivative(x):
        lx = math.log(x)
        return 0.5 * x * x * lx * lx - 0.5 * x * x * lx + 0.25 * x * x
    return 2.0 * (antiderivative(1.0) - antiderivative(r))


@dataclass
class HarmonicKernel:
    """Reproducing kernel ``H(z, w)`` of real harmonic functions in ``L^2(dA)`` on
    the ring, to angular degree ``N``; called, it is the section ``z -> H(z, base)``:
    ``integral H(., base) u dA = u(base)`` for harmonic ``u`` of angular degree up
    to ``N``, including ``log|z|``."""

    domain: AnnulusDomain
    base: complex
    N: int

    def __post_init__(self):
        if not self.domain.contains(self.base):
            raise GeometryError(f"kernel base {self.base} must be interior")
        self.base = complex(self.base)
        r = self.domain.inner_radius
        V = 1.0 - r * r
        c01 = log_radial_moment(r) / math.pi  # <1, log rho> under dA
        q = _log_square_moment(r)
        self._M0_inv = np.linalg.inv(np.array([[V, c01], [c01, q]]))
        log_norms = log_monomial_norms(self.domain, bergman_tag(), self.N) - math.log(2.0)
        self._log_a = log_norms[self.N + 1:]     # n = 1..N
        self._log_c = log_norms[:self.N][::-1]   # n = -1..-N
        # beta_n = cross moment / sqrt(a_n c_n); cross moment is V/2 for every mode.
        self._beta = (V / 2.0) * np.exp(-0.5 * (self._log_a + self._log_c))
        self._det = 1.0 - self._beta**2

    def radial_parts(self, rho, w: complex):
        """``H(z, w) = const + sum_n quad_n cos(n (arg z - arg w))`` at ``|z| = rho``:
        ``const`` (log and constant modes) and ``quad`` of shape ``(rho.size, N)``,
        from the scaled radial profiles ``x = rho^n/sqrt(a_n)``, ``y = rho^-n/sqrt(c_n)``."""
        ns = np.arange(1, self.N + 1, dtype=float)
        lr = np.log(np.append(np.ravel(rho), abs(w)))[:, None]  # last row: the base
        x = np.exp(ns[None, :] * lr - 0.5 * self._log_a[None, :])
        y = np.exp(-ns[None, :] * lr - 0.5 * self._log_c[None, :])
        c = self._M0_inv @ np.array([1.0, lr[-1, 0]])
        xz, yz, xw, yw = x[:-1], y[:-1], x[-1], y[-1]
        return (c[0] + c[1] * lr[:-1, 0],
                (xz * xw - self._beta * (xz * yw + yz * xw) + yz * yw) / self._det)

    def pair(self, z, w):
        """H(z, w), vectorized over ``z`` for scalar ``w``."""
        z = np.asarray(z, dtype=complex)
        w = complex(w)
        const, quad = self.radial_parts(np.abs(z), w)
        ns = np.arange(1, self.N + 1, dtype=float)
        cosd = np.cos(ns[None, :] * (np.angle(z.ravel())[:, None] - np.angle(w)))
        out = (const + (cosd * quad).sum(axis=1)).reshape(z.shape)
        return out if z.shape else float(out)

    def __call__(self, z):
        return self.pair(z, self.base)

    def on_rings(self, radii, m: int) -> np.ndarray:
        """Values of the section at ``radii[i] * e^{2 pi i k/m}``, shape
        ``(len(radii), m)``: the cosine series of every ring as one ``fold_sum``."""
        const, quad = self.radial_parts(radii, self.base)
        ns = np.arange(1, self.N + 1)
        return const[:, None] + fold_sum(ns, quad * np.exp(-1j * ns * np.angle(self.base)), m).real


def _defect_values(pts, w):
    """``nu_1 = log|z| - c0`` at the nodes of an area rule, and ``c0``: the rule's
    mean of ``log|z|``, so that ``nu_1`` pairs to zero with constants."""
    log_abs = np.log(np.abs(pts))
    c0 = float(np.sum(w * log_abs) / np.sum(w))
    return log_abs - c0, c0


def _harmonic_pairings(f, pts, w, m: int) -> np.ndarray:
    """``f`` (values at the nodes of the area rule ``(pts, w)``) paired under ``dA``
    with 1, ``Re z^k``, ``Im z^k`` (k = 1, -1, ..., 8, -8) and ``log|z|``.  On a ring
    of radius rho, ``sum w f z^k = rho^k W[k mod m]``, ``W = m * ifft(w f)`` there:
    exact for every ``m``."""
    W = np.fft.ifft(np.reshape(w * f, (-1, m)), axis=1, norm="forward")  # m * ifft
    rho = np.abs(pts[::m])
    ks = np.outer(np.arange(1, _DEGREE + 1), [1, -1]).ravel()
    moments = np.sum(rho[:, None]**ks * W[:, ks % m], axis=0)  # .view: Re, Im interleaved
    return np.array([W[:, 0].real.sum(), *moments.view(float), W[:, 0].real @ np.log(rho)])


def bergman_decomposition_residual(G, domain: AnnulusDomain, z0: complex,
                                   m: int = 512) -> tuple[float, float, float]:
    """``(lambda_1, residual, c0)``: fit ``<|G|^2 - H(., z0), u> ~ lambda_1 <nu_1, u>`` over
    the tests of ``_harmonic_pairings``, all on one area rule, ``G`` taken there to the
    unit-norm gauge ``|G|^2 / sum(w |G|^2)``.  Only ``log|z|`` pairs with ``nu_1``; the
    residual is the largest unexplained pairing, which vanishes up to truncation
    because the rest of ``|G|^2 - H`` annihilates harmonics.  ``c0`` is the rule's
    mean of ``log|z|`` (``_defect_values``)."""
    pts, w = area_quadrature(domain, m)
    g2 = np.abs(ring_values(G, pts, m))**2
    H = ring_values(HarmonicKernel(domain, z0, _N_KERNEL), pts, m).real
    nu, c0 = _defect_values(pts, w)
    ps, qs = (_harmonic_pairings(f, pts, w, m) for f in (g2 / np.sum(w * g2) - H, nu))
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
    in the dtype of ``u``: the polar Laplacian, angular links by ``np.roll``, first
    with ``u = 0`` on the boundary rows, then with the ghost values ``2 u_adjacent
    / h^2`` there.  On the disk (``lo = 0``) row -1 is row 0 turned by half a circle.
    """
    T = u.shape[1]
    c_rr, c_r, c_tt = _polar_laplacian(rho, h, lo, T)
    c_r, c_tt = c_r[:, None], c_tt[:, None]

    def lap(f):  # rows lo-1..R-1 in, rows lo..R-2 out
        mid = f[1:-1]
        return ((-2.0 * c_rr - 2.0 * c_tt) * mid + (c_rr + c_r) * f[2:] + (c_rr - c_r) * f[:-2]
                + c_tt * (np.roll(mid, 1, axis=1) + np.roll(mid, -1, axis=1)))

    def below(f, ring_row):
        return np.roll(f[:1], T // 2, axis=1) if lo == 0 else ring_row
    zero = np.zeros_like(u[:1])
    v = lap(np.concatenate([below(u, zero), u, zero]))
    return lap(np.concatenate([below(v, 2.0 * c_rr * u[:1]), v, 2.0 * c_rr * u[-1:]]))


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
    cells = tuple(map(tuple, np.argwhere(values < floor).tolist()))
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
