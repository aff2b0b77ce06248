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
import scipy.sparse
import scipy.sparse.linalg

from .errors import ArgumentError, GeometryError, SolverError
from .geometry import AnnulusDomain, boundary_angles
from .spaces import area_quadrature


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


def _log_bergman_norm_sq(r: float, n: int) -> float:
    """log of ``||z^n||^2`` in normalized area, stable for any window."""
    if n == -1:
        return math.log(2.0 * math.log(1.0 / r))
    if n >= 0:
        return math.log1p(-r**(2 * n + 2)) - math.log(n + 1)
    k = -n  # n <= -2: (r^-(2k-2) - 1)/(k - 1)
    return (-(2 * k - 2) * math.log(r) + math.log1p(-r**(2 * k - 2))
            - math.log(k - 1))


@dataclass
class HarmonicKernel:
    """Reproducing kernel of real harmonic functions in ``L^2(dA)`` on the ring."""

    domain: AnnulusDomain
    N: int

    def __post_init__(self):
        r = self.domain.inner_radius
        V = 1.0 - r * r
        c01 = log_radial_moment(r) / math.pi  # <1, log rho> under dA
        q = _log_square_moment(r)
        self._M0_inv = np.linalg.inv(np.array([[V, c01], [c01, q]]))
        ns = np.arange(1, self.N + 1)
        self._log_a = np.array([_log_bergman_norm_sq(r, n) - math.log(2.0) for n in ns])
        self._log_c = np.array([_log_bergman_norm_sq(r, -n) - math.log(2.0) for n in ns])
        # beta_n = cross moment / sqrt(a_n c_n); cross moment is V/2 for every mode.
        self._beta = (V / 2.0) * np.exp(-0.5 * (self._log_a + self._log_c))
        self._det = 1.0 - self._beta**2

    def _profiles(self, z):
        """Scaled radial profiles x = rho^n/sqrt(a_n), y = rho^-n/sqrt(c_n)."""
        rho = np.abs(np.asarray(z, dtype=complex)).ravel()
        ns = np.arange(1, self.N + 1, dtype=float)
        lr = np.log(rho)[:, None]
        x = np.exp(ns[None, :] * lr - 0.5 * self._log_a[None, :])
        y = np.exp(-ns[None, :] * lr - 0.5 * self._log_c[None, :])
        return x, y

    def pair(self, z, w):
        """H(z, w), vectorized over ``z`` for scalar ``w``."""
        z = np.asarray(z, dtype=complex)
        w = complex(w)
        shape = z.shape
        zf = z.ravel()
        v0z = np.stack([np.ones(zf.size), np.log(np.abs(zf))])
        v0w = np.array([1.0, math.log(abs(w))])
        out = v0z.T @ (self._M0_inv @ v0w)
        xz, yz = self._profiles(zf)
        xw, yw = self._profiles(np.array([w]))
        ns = np.arange(1, self.N + 1, dtype=float)
        dtheta = np.angle(zf)[:, None] - np.angle(w)
        cosd = np.cos(ns[None, :] * dtheta)
        quad = (xz * xw - self._beta * (xz * yw + yz * xw) + yz * yw) / self._det
        out = out + (cosd * quad).sum(axis=1)
        out = out.reshape(shape)
        return out if shape else float(out)


@dataclass
class HarmonicKernelSection:
    """Evaluator ``z -> H(z, base)``."""

    kernel: HarmonicKernel
    base: complex

    def __call__(self, z):
        return self.kernel.pair(z, self.base)


def harmonic_l2_kernel(domain: AnnulusDomain, z0: complex, N: int = 64) -> HarmonicKernelSection:
    """Section of the harmonic reproducing kernel at ``z0``.

    ``integral H(., z0) u dA = u(z0)`` for harmonic ``u`` of angular degree up
    to ``N``, including ``log|z|``.
    """
    if not domain.contains(z0):
        raise GeometryError(f"kernel base {z0} must be interior")
    return HarmonicKernelSection(kernel=HarmonicKernel(domain, N), base=complex(z0))


def harmonic_test_family(domain: AnnulusDomain, degree: int = 8):
    """Real harmonic test functions: 1, Re/Im z^(+-n) up to ``degree``, log|z|.

    Returned as (label, evaluator, value-at) pairs where the evaluator acts on
    complex arrays.
    """
    family = [("1", lambda z: np.ones(np.shape(z)))]
    for n in range(1, degree + 1):
        for sign in (n, -n):
            family.append((f"Re z^{sign}",
                           lambda z, k=sign: np.real(np.asarray(z, dtype=complex)**k)))
            family.append((f"Im z^{sign}",
                           lambda z, k=sign: np.imag(np.asarray(z, dtype=complex)**k)))
    family.append(("log|z|", lambda z: np.log(np.abs(np.asarray(z, dtype=complex)))))
    return family


def defect_direction(domain: AnnulusDomain, m: int = 512):
    """The one-dimensional defect ``nu_1 = log|z| - c0`` orthogonal to real
    parts of ring-analytic functions, with ``c0`` fixed numerically so the
    constant pairing vanishes."""
    pts, w = area_quadrature(domain, m)
    c0 = float(np.sum(w * np.log(np.abs(pts))) / np.sum(w))
    def nu(z):
        return np.log(np.abs(np.asarray(z, dtype=complex))) - c0
    return nu, c0


def bergman_decomposition_residual(G, domain: AnnulusDomain, z0: complex,
                                   m: int = 512, degree: int = 8,
                                   N_kernel: int = 64) -> tuple[float, float]:
    """Fit ``<|G|^2 - H(., z0), u> ~ lambda_1 <nu_1, u>`` over harmonic tests.

    ``G`` is expected in the unit-norm gauge of the reproducing identity.
    Only the log-mode test pairs with ``nu_1``; the returned residual is the
    largest unexplained pairing, which vanishes (up to truncation) because
    the rest of ``|G|^2 - H`` annihilates harmonics.
    """
    pts, w = area_quadrature(domain, m)
    H = harmonic_l2_kernel(domain, z0, N_kernel)
    D = np.abs(np.asarray(G(pts), dtype=complex))**2 - H(pts)
    nu, _ = defect_direction(domain, m)
    nu_vals = nu(pts)
    ps, qs = [], []
    for _, u in harmonic_test_family(domain, degree):
        uv = np.asarray(u(pts))
        ps.append(float(np.sum(w * D * uv)))
        qs.append(float(np.sum(w * nu_vals * uv)))
    ps_arr, qs_arr = np.array(ps), np.array(qs)
    lam1 = float(np.sum(ps_arr * qs_arr) / np.sum(qs_arr**2))
    residual = float(np.max(np.abs(ps_arr - lam1 * qs_arr)))
    return lam1, residual


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


def _clamped_operator(rho, h: float, T: int, disk: bool):
    """CSC matrix of the clamped biharmonic operator on the interior unknowns.

    The five-point polar Laplacian is one ``(interior rows, T, 5)`` table of
    coefficients and neighbour indices (centre, i+1, i-1, j+1, j-1), applied
    twice: ``A1`` maps the interior unknowns to the field on every row, with
    ``u = 0`` on boundary rows and the clamped ghost rows ``2 u_adjacent / h^2``;
    ``A2`` takes that field back to the interior rows.  On the disk, row -1 is
    row 0 turned by half a circle: ``(-1, j) -> (0, j + T/2)``; with
    ``rho_0 = h/2`` that link's coefficient is exactly 0.
    """
    R = rho.size
    lo = 0 if disk else 1  # interior rows lo..R-2
    n_int = (R - 1 - lo) * T
    shape = (R - 1 - lo, T, 5)
    htheta = 2.0 * np.pi / T
    r_i = rho[lo:R - 1, None, None]
    c_rr = 1.0 / (h * h)
    c_r = 1.0 / (2.0 * h * r_i)
    c_tt = 1.0 / (r_i * r_i * htheta * htheta)
    coef = np.broadcast_to(np.concatenate(
        [-2.0 * c_rr - 2.0 * c_tt, c_rr + c_r, c_rr - c_r, c_tt, c_tt], axis=2), shape)
    i = np.arange(lo, R - 1)[:, None, None]
    j = np.arange(T)[None, :, None]
    row = np.broadcast_to(i * T + j, shape)
    ni = np.broadcast_to(i + np.array([0, 1, -1, 0, 0]), shape)
    nj = (j + np.array([0, 0, 0, 1, -1])) % T
    flip = ni == -1
    ni, nj = np.where(flip, 0, ni), np.where(flip, (nj + T // 2) % T, nj)

    keep = (ni >= lo) & (ni < R - 1)  # u = 0 on boundary rows
    edges = np.array([R - 1] if disk else [0, R - 1])
    adjacent = np.array([R - 2] if disk else [1, R - 2])
    ghost_rows = (edges[:, None] * T + np.arange(T)).ravel()
    ghost_cols = ((adjacent[:, None] - lo) * T + np.arange(T)).ravel()
    A1 = scipy.sparse.coo_matrix(
        (np.concatenate([coef[keep], np.full(ghost_rows.size, 2.0 / (h * h))]),
         (np.concatenate([row[keep], ghost_rows]),
          np.concatenate([(ni[keep] - lo) * T + nj[keep], ghost_cols]))),
        shape=(R * T, n_int)).tocsr()
    A2 = scipy.sparse.coo_matrix((coef.ravel(), ((row - lo * T).ravel(), (ni * T + nj).ravel())),
                                 shape=(n_int, R * T)).tocsr()
    return (A2 @ A1).tocsc()


def biharmonic_green(domain: AnnulusDomain | None, pole: complex,
                     n_rho: int = 64, n_theta: int = 64,
                     check_refinement: bool = False) -> BiharmonicSolution:
    """Clamped biharmonic Green's function by squared polar finite differences.

    ``domain=None`` selects the unit disk (offset radial grid through the
    center, no inner boundary).  Both clamped conditions enter through the
    two applications of the Laplacian: the first uses ``u = 0`` on boundary
    rows, and the boundary rows of the intermediate field are
    ``2 u_adjacent / h^2``, which encodes the mirrored ghost row of the
    zero-normal-derivative condition.  The point load is scaled by the
    inverse polar cell area.
    """
    if n_rho < 32 or n_theta < 32:
        raise ArgumentError("grid resolutions must be at least 32")
    if n_theta % 2:
        raise ArgumentError("need an even number of angular nodes")
    disk = domain is None
    R, T = n_rho, n_theta
    htheta = 2.0 * np.pi / T
    if disk:
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

    Bi = _clamped_operator(rho, h, T, disk)
    i_star = lo + int(np.argmin(np.abs(rho[lo:R - 1] - rp)))
    j_star = int(round(tp / htheta)) % T
    b = np.zeros(Bi.shape[0])
    b[(i_star - lo) * T + j_star] = 1.0 / (rho[i_star] * h * htheta)
    u = scipy.sparse.linalg.spsolve(Bi, b)
    if not np.all(np.isfinite(u)):
        raise SolverError("biharmonic system is numerically singular")
    residual = float(np.max(np.abs(Bi @ u - b)) / np.max(np.abs(b)))

    values = np.zeros((R, T))
    values[lo:R - 1] = u.reshape(-1, T)
    vmax = float(values.max())
    vmin = float(values.min())
    floor = -1e-6 * max(vmax, 0.0)
    cells = tuple((int(i), int(j)) for i, j in zip(*np.where(values < floor)))
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
