import math

import numpy as np
import pytest
from scipy.integrate import quad

import scipy.linalg
import scipy.sparse.linalg

import ringspace as rs
from ringspace.errors import ArgumentError, GeometryError, SolverError
from ringspace.probes import (HarmonicKernel, _banded_solver, _clamped_apply,
                              _defect_values, _harmonic_pairings,
                              bergman_decomposition_residual, biharmonic_green,
                              log_radial_moment)
from ringspace.spaces import area_quadrature, bergman_tag, norm as space_norm, ring_values

from oracles import (clamped_factors, clamped_operator, dense_decomposition_pairings,
                     loop_clamped_operator, three_rule_decomposition, two_gbsv_biharmonic)


# --------------------------------------------------------- harmonic kernel

def test_kernel_reproduces_constants(dom):
    H = HarmonicKernel(dom, 0.7, 64)
    pts, w = area_quadrature(dom, 512)
    assert np.sum(w * H(pts)) == pytest.approx(1.0, abs=1e-9)


def test_kernel_reproduces_analytic_real_parts(dom):
    H = HarmonicKernel(dom, 0.7, 64)
    pts, w = area_quadrature(dom, 512)
    hv = H(pts)
    assert np.sum(w * hv * np.real(pts)) == pytest.approx(0.7, abs=1e-7)
    assert np.sum(w * hv * np.real(pts ** -3.0)) == pytest.approx(0.7 ** -3.0, abs=1e-7)
    assert np.sum(w * hv * np.imag(pts ** 2.0)) == pytest.approx(0.0, abs=1e-7)


def test_kernel_reproduces_log_modulus(dom):
    # the log mode is harmonic but not the real part of a single-valued
    # analytic function; the kernel must reproduce it too
    H = HarmonicKernel(dom, 0.7, 64)
    pts, w = area_quadrature(dom, 512)
    val = np.sum(w * H(pts) * np.log(np.abs(pts)))
    assert val == pytest.approx(math.log(0.7), abs=1e-7)


def test_kernel_symmetry(dom):
    H = HarmonicKernel(dom, 0.7, 48)
    rng = np.random.default_rng(2)
    for _ in range(10):
        z, w_pt = (rng.uniform(0.55, 0.95, 2)
                   * np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
        assert H.pair(z, w_pt) == pytest.approx(H.pair(w_pt, z), abs=1e-10)


@pytest.mark.parametrize("r, base", [(0.5, 0.7), (0.3, 0.5 + 0.4j), (0.8, -0.85 + 0.1j)])
@pytest.mark.parametrize("m", [64, 512])
def test_kernel_on_rings_matches_pair(r, base, m):
    dom = rs.make_annulus(r, base)
    H = HarmonicKernel(dom, base, 64)
    pts, _ = area_quadrature(dom, m)
    direct = H(pts)
    assert np.max(np.abs(ring_values(H, pts, m).real - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_kernel_base_must_be_interior(dom):
    with pytest.raises(GeometryError):
        HarmonicKernel(dom, 1.1, 64)


# ------------------------------------------------------------ decomposition

def test_log_radial_moment_against_adaptive_quadrature():
    for r in (0.3, 0.5, 0.7):
        val, _ = quad(lambda x: x * math.log(x), r, 1.0, epsabs=1e-15)
        assert log_radial_moment(r) == pytest.approx(2 * np.pi * val, abs=1e-10)
    # frozen value for the standard ring
    assert log_radial_moment(0.5) == pytest.approx(-0.6337007225202719, abs=1e-12)


def test_defect_direction_is_orthogonal_to_analytic_parts(dom):
    pts, w = area_quadrature(dom, 512)
    nv, c0 = _defect_values(pts, w)
    assert np.sum(w * nv) == pytest.approx(0.0, abs=1e-12)
    for n in (1, 2, -3):
        assert np.sum(w * nv * np.real(pts ** float(n))) == pytest.approx(0.0, abs=1e-12)
    # the projection constant is the area mean of log|z|
    assert c0 == pytest.approx(np.sum(w * np.log(np.abs(pts))) / np.sum(w))


def test_decomposition_of_kernel_direction(dom):
    K = rs.build_kernel(dom, bergman_tag(), 48)
    scale = math.sqrt(complex(K(0.7, 0.7)).real)
    G0 = lambda z: np.asarray(K(z, 0.7)) / scale
    lam1, residual, _ = bergman_decomposition_residual(G0, dom, 0.7, m=512)
    assert abs(lam1) <= 1e-6
    assert residual <= 1e-6


def test_decomposition_of_one_zero_extremal(dom):
    p = rs.ExtremalProblem(domain=dom, space=bergman_tag(), base=0.7,
                           zeros=(-0.6,), truncation=48)
    G = rs.solve_extremal(p, m=512)
    Gn = G * (1.0 / space_norm(G, dom, bergman_tag()))
    lam1, residual, _ = bergman_decomposition_residual(Gn, dom, 0.7, m=512)
    assert residual <= 1e-5


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("m", [64, 512])
@pytest.mark.parametrize("evaluator", ["on_rings", "plain"])
def test_decomposition_pairings_match_the_dense_family(r, m, evaluator):
    # element by element: the residual alone cannot see the sign of the Im z^k
    # rows, so a base off the real axis keeps them non-zero
    base = (r + 0.05) * np.exp(0.7j)  # 0.05 from the inner circle
    dom = rs.make_annulus(r, base)
    section = rs.build_kernel(dom, bergman_tag(), 32).section(base)
    G = section if evaluator == "on_rings" else (lambda z: section(z))
    pts, w = area_quadrature(dom, m)
    H = HarmonicKernel(dom, base, 64)
    nu, _ = _defect_values(pts, w)
    values = [np.abs(ring_values(G, pts, m))**2, ring_values(H, pts, m).real, nu]
    got = np.array([_harmonic_pairings(f, pts, w, m) for f in values])
    want = dense_decomposition_pairings(G, dom, base, m)
    assert got.shape == want.shape == (3, 34)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("r, base", [(0.5, 0.7), (0.3, 0.5 + 0.4j), (0.685, -0.733 - 0.031j)])
@pytest.mark.parametrize("with_zero", [False, True])
def test_one_rule_decomposition_matches_the_three_rule_oracle(r, base, with_zero):
    # the gauge taken on the pairings' own rule moves lambda_1 and the residual
    # by rounding only; c0 is the same sum on the same rule
    dom = rs.make_annulus(r, base)
    if with_zero:
        zero = -0.5j * (1.0 + r)  # midway across the ring
        G = rs.solve_extremal(rs.ExtremalProblem(domain=dom, space=bergman_tag(), base=base,
                                                 zeros=(zero,), truncation=48), m=512)
    else:
        G = rs.build_kernel(dom, bergman_tag(), 64).section(base)
    lam1, residual, c0 = bergman_decomposition_residual(G, dom, base, m=512)
    want = three_rule_decomposition(G, dom, base, 512)
    assert abs(lam1 - want[0]) <= 1e-13
    assert abs(residual - want[1]) <= 1e-13
    assert c0 == want[2]


# ------------------------------------------------------------- biharmonic

def test_biharmonic_resolution_guard(dom):
    with pytest.raises(ArgumentError):
        biharmonic_green(dom, 0.75, 16, 64)
    with pytest.raises(ArgumentError):
        biharmonic_green(None, 0.3, 64, 33)


def test_biharmonic_pole_margin(dom):
    with pytest.raises(GeometryError):
        biharmonic_green(dom, 0.505, 64, 64)


def test_disk_positivity():
    sol = biharmonic_green(None, 0.3, 64, 64)
    assert sol.min_value >= -1e-6 * sol.max_value
    assert sol.max_value > 0
    assert sol.operator_residual < 1e-4


def test_annulus_sign_change(dom):
    sol = biharmonic_green(rs.make_annulus(0.5, 0.75), 0.75, 64, 64)
    assert sol.operator_residual < 1e-4
    assert sol.min_value < 0
    assert len(sol.sign_change_cells) > 0
    # negative cells are genuinely below the relative floor
    floor = -1e-6 * sol.max_value
    vals = [sol.grid.values[i, j] for i, j in sol.sign_change_cells]
    assert max(vals) < floor
    # row-major (i, j) pairs of Python ints, every cell below the floor
    rows, cols = np.nonzero(sol.grid.values < floor)
    assert sol.sign_change_cells == tuple(zip(rows.tolist(), cols.tolist()))
    assert all(type(k) is int for cell in sol.sign_change_cells for k in cell)


def test_annulus_rotation_symmetry():
    sol = biharmonic_green(rs.make_annulus(0.5, 0.75), 0.75, 48, 48)
    v = sol.grid.values
    # pole on the positive real axis: theta -> -theta symmetry up to indexing
    flipped = np.roll(v[:, ::-1], 1, axis=1)
    assert np.max(np.abs(v - flipped)) <= 1e-10 * max(1.0, np.abs(v).max())


def test_refinement_check_flag():
    sol = biharmonic_green(rs.make_annulus(0.5, 0.75), 0.75, 32, 32,
                           check_refinement=True)
    assert sol.refinement_warning is not None


def test_disk_center_handling():
    # pole near the center exercises the across-center stencil
    sol = biharmonic_green(None, 0.05 + 0.02j, 64, 64)
    assert sol.min_value >= -1e-6 * sol.max_value
    assert np.isfinite(sol.grid.values).all()


OPERATOR_GRIDS = [(True, 32, 32), (False, 32, 32), (True, 96, 96), (False, 96, 96),
                  (False, 40, 32), (True, 33, 34)]


def _grid(disk, n_rho):
    """``(rho, h, lo)`` as ``biharmonic_green`` lays the grid out (ring: r = 0.5)."""
    if disk:  # offset radial grid through the centre
        h = 2.0 / (2 * n_rho - 1)
        return (np.arange(n_rho) + 0.5) * h, h, 0
    h = (1.0 - 0.5) / (n_rho - 1)
    return 0.5 + np.arange(n_rho) * h, h, 1


def _load(rho, h, lo, n_theta, pole):
    """``biharmonic_green``'s point load at ``pole`` on the interior rows."""
    htheta = 2.0 * np.pi / n_theta
    i_star = lo + int(np.argmin(np.abs(rho[lo:-1] - abs(pole))))
    j_star = int(round(float(np.angle(pole)) % (2 * np.pi) / htheta)) % n_theta
    b = np.zeros((rho.size - 1 - lo, n_theta))
    b[i_star - lo, j_star] = 1.0 / (rho[i_star] * h * htheta)
    return b


@pytest.mark.parametrize("disk, n_rho, n_theta", OPERATOR_GRIDS)
def test_clamped_operator_matches_loop_assembly(disk, n_rho, n_theta):
    rho, h, _ = _grid(disk, n_rho)
    fast = clamped_operator(rho, h, n_theta, disk)
    slow = loop_clamped_operator(rho, h, n_theta, disk)
    assert fast.shape == slow.shape
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(fast, part), getattr(slow, part))


@pytest.mark.parametrize("disk, n_rho, n_theta", OPERATOR_GRIDS)
def test_matrix_free_stencil_matches_sparse_operator(disk, n_rho, n_theta):
    rho, h, lo = _grid(disk, n_rho)
    u = np.random.default_rng(n_rho + n_theta).standard_normal((n_rho - 1 - lo, n_theta))
    expected = clamped_operator(rho, h, n_theta, disk) @ u.ravel()
    got = _clamped_apply(u, rho, h, lo).ravel()
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("disk, n_rho, n_theta",
                         OPERATOR_GRIDS + [(True, 256, 256), (False, 256, 256)])
def test_biharmonic_solve_is_at_least_as_accurate_as_sparse_lu(disk, n_rho, n_theta):
    rho, h, lo = _grid(disk, n_rho)
    pole = 0.3 + 0.2j if disk else 0.75 + 0.1j
    sol = biharmonic_green(None if disk else rs.make_annulus(0.5, 0.75), pole, n_rho, n_theta)
    b = _load(rho, h, lo, n_theta, pole)
    u_sparse = scipy.sparse.linalg.spsolve(clamped_operator(rho, h, n_theta, disk), b.ravel())
    # Reference: refine to convergence against the oracle's two factors applied in
    # longdouble.  The correction solver only sets the rate; the fixed point is the
    # oracle operator's solution.
    A2, A1 = (A.astype(np.longdouble) for A in clamped_factors(rho, h, n_theta, disk))
    ref = u_sparse.copy()
    solve = _banded_solver(rho, h, lo, n_theta)
    for _ in range(10):
        res = (b.ravel() - A2 @ (A1 @ ref.astype(np.longdouble))).astype(float)
        step = solve(res.reshape(b.shape)).ravel()
        ref = ref + step
        if np.max(np.abs(step)) <= 1e-15 * np.max(np.abs(ref)):
            break
    else:
        pytest.fail("reference refinement did not converge")
    scale = np.max(np.abs(ref))
    err_fft = np.max(np.abs(sol.grid.values[lo:-1].ravel() - ref)) / scale
    err_sparse = np.max(np.abs(u_sparse - ref)) / scale
    assert err_fft <= err_sparse
    assert err_fft <= 1e-13


def test_radial_solve_failure_is_typed(monkeypatch):
    def singular(ab, kl, ku, **kwargs):  # gbtrf's report of an exactly zero pivot
        return ab, np.arange(1, ab.shape[1] + 1, dtype=np.int32), 1
    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", singular)
    with pytest.raises(SolverError):
        biharmonic_green(None, 0.3, 32, 32)


@pytest.mark.parametrize("disk, n_rho, n_theta, pole",
                         [(True, 64, 64, 0.3), (True, 33, 34, 0.05 + 0.02j),
                          (False, 64, 64, 0.75), (False, 96, 96, -0.6 + 0.2j),
                          (False, 40, 32, 0.8j)])
def test_factored_solve_matches_two_gbsv_solves(disk, n_rho, n_theta, pole):
    # one gbtrf and two gbtrs do what two gbsv calls do, bit for bit, on the
    # disk (lo = 0) and on the ring (lo = 1)
    rho, h, lo = _grid(disk, n_rho)
    sol = biharmonic_green(None if disk else rs.make_annulus(0.5, pole), pole, n_rho, n_theta)
    got = sol.grid.values[lo:-1]
    assert np.array_equal(got, two_gbsv_biharmonic(_load(rho, h, lo, n_theta, pole), rho, h, lo))
