import functools
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import scipy.linalg
import scipy.sparse.linalg

import ringspace as rs
from ringspace.cli import parse_complex
from ringspace.errors import (ArgumentError, ConvergenceError, GeometryError, RingspaceError,
                              SolverError)
from ringspace.probes import (_defect_pairings, _gauge_pairings, _log_means,
                              _reproduced_values, bergman_decomposition_residual,
                              biharmonic_green, log_radial_moment)
from ringspace.spaces import area_quadrature, bergman_tag, norm as space_norm, ring_values

from oracles import (HarmonicKernel, clamped_apply, clamped_factors, clamped_operator,
                     dense_decomposition_pairings, fd_biharmonic, gbsv_clamped_solve,
                     loop_clamped_operator, radial_rule_decomposition, roll_clamped_apply,
                     three_rule_decomposition, two_gbsv_biharmonic)


# ------------------------------------------- harmonic kernel (the oracle's)

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


# ------------------------------------------------------------ decomposition

def test_log_radial_moment_against_adaptive_quadrature():
    for r in (0.3, 0.5, 0.7):
        val, _ = quad(lambda x: x * math.log(x), r, 1.0, epsabs=1e-15)
        assert log_radial_moment(r) == pytest.approx(2 * np.pi * val, abs=1e-10)
    # frozen value for the standard ring
    assert log_radial_moment(0.5) == pytest.approx(-0.6337007225202719, abs=1e-12)


def test_defect_direction_is_orthogonal_to_analytic_parts(dom):
    qs, c0 = _defect_pairings(dom.inner_radius)
    # nu_1 is radial: its pairings with Re, Im z^k are exactly 0, with 1 rounding
    assert np.all(qs[1:-1] == 0.0)
    assert qs[0] == pytest.approx(0.0, abs=1e-15)
    # node by node on the area rule: the same pairings, and c0 its mean of log|z|
    pts, w = area_quadrature(dom, 512)
    log_abs = np.log(np.abs(pts))
    assert c0 == pytest.approx(np.sum(w * log_abs) / np.sum(w), abs=1e-15)
    for n in (1, 2, -3):
        pairing = np.sum(w * (log_abs - c0) * np.real(pts ** float(n)))
        assert pairing == pytest.approx(0.0, abs=1e-12)
    assert qs[-1] == pytest.approx(np.sum(w * (log_abs - c0) * log_abs), abs=1e-14)


def test_decomposition_base_must_be_interior(dom):
    G = rs.build_kernel(dom, bergman_tag(), 32).section(0.7)
    with pytest.raises(GeometryError):
        bergman_decomposition_residual(G, dom, 1.1)


def test_decomposition_of_kernel_direction(dom):
    K = rs.build_kernel(dom, bergman_tag(), 48)
    scale = math.sqrt(complex(K(0.7, 0.7)).real)
    lam1, residual, _ = bergman_decomposition_residual(K.section(0.7) * (1 / scale), dom, 0.7)
    assert abs(lam1) <= 1e-6
    assert residual <= 1e-6


def test_decomposition_of_one_zero_extremal(dom):
    p = rs.ExtremalProblem(domain=dom, space=bergman_tag(), base=0.7,
                           zeros=(-0.6,), truncation=48)
    G = rs.solve_extremal(p, m=512)
    Gn = G * (1.0 / space_norm(G, dom, bergman_tag()))
    lam1, residual, _ = bergman_decomposition_residual(Gn, dom, 0.7)
    assert residual <= 1e-5


def test_decomposition_takes_only_a_laurent_polynomial(dom):
    # the pairings come from G's coefficients: a plain callable has none, and a
    # zero G has no unit-norm gauge
    G = rs.build_kernel(dom, bergman_tag(), 32).section(0.7)
    for bad in (lambda z: G(z), rs.LaurentPolynomial(-2, 2, np.zeros(5))):
        with pytest.raises(ArgumentError):
            bergman_decomposition_residual(bad, dom, 0.7)


def _coefficient_pairings_against_dense(r, N, m, evaluator):
    """The library's pairings of ``|G|^2`` (unit-norm gauge) and ``nu_1`` from ``G``'s
    coefficients, and the dense oracle's on ``m`` angles, which is exact while
    ``2N + 8 < m``; the oracle takes ``G``'s values by Horner (``plain``) or by one FFT
    per ring (``on_rings``)."""
    base = (r + 0.05) * np.exp(0.7j)  # 0.05 from the inner circle
    dom = rs.make_annulus(r, base)
    G = rs.build_kernel(dom, bergman_tag(), N).section(base)
    values = G if evaluator == "plain" else (lambda z: ring_values(G, z, m))
    got = np.array([_gauge_pairings(G, dom), _defect_pairings(r)[0]])
    want = dense_decomposition_pairings(values, dom, base, m)[[0, 2]]  # row 1: H
    want[0] /= want[0, 0]
    assert got.shape == want.shape == (2, 34)
    return got, want


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("m", [64, 512])
@pytest.mark.parametrize("evaluator", ["on_rings", "plain"])
def test_decomposition_pairings_match_the_dense_family(r, m, evaluator):
    # element by element: the residual alone cannot see the sign of the Im z^k
    # rows, so a base off the real axis keeps them non-zero; the window is the
    # widest the dense rule sums exactly (2N + 8 < m), 32 at most
    got, want = _coefficient_pairings_against_dense(r, min(32, m // 2 - 8), m, evaluator)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("N", [160, 320])
def test_coefficient_pairings_match_the_dense_family_at_wide_windows(N):
    # windows past the 512-angle rule's exact range (2N + 8 >= 512 at N = 320)
    got, want = _coefficient_pairings_against_dense(0.5, N, 2048, "on_rings")
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("series", ["kernel", "flat"])
def test_decomposition_at_a_small_inner_radius(series):
    # r = 0.05, N = 300: z^-300 leaves the double range on the inner rings, but
    # each ring's terms are scaled in log space, so the result is finite or the
    # error typed, and no RuntimeWarning (an error under pytest) is raised
    dom = rs.make_annulus(0.05, 0.5)
    try:
        G = (rs.build_kernel(dom, bergman_tag(), 300).section(0.5) if series == "kernel"
             else rs.LaurentPolynomial(-300, 300, np.ones(601)))
        result = bergman_decomposition_residual(G, dom, 0.5)
    except RingspaceError:
        return
    assert np.all(np.isfinite(result))


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
def test_reproduced_values_match_the_dense_kernel_pairings(r):
    # <H(., z0), u> = u(z0) for every test u: the closed form against the
    # oracle kernel paired node by node (at m = 64 its row aliases by O(1))
    base = (r + 0.05) * np.exp(0.7j)
    dom = rs.make_annulus(r, base)
    G = rs.build_kernel(dom, bergman_tag(), 32).section(base)
    want = dense_decomposition_pairings(G, dom, base, 512)[1]
    assert np.max(np.abs(_reproduced_values(base) - want)) <= 1e-9


@pytest.mark.parametrize("r, base", [(0.5, 0.7), (0.3, 0.5 + 0.4j), (0.685, -0.733 - 0.031j)])
@pytest.mark.parametrize("with_zero", [False, True])
def test_one_rule_decomposition_matches_the_three_rule_oracle(r, base, with_zero):
    # on the radial rule, the gauge and the pairings from G's coefficients move
    # lambda_1 and the residual by rounding only, and c0 is the same mean on the
    # same radii; the exact coefficient sums sit within the rules' floor of both
    dom = rs.make_annulus(r, base)
    if with_zero:
        zero = -0.5j * (1.0 + r)  # midway across the ring
        G = rs.solve_extremal(rs.ExtremalProblem(domain=dom, space=bergman_tag(), base=base,
                                                 zeros=(zero,), truncation=48), m=512)
    else:
        G = rs.build_kernel(dom, bergman_tag(), 64).section(base)
    lam1, residual, c0 = radial_rule_decomposition(G, dom, base)
    want = three_rule_decomposition(G, dom, base, 512)
    assert abs(lam1 - want[0]) <= 1e-13
    assert abs(residual - want[1]) <= 1e-13
    assert abs(c0 - want[2]) <= 1e-15  # c0 summed ring by ring, not node by node
    lam1, residual, c0 = bergman_decomposition_residual(G, dom, base)
    assert abs(lam1 - want[0]) <= 1e-12
    assert abs(residual - want[1]) <= 1e-10
    assert abs(c0 - want[2]) <= 1e-15


@pytest.mark.parametrize("n", [-300, -40, -2, -1, 0, 1, 40, 300])
@pytest.mark.parametrize("r", [0.05, 0.3, 0.7])
def test_log_means_against_adaptive_quadrature(r, n):
    # mu_n = int log(rho) rho^(2n+1) d rho / int rho^(2n+1) d rho on [r, 1], the
    # integrals in units of the larger end's power so that r^(2n+2) cannot overflow
    top = 1.0 if n >= -1 else r
    weight = lambda x: (x / top)**(2 * n + 1)  # noqa: E731
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    num = quad(lambda x: math.log(x) * weight(x), r, 1.0, **opts)[0]
    den = quad(weight, r, 1.0, **opts)[0]
    assert _log_means(r, [n])[0] == pytest.approx(num / den, rel=1e-11, abs=1e-13)


def _probes_decompositions():
    """``(r, base)`` of the decomposition in each of the benchmark's 54 seed-3 ``probes`` jobs."""
    sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
    try:
        from jobs import job_list
    finally:
        sys.path.pop(0)
    argvs = [job[2] for job in job_list("probes", 3, 45)]
    return [(float(argv[argv.index("--r") + 1]), parse_complex(argv[argv.index("--base") + 1]))
            for argv in argvs]


def test_coefficient_sums_match_the_radial_rule_on_the_benchmark_geometries():
    # the 54 seed-3 probes decompositions (unweighted section at N = 64): the
    # exact sums against the 64-radius rule they replaced
    geometries = _probes_decompositions()
    assert len(geometries) == 54
    worst = np.zeros(3)
    for r, base in geometries:
        dom = rs.make_annulus(r, base)
        G = rs.build_kernel(dom, bergman_tag(), 64).section(base)
        got = bergman_decomposition_residual(G, dom, base)
        want = radial_rule_decomposition(G, dom, base)
        worst = np.maximum(worst, np.abs(np.subtract(got, want)))
    assert worst[0] <= 1e-12 and worst[1] <= 1e-10 and worst[2] <= 1e-15, worst


def test_coefficient_sums_beat_the_radial_rule_floor():
    # seed-3 probes geometry 16 at N = 320: the rule leaves a residual of 1.0e-11,
    # its floor, where the exact sums leave rounding (5.7e-14)
    r, base = _probes_decompositions()[16]
    dom = rs.make_annulus(r, base)
    G = rs.build_kernel(dom, bergman_tag(), 320).section(base)
    assert radial_rule_decomposition(G, dom, base)[1] >= 5e-12
    assert bergman_decomposition_residual(G, dom, base)[1] <= 2e-13


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
    assert sol.clamped_residual <= 1e-12


def test_annulus_sign_change(dom):
    sol = biharmonic_green(rs.make_annulus(0.5, 0.75), 0.75, 64, 64)
    assert sol.clamped_residual <= 1e-12
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
    assert sol.sign_change_count == len(sol.sign_change_cells)


def test_annulus_rotation_symmetry():
    sol = biharmonic_green(rs.make_annulus(0.5, 0.75), 0.75, 48, 48)
    v = sol.grid.values
    # pole on the positive real axis: theta -> -theta symmetry up to indexing
    flipped = np.roll(v[:, ::-1], 1, axis=1)
    assert np.max(np.abs(v - flipped)) <= 1e-10 * max(1.0, np.abs(v).max())


def test_disk_center_handling():
    # a pole near the centre, where the offset radial grid comes closest to 0
    sol = biharmonic_green(None, 0.05 + 0.02j, 64, 64)
    assert sol.min_value >= -1e-6 * sol.max_value
    assert np.isfinite(sol.grid.values).all()


def _away_error(domain, pole, n_rho, n_theta):
    """The FD oracle's largest error against the construction more than 0.1 from the
    pole, relative to the construction's largest value."""
    sol = biharmonic_green(domain, pole, n_rho, n_theta)
    fd, _ = fd_biharmonic(domain, pole, n_rho, n_theta)
    z = sol.grid.radii[:, None] * np.exp(1j * sol.grid.angles)
    away = np.abs(z - pole) > 0.1
    return np.max(np.abs(fd - sol.grid.values)[away]) / sol.max_value


def test_fd_oracle_converges_to_the_construction_at_second_order():
    # nested ring grids with the pole 0.7 on a node: the FD error away from the pole
    # reads 1.4e-2, 3.2e-3 and 7.7e-4 at s = 1, 2, 4; on the disk the pole sits on the
    # node nearest 0.3 of each grid, and the error reads 6.9e-4, 1.7e-4 and 4.3e-5
    ring = rs.make_annulus(0.5, 0.7)
    errors = [_away_error(ring, 0.7, 95 * s + 1, 96 * s) for s in (1, 2, 4)]
    assert errors[0] <= 2e-2 and errors[1] <= 4.5e-3 and errors[2] <= 1.1e-3
    assert all(3.5 <= a / b <= 4.8 for a, b in zip(errors, errors[1:]))
    errors = []
    for s in (1, 2, 4):
        h = 2.0 / (2 * 96 * s - 1)  # the disk's radii are (i + 1/2) h
        errors.append(_away_error(None, (round(0.3 / h - 0.5) + 0.5) * h, 96 * s, 96 * s))
    assert errors[0] <= 1e-3 and errors[1] <= 2.5e-4 and errors[2] <= 6.5e-5
    assert all(3.5 <= a / b <= 4.8 for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("r, pole", [(0.3, 0.33 * np.exp(2j)), (0.3, 0.955 * np.exp(2j)),
                                     (0.5, 0.7), (0.5, 0.955j), (0.7, 0.955),
                                     (0.7, -0.744 + 0.01j)])
def test_clamped_data_vanishes_on_both_circles(r, pole):
    # |G| and |dG/drho| on the circles, from the modes, and independently the grid:
    # where G and dG/drho vanish, the rows h and 2h inside a circle read G'' h^2 / 2
    # and 2 G'' h^2, a ratio of 4 (a nonzero slope would give 2)
    sol = biharmonic_green(rs.make_annulus(r, pole), pole, 192, 64)
    assert sol.clamped_residual <= 1e-12
    v = np.abs(sol.grid.values)
    for near, far in ((1, 2), (-2, -3)):
        assert 3.5 <= v[far].max() / v[near].max() <= 4.5


@pytest.mark.parametrize("disk", [True, False], ids=["disk", "ring"])
def test_green_function_is_symmetric(disk):
    # G(z, w) = G(w, z), both on grid nodes: rows 12 and 37, angles 3 and 20 of 64
    domain = None if disk else rs.make_annulus(0.5, 0.7)
    n_rho = 51  # the ring's radii are 0.5 + 0.01 i
    rho = biharmonic_green(domain, 0.7, n_rho, 64).grid.radii
    w, z = rho[12] * np.exp(2j * np.pi * 3 / 64), rho[37] * np.exp(2j * np.pi * 20 / 64)
    at_w, at_z = (biharmonic_green(domain, p, n_rho, 64) for p in (w, z))
    scale = max(at_w.max_value, at_z.max_value)
    assert abs(at_w.grid.values[37, 20] - at_z.grid.values[12, 3]) <= 1e-13 * scale


@pytest.mark.parametrize("pole", [0.0, 0.3, 0.05 + 0.02j, -0.6 + 0.7j, 0.95j])
@pytest.mark.parametrize("n", [32, 96])
def test_boggio_positivity_on_the_grid(pole, n):
    # Boggio: the disk's clamped plate Green function is positive inside, and the
    # closed form, taken as d (x - log1p(x)), cannot round below 0
    try:
        sol = biharmonic_green(None, pole, n, n)
    except GeometryError:  # within two cells of the circle on the coarse grid
        assert n == 32 and abs(pole) > 0.9
        return
    assert np.all(sol.grid.values[:-1] > 0.0)
    assert np.all(sol.grid.values[-1] == 0.0)
    assert sol.min_value == 0.0 and sol.sign_change_count == 0
    assert sol.clamped_residual <= 1e-12


@pytest.mark.parametrize("disk, n_rho, n_theta, rp",
                         [(True, 64, 64, 0.3), (True, 33, 34, 0.05),
                          (False, 48, 48, 0.7), (False, 40, 32, 0.8), (False, 96, 96, 0.6)])
@pytest.mark.parametrize("steps", [1, 7, -3])
def test_turning_the_pole_turns_the_grid(disk, n_rho, n_theta, rp, steps):
    # the construction is taken in the pole's frame, so turning the pole by whole
    # angular steps rolls the grid, up to the rounding of the angles
    domain = None if disk else rs.make_annulus(0.5, rp)
    at_zero = biharmonic_green(domain, rp * np.exp(0.1j), n_rho, n_theta)
    turned = biharmonic_green(domain, rp * np.exp(0.1j + 2j * np.pi * steps / n_theta),
                              n_rho, n_theta)
    rolled = np.roll(at_zero.grid.values, steps, axis=1)
    assert np.max(np.abs(turned.grid.values - rolled)) <= 1e-13 * at_zero.max_value


@pytest.mark.parametrize("pole", [0.993, 0.5035j], ids=["outer", "inner"])
def test_mode_count_past_the_cap_is_a_convergence_error(pole):
    # on a grid fine enough that the two-cell guard passes the pole (2h < 0.0035),
    # the data's decay max(|w|, r/|w|) = 0.993 needs more than TRUNCATION_CAP modes
    with pytest.raises(ConvergenceError, match="cap"):
        biharmonic_green(rs.make_annulus(0.5, pole), pole, 520, 32)


def test_ring_memory_stays_flat():
    # |w| = 0.955 at r = 0.5 takes 851 modes: the work arrays stay near 2^13 entries
    # a block, where one complex (rows x modes) table of the 94 interior rows is 1.3 MB;
    # the grid and the fundamental solution on it take about 0.8 MB at any mode count
    domain = rs.make_annulus(0.5, 0.955)
    biharmonic_green(domain, 0.955, 96, 96)  # warm the FFT plan cache
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = biharmonic_green(domain, 0.955, 96, 96)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.clamped_residual <= 1e-12
    assert peak < 1.2e6


def test_matching_failure_is_typed(monkeypatch):
    domain = rs.make_annulus(0.5, 0.7)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SolverError):
        biharmonic_green(domain, 0.7, 32, 32)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(b.shape, np.nan))
    with pytest.raises(SolverError):
        biharmonic_green(domain, 0.7, 32, 32)


# ------------------------------------------- the finite-difference oracle

OPERATOR_GRIDS = [(True, 32, 32), (False, 32, 32), (True, 96, 96), (False, 96, 96),
                  (False, 40, 32), (True, 33, 34)]


def _grid(disk, n_rho):
    """``(rho, h, lo)`` as ``fd_biharmonic`` lays the grid out (ring: r = 0.5)."""
    if disk:  # offset radial grid through the centre
        h = 2.0 / (2 * n_rho - 1)
        return (np.arange(n_rho) + 0.5) * h, h, 0
    h = (1.0 - 0.5) / (n_rho - 1)
    return 0.5 + np.arange(n_rho) * h, h, 1


def _load(rho, h, lo, n_theta, pole):
    """``fd_biharmonic``'s point load at ``pole`` on the interior rows."""
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


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["double", "longdouble"])
@pytest.mark.parametrize("disk, n_rho, n_theta",
                         OPERATOR_GRIDS + [(True, 256, 256), (False, 256, 256)])
def test_clamped_apply_matches_the_roll_oracle_bit_for_bit(disk, n_rho, n_theta, dtype):
    # in place on one wrap-padded buffer, the same operations in the same order
    # as the np.roll / np.concatenate form, so the same bits
    rho, h, lo = _grid(disk, n_rho)
    u = np.random.default_rng(n_rho + n_theta).standard_normal((n_rho - 1 - lo, n_theta))
    got = clamped_apply(u.astype(dtype), rho, h, lo)
    want = roll_clamped_apply(u.astype(dtype), rho, h, lo)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("disk, n_rho, n_theta", OPERATOR_GRIDS)
def test_matrix_free_stencil_matches_sparse_operator(disk, n_rho, n_theta):
    rho, h, lo = _grid(disk, n_rho)
    u = np.random.default_rng(n_rho + n_theta).standard_normal((n_rho - 1 - lo, n_theta))
    expected = clamped_operator(rho, h, n_theta, disk) @ u.ravel()
    got = clamped_apply(u, rho, h, lo).ravel()
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@functools.cache
def _converged_reference(disk, n_rho, n_theta):
    """``(pole, ref, u_sparse)``: the point load's ``spsolve`` solution, and the same
    refined to convergence against the oracle's two factors applied in longdouble.
    The correction solver (``gbsv_clamped_solve``) only sets the rate; the fixed point
    is the oracle operator's solution."""
    rho, h, lo = _grid(disk, n_rho)
    pole = 0.3 + 0.2j if disk else 0.75 + 0.1j
    b = _load(rho, h, lo, n_theta, pole)
    u_sparse = scipy.sparse.linalg.spsolve(clamped_operator(rho, h, n_theta, disk), b.ravel())
    A2, A1 = (A.astype(np.longdouble) for A in clamped_factors(rho, h, n_theta, disk))
    ref = u_sparse.copy()
    for _ in range(10):
        res = (b.ravel() - A2 @ (A1 @ ref.astype(np.longdouble))).astype(float)
        step = gbsv_clamped_solve(res.reshape(b.shape), rho, h, lo).ravel()
        ref = ref + step
        if np.max(np.abs(step)) <= 1e-15 * np.max(np.abs(ref)):
            return pole, ref, u_sparse
    pytest.fail("reference refinement did not converge")


def _reference_error(disk, n_rho, n_theta):
    """``fd_biharmonic``'s and ``spsolve``'s largest errors against the converged
    reference, relative to its largest value."""
    pole, ref, u_sparse = _converged_reference(disk, n_rho, n_theta)
    values, _ = fd_biharmonic(None if disk else rs.make_annulus(0.5, 0.75), pole,
                              n_rho, n_theta)
    scale = np.max(np.abs(ref))
    lo = 0 if disk else 1
    return (np.max(np.abs(values[lo:-1].ravel() - ref)) / scale,
            np.max(np.abs(u_sparse - ref)) / scale)


@pytest.mark.parametrize("disk, n_rho, n_theta",
                         OPERATOR_GRIDS + [(True, 256, 256), (False, 256, 256)])
def test_biharmonic_solve_is_at_least_as_accurate_as_sparse_lu(disk, n_rho, n_theta):
    err_fft, err_sparse = _reference_error(disk, n_rho, n_theta)
    assert err_fft <= err_sparse
    assert err_fft <= 1e-13


@pytest.mark.parametrize("disk", [True, False], ids=["disk", "ring"])
def test_refined_solve_meets_the_converged_reference_at_256(disk):
    # unrefined, the 256 x 256 disk is off by 3.4e-9 and the ring by 2.3e-10;
    # with each mode's angular eigenvalue from a cosine taken in double, the
    # refinement stops at 2.0e-14 on the disk and 1.0e-15 on the ring
    err_fft, _ = _reference_error(disk, 256, 256)
    assert err_fft <= 1e-15


def test_radial_solve_failure_is_typed(monkeypatch):
    def singular(ab, kl, ku, **kwargs):  # gbtrf's report of an exactly zero pivot
        return ab, np.arange(1, ab.shape[1] + 1, dtype=np.int32), 1
    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", singular)
    with pytest.raises(SolverError):
        fd_biharmonic(None, 0.3, 32, 32)


@pytest.mark.parametrize("disk, n_rho, n_theta, pole",
                         [(True, 64, 64, 0.3), (True, 33, 34, 0.05 + 0.02j),
                          (False, 64, 64, 0.75), (False, 96, 96, -0.6 + 0.2j),
                          (False, 40, 32, 0.8j)])
def test_factored_solve_matches_two_gbsv_solves(disk, n_rho, n_theta, pole):
    # the pole-frame solve refined mode by mode against two gbsv solves of the
    # whole load refined on the grid, on the disk (lo = 0) and on the ring (lo = 1);
    # the routes round differently; the worst gap on these grids is 3.5e-16
    rho, h, lo = _grid(disk, n_rho)
    values, _ = fd_biharmonic(None if disk else rs.make_annulus(0.5, pole), pole,
                              n_rho, n_theta)
    got = values[lo:-1]
    want = two_gbsv_biharmonic(_load(rho, h, lo, n_theta, pole), rho, h, lo)
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("disk, n_rho, n_theta, rp",
                         [(True, 64, 64, 0.3), (True, 33, 34, 0.05),
                          (False, 48, 48, 0.7), (False, 40, 32, 0.8)])
@pytest.mark.parametrize("steps", [1, 7, -3])
def test_turning_the_pole_by_whole_steps_rolls_the_grid(disk, n_rho, n_theta, rp, steps):
    # the FD load is solved at angle 0 and rolled into place, so the grid and its
    # operator residual turn with the pole bit for bit
    domain = None if disk else rs.make_annulus(0.5, rp)
    at_zero, residual = fd_biharmonic(domain, rp, n_rho, n_theta)
    turned, turned_residual = fd_biharmonic(
        domain, rp * np.exp(2j * np.pi * steps / n_theta), n_rho, n_theta)
    assert np.array_equal(turned, np.roll(at_zero, steps, axis=1))
    assert turned_residual == residual
