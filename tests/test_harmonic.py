import math
import tracemalloc

import numpy as np
import pytest

import ringspace as rs
from ringspace.errors import ArgumentError, ConvergenceError, GeometryError
from ringspace.harmonic import (TRUNCATION_CAP, HarmonicRepresentation, solve_dirichlet,
                                tail_truncation)
from ringspace.spaces import boundary_quadrature, measure_quadrature

from oracles import (boundary_node_list, dense_harmonic_values, dense_radial_derivative,
                     green_images, node_normal_derivative, node_schottky, point_mass_kernel)


# ---------------------------------------------------------------- Dirichlet

def test_dirichlet_single_cosine_mode(dom):
    # outer data cos(theta), inner 0: A + B = 1, A r + B / r = 0.
    N = 8
    outer = np.zeros(2 * N + 1, dtype=complex)
    outer[N + 1] = 0.5
    outer[N - 1] = 0.5
    inner = np.zeros(2 * N + 1, dtype=complex)
    h = solve_dirichlet(dom, outer, inner, N)
    r = 0.5
    B = -(r**2) / (1 - r**2)
    A = 1.0 - B
    assert h.ns[0] == 1
    a1, b1 = h.A[0], h.Bhat[0] * h.rref
    assert a1 == pytest.approx(A)
    assert b1 == pytest.approx(B)
    assert h(np.exp(0.3j)) == pytest.approx(np.cos(0.3), abs=1e-13)
    assert h(r * np.exp(0.3j)) == pytest.approx(0.0, abs=1e-13)


def test_dirichlet_matches_random_trig_data(dom):
    rng = np.random.default_rng(7)
    N = 32
    deg = N // 2
    pos = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
    outer = np.zeros(2 * N + 1, dtype=complex)
    outer[N] = rng.standard_normal()
    outer[N + 1: N + deg + 1] = pos
    outer[N - deg: N] = np.conj(pos[::-1])
    inner = np.zeros(2 * N + 1, dtype=complex)
    inner[N] = rng.standard_normal()
    h = solve_dirichlet(dom, outer, inner, N)
    theta = 2 * np.pi * np.arange(256) / 256
    ns = np.arange(-N, N + 1)
    data_vals = np.real(np.exp(1j * np.outer(theta, ns)) @ outer)
    assert np.max(np.abs(h(np.exp(1j * theta)) - data_vals)) < 1e-10
    inner_vals = np.real(np.exp(1j * np.outer(theta, ns)) @ inner)
    assert np.max(np.abs(h(0.5 * np.exp(1j * theta)) - inner_vals)) < 1e-10


def test_dirichlet_constant_data_recovers_measures(dom):
    # outer data 1, inner 0 gives omega_1; swapped data gives omega_2
    N = 4
    ones = np.zeros(2 * N + 1, dtype=complex)
    ones[N] = 1.0
    zero = np.zeros(2 * N + 1, dtype=complex)
    h1 = solve_dirichlet(dom, ones, zero, N)
    w1 = rs.harmonic_measure(dom, 1)
    assert h1.c0 == pytest.approx(w1.c0) and h1.clog == pytest.approx(w1.clog)
    h2 = solve_dirichlet(dom, zero, ones, N)
    w2 = rs.harmonic_measure(dom, 2)
    assert h2.c0 == pytest.approx(w2.c0) and h2.clog == pytest.approx(w2.clog)


def test_green_truncation_precondition(dom):
    with pytest.raises(ArgumentError):
        rs.green(dom, 0.7, N=4)


def test_dirichlet_rejects_nonreal_data(dom):
    N = 4
    outer = np.zeros(2 * N + 1, dtype=complex)
    outer[N + 1] = 1.0  # e^{i theta} alone is not conjugate-symmetric
    with pytest.raises(ArgumentError):
        solve_dirichlet(dom, outer, np.zeros(2 * N + 1), N)


def test_dirichlet_rejects_non_finite_data(dom):
    N = 4
    outer = np.zeros(2 * N + 1, dtype=complex)
    outer[N] = np.nan
    with pytest.raises(ArgumentError, match="not finite"):
        solve_dirichlet(dom, outer, np.zeros(2 * N + 1), N)


# --------------------------------------------------------- harmonic measure

def test_harmonic_measure_geometric_mean_value():
    d = rs.make_annulus(0.25, 0.5)
    assert rs.harmonic_measure(d, 1)(0.5) == pytest.approx(0.5)


def test_measures_partition_unity(dom):
    rng = np.random.default_rng(1)
    w1 = rs.harmonic_measure(dom, 1)
    w2 = rs.harmonic_measure(dom, 2)
    rho = rng.uniform(0.51, 0.99, 20)
    th = rng.uniform(0, 2 * np.pi, 20)
    z = rho * np.exp(1j * th)
    assert np.max(np.abs(w1(z) + w2(z) - 1.0)) < 1e-14


def test_measure_boundary_values(dom):
    w1 = rs.harmonic_measure(dom, 1)
    theta = 2 * np.pi * np.arange(32) / 32
    assert np.max(np.abs(w1(np.exp(1j * theta)) - 1.0)) < 1e-14
    assert np.max(np.abs(w1(0.5 * np.exp(1j * theta)))) < 1e-14


def test_measure_bad_component(dom):
    with pytest.raises(ArgumentError):
        rs.harmonic_measure(dom, 3)


# ------------------------------------------------------------------ Green

def test_green_boundary_residual(dom):
    g = rs.green(dom, 0.7, N=64)
    theta = 2 * np.pi * np.arange(256) / 256
    res = max(np.max(np.abs(g(np.exp(1j * theta)))),
              np.max(np.abs(g(0.5 * np.exp(1j * theta)))))
    assert res <= 1e-10


def test_green_matches_image_series(dom):
    g = rs.green(dom, 0.7, N=64)
    pts = [0.6 + 0.1j, -0.8, 0.55j, 0.9, -0.52 - 0.3j, 0.97]
    for z in pts:
        assert g(z) == pytest.approx(green_images(z, 0.7, 0.5), abs=5e-12)


def test_green_symmetry(dom):
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = 0.5
        za, zb = [rho * np.exp(1j * t)
                  for rho, t in zip(rng.uniform(r + 0.08, 0.92, 2),
                                    rng.uniform(0, 2 * np.pi, 2))]
        ga = rs.green(dom, za, N=64)
        gb = rs.green(dom, zb, N=64)
        assert abs(ga(zb) - gb(za)) <= 1e-8


def test_green_positive_inside(dom):
    g = rs.green(dom, 0.7, N=64)
    rho = np.linspace(0.505, 0.995, 50)
    theta = 2 * np.pi * np.arange(50) / 50
    Z = (rho[:, None] * np.exp(1j * theta)[None, :]).ravel()
    assert np.min(g(Z)) > 0


def test_green_rejects_boundary_pole(dom):
    with pytest.raises(GeometryError):
        rs.green(dom, 0.5 + 5e-10)
    with pytest.raises(GeometryError):
        rs.green(dom, 1.2)


@pytest.mark.parametrize("r, pole", [(0.5, 0.7), (0.7, 0.955 * np.exp(0.3j)), (0.9, 0.95)])
def test_green_truncation_is_the_tail_bound(r, pole):
    d = rs.make_annulus(r, pole)
    assert rs.green(d, pole).truncation == tail_truncation(d, pole, 1e-15, 128)


@pytest.mark.parametrize("tol", [1e-12, 1e-15])   # the Blaschke and Green tolerances
@pytest.mark.parametrize("side", ["unit", "inner"])
def test_tail_truncation_cap_edge(dom, tol, side):
    # q = max(|a|, r/|a|): 0.99 needs at most 3438 terms, 0.995 at least 5513
    r = dom.inner_radius

    def pole(q):
        return (q if side == "unit" else r / q) * np.exp(0.3j)

    a = pole(0.99)
    q = max(abs(a), r / abs(a))
    N = tail_truncation(dom, a, tol, 64)
    assert N <= TRUNCATION_CAP
    assert q**N <= tol < q**(N - 1)
    a = pole(0.995)
    gap = 1.0 - abs(a) if side == "unit" else abs(a) - r
    with pytest.raises(ConvergenceError,
                       match=f"cap N = 4096: .* {gap:.3e} from the {side} circle"):
        tail_truncation(dom, a, tol, 64)


def test_dirichlet_rejects_nonpositive_determinant():
    # 1 - r^(2n) <= 0 only for data outside (0, 1); the check must survive -O
    bad = type("Ring", (), {"inner_radius": 1.5})()
    data = np.zeros(9, dtype=complex)
    with pytest.raises(ArgumentError, match="determinant"):
        solve_dirichlet(bad, data, data, 4)


# ---------------------------------------------------- FFT radial derivative

def _random_representation(rng, r, N):
    """Harmonic function with random conjugate-symmetric data on both circles."""
    data = []
    for _ in range(2):
        pos = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / np.arange(1, N + 1)
        data.append(np.concatenate([np.conj(pos[::-1]), [rng.standard_normal()], pos]))
    return solve_dirichlet(rs.make_annulus(r, 0.5 * (1 + r)), data[0], data[1], N)


# --------------------------------------------------------- point values

def _assert_matches_dense(values, h, z, offset=0.0):
    dense, scale = dense_harmonic_values(h, z)
    assert np.all(np.abs(values - (offset + dense)) <= 1e-13 * (scale + np.abs(offset)))


@pytest.mark.parametrize("seed", range(4))
def test_values_match_dense_table(seed):
    rng = np.random.default_rng(seed)
    r = (0.05, 0.3, 0.6, 0.9)[seed]
    h = _random_representation(rng, r, 64)
    z = rs.polar_grid(rs.make_annulus(r, 0.5 * (1 + r)), 12, inset=0.0)
    _assert_matches_dense(h(z), h, z)
    _assert_matches_dense(h(z.reshape(12, 12)), h, z.reshape(12, 12))
    value = h(complex(z[5]))
    assert isinstance(value, float)
    _assert_matches_dense(value, h, z[5])


@pytest.mark.parametrize("r, pole", [(0.3, 0.91), (0.3, 0.33j), (0.6, 0.66 * np.exp(2j)),
                                     (0.6, -0.91), (0.05, 0.055 + 0.005j)])
def test_green_values_match_dense_table(r, pole):
    # poles near each circle, at truncations the dense table can hold
    d = rs.make_annulus(r, pole)
    g = rs.green(d, pole)
    assert 128 <= g.truncation <= 400
    z = rs.polar_grid(d, 16, inset=0.01)
    _assert_matches_dense(g(z), g.corrector, z, offset=-np.log(np.abs(z - pole)))


def test_green_values_build_no_mode_by_point_table():
    # N = 2978 terms on 2500 points: a (modes x points) table needs over 100 MiB
    d = rs.make_annulus(0.3, 0.3035)
    g = rs.green(d, 0.3035)
    pts = rs.polar_grid(d, 50, inset=0.02)
    tracemalloc.start()
    try:
        g(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.truncation > 2000 and peak < 8 * 2**20


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m", [256, 101, 40, 16])  # m > 2N, and m <= N folds modes
def test_radial_derivative_on_circle_matches_dense(seed, m):
    rng = np.random.default_rng(seed)
    r = (0.2, 0.5, 0.7, 0.9)[seed]
    N = 48
    h = _random_representation(rng, r, N)
    theta = 2 * np.pi * np.arange(m) / m
    for rho in (1.0, r, math.sqrt(r)):
        dense = dense_radial_derivative(h, rho * np.exp(1j * theta))
        fft = h.radial_derivative_on_circle(rho, m)
        assert np.max(np.abs(fft - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_radial_derivative_on_circle_of_green_corrector():
    d = rs.make_annulus(0.7, 0.955 * np.exp(0.3j))
    g = rs.green(d, d.base_point, N=751)
    theta = 2 * np.pi * np.arange(512) / 512
    for rho in (1.0, 0.7):
        dense = dense_radial_derivative(g.corrector, rho * np.exp(1j * theta))
        fft = g.corrector.radial_derivative_on_circle(rho, 512)
        assert np.max(np.abs(fft - dense)) <= 1e-13 * np.max(np.abs(dense))


# ------------------------------------------------- normal derivative & mass

def test_normal_derivative_of_measure_closed_form(dom):
    # the node oracle's outward derivative of omega_1 is +-1/(rho log(1/r))
    L = math.log(2.0)
    w1 = rs.harmonic_measure(dom, 1)
    dn = node_normal_derivative(w1, boundary_node_list(dom, 16))
    assert np.max(np.abs(dn[:16] - 1.0 / L)) < 1e-14
    assert np.max(np.abs(dn[16:] + 1.0 / (0.5 * L))) < 1e-14


def test_measure_mass_is_one(dom):
    for pole in (0.7, 0.55 - 0.2j, 0.9j):
        _, w = measure_quadrature(rs.make_annulus(0.5, pole), 512)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-10)


def test_measure_density_positive(dom):
    dens = rs.measure_density(dom, 64)
    assert dens.shape == (128,)
    assert np.min(dens) > 0


# ----------------------------------------------------------------- Schottky

def test_schottky_reflection_symmetry():
    d = rs.make_annulus(0.5, math.sqrt(0.5) * np.exp(1j * np.pi / 4))
    m = 16
    vals = rs.schottky(d, m)[:m]
    # reflection through the axis arg z = pi/4: theta -> pi/2 - theta
    for k in range(m):
        theta_ref = (np.pi / 2 - 2 * np.pi * k / m) % (2 * np.pi)
        j = int(round(theta_ref / (2 * np.pi / m))) % m
        assert vals[k] == pytest.approx(vals[j], rel=1e-10, abs=1e-10)


def test_schottky_measure_pairing_vanishes(dom):
    # integral of s_1 d omega = -(1/2pi) integral of d omega_1/dn ds = flux = 0
    _, ds = boundary_quadrature(dom, 256)
    dens = rs.measure_density(dom, 256)
    s1 = rs.schottky(dom, 256)
    assert np.sum(s1 * dens * ds) == pytest.approx(0.0, abs=1e-10)
    # oracle: direct quadrature of the measure-density numerator
    nodes = boundary_node_list(dom, 256)
    w1 = rs.harmonic_measure(dom, 1)
    flux = np.sum(node_normal_derivative(w1, nodes) * np.array([w for _, _, w in nodes]))
    assert flux == pytest.approx(0.0, abs=1e-10)


# Frozen from an N=128 run of the node-by-node Schottky function (regression
# fixture for the dense oracle).
SCHOTTKY_OUTER_8 = [-0.3332271429309069, -5.6197432621467005, -196.89292889586457,
                    -6915.264730748424, -121643.94154092442, -6915.264730755784,
                    -196.89292889585562, -5.61974326214671]
SCHOTTKY_INNER_8 = [0.304060415819724, 5.590576535066371, 196.86376220694848,
                    6915.235611157691, 121643.92695791823, 6915.23561115769,
                    196.8637622069455, 5.590576535066378]


def test_schottky_eight_node_fixture(dom):
    vals = node_schottky(dom, 8, N=128)
    assert vals[:8] == pytest.approx(SCHOTTKY_OUTER_8, rel=1e-12)
    assert vals[8:] == pytest.approx(SCHOTTKY_INNER_8, rel=1e-12)


def _flux_term_sum(domain, m, N):
    """``sum |terms|`` of the outward ``dg/dn`` at each boundary node: the
    ``-log|z - a|`` term, the log mode and every corrector mode."""
    g = rs.green(domain, domain.base_point, N)
    c = g.corrector
    out = []
    for rho in (1.0, domain.inner_radius):
        z = rho * np.exp(2j * np.pi * np.arange(m) / m)
        sing = np.abs(np.real((z / rho) * np.conj(z - g.pole))) / np.abs(z - g.pole)**2
        modes = np.sum((c.ns / rho) * (np.abs(c.A) * rho**c.ns
                                       + np.abs(c.Bhat) * (c.rref / rho)**c.ns))
        out.append(sing + abs(c.clog) / rho + modes)
    return np.concatenate(out)


@pytest.mark.parametrize("r, base, m", [(0.5, 0.7, 8), (0.5, 0.7, 512),
                                        (0.3, 0.4 - 0.3j, 512),
                                        (0.7, 0.955 * np.exp(0.3j), 512), (0.9, 0.95, 512)])
def test_schottky_matches_node_oracle_to_flux_rounding(r, base, m):
    # s_1 = (d omega_1/dn) / (dg/dn), and dg/dn is a sum of O(1) terms that
    # cancel where it is small (1e-5 at the fixture's node 4), so neither
    # route is good to eps there.  Summing N + 3 terms one after another (the
    # dense oracle) errs by at most (N + 3) eps sum|terms|, the FFT by about
    # log2(m) eps sum|terms|, and the division adds eps relative.
    d = rs.make_annulus(r, base)
    N = tail_truncation(d, base, 1e-15, 128)
    dgdn = node_normal_derivative(rs.green(d, d.base_point, N), boundary_node_list(d, m))
    if r == 0.9:
        # converged, the far-side dg/dn is about e^{-pi^2/(1-r)}, near 1e-43
        assert np.min(np.abs(dgdn)) < 1e-14
        with pytest.raises(ConvergenceError, match="vanished"):
            rs.schottky(d, m)
        return
    fft = rs.schottky(d, m)
    dense = node_schottky(d, m, N=N)
    ulps = N + 4 + math.log2(m)
    bound = ulps * np.finfo(float).eps * _flux_term_sum(d, m, N) / np.abs(dgdn)
    assert np.all(np.abs(fft / dense - 1.0) <= bound)


def test_schottky_vanishing_flux_is_typed(dom, monkeypatch):
    monkeypatch.setattr(rs.harmonic, "green_boundary_flux",
                        lambda domain, m: np.zeros(2 * m))
    with pytest.raises(ConvergenceError, match="vanished"):
        rs.schottky(dom, 8)


# -------------------------------------------------------- conjugate periods

def test_conjugate_periods_of_measures():
    d = rs.make_annulus(math.exp(-1.0), 0.6)
    assert rs.conjugate_period(rs.harmonic_measure(d, 1)) == pytest.approx(2 * np.pi)
    assert rs.conjugate_period(rs.harmonic_measure(d, 2)) == pytest.approx(-2 * np.pi)


def test_conjugate_period_of_pure_mode():
    h = HarmonicRepresentation(0.0, 0.0, 0.5, np.array([3]), np.array([1.0 + 0.5j]),
                               np.array([0.25 / 0.5**3]))
    assert rs.conjugate_period(h) == 0.0


# ------------------------------------------------------ analytic completion

def test_completion_of_outer_measure_exponentiates_cleanly():
    d = rs.make_annulus(math.exp(-1.0), 0.6)
    w1 = rs.harmonic_measure(d, 1)
    F = rs.analytic_completion(w1)
    # omega_1 = 1 + log|z| here: the completion 1 + log z has the integer log
    # coefficient 1, so its exp z * e^F is single-valued
    assert w1.clog == 1.0
    assert rs.conjugate_period(w1) == pytest.approx(2 * np.pi)
    z = 0.5 * np.exp(1.3j)
    assert complex(F(z)) == 1.0
    assert abs(z * np.exp(F(z))) == pytest.approx(np.exp(w1(z)), rel=1e-14)


def test_completion_real_part_is_the_function(dom):
    g = rs.green(dom, 0.66 + 0.12j, N=48)
    h = g.corrector
    F = rs.analytic_completion(h)
    rng = np.random.default_rng(5)
    z = rng.uniform(0.55, 0.95, 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
    assert np.max(np.abs(np.real(F(z)) + h.clog * np.log(np.abs(z)) - h(z))) < 1e-12


def test_completion_single_valued_when_no_log(dom):
    N = 8
    outer = np.zeros(2 * N + 1, dtype=complex)
    outer[N + 2] = 0.5 - 0.25j
    outer[N - 2] = np.conj(outer[N + 2])
    h = solve_dirichlet(dom, outer, np.zeros(2 * N + 1), N)
    assert h.clog == 0.0 and rs.conjugate_period(h) == 0.0
    F = rs.analytic_completion(h)
    z = np.array([0.7 + 1e-14j, 0.7 - 1e-14j, 0.6 * np.exp(2.0j)])
    assert np.max(np.abs(np.real(F(z)) - h(z))) < 1e-14
    assert complex(F(z[0])) == pytest.approx(complex(F(z[1])), abs=1e-12)


# ------------------------------------------------------ point-mass kernels

def _radial_profile(dom, z, n):
    # mode-n solution with data cos(n theta) on outer, 0 on inner
    r = dom.inner_radius
    rho = abs(z)
    B = -(r ** (2 * n)) / (1 - r ** (2 * n))
    A = 1.0 - B
    return A * rho**n + B * rho**(-n)


def test_point_mass_kernel_pairs_like_harmonic_extension(dom):
    # (1/2pi) integral f(phi) p(z; phi) dphi must equal the harmonic extension
    # of boundary data f; by rotation equivariance p(z; phi) = p(z e^{-i phi}; 0).
    N = 32
    p0 = point_mass_kernel(dom, 1, 0.0, N)
    z = 0.77 * np.exp(0.4j)
    m = 1024
    phis = 2 * np.pi * np.arange(m) / m
    pairing = np.sum(np.cos(2 * phis) * p0(z * np.exp(-1j * phis))) / m
    expected = _radial_profile(dom, z, 2) * np.cos(2 * 0.4)
    assert pairing == pytest.approx(expected, abs=1e-12)


def test_point_mass_kernel_vanishes_on_other_circle(dom):
    p = point_mass_kernel(dom, 1, 0.3, 32)
    theta = 2 * np.pi * np.arange(64) / 64
    assert np.max(np.abs(p(0.5 * np.exp(1j * theta)))) < 1e-12
    q = point_mass_kernel(dom, 2, 0.3, 32)
    assert np.max(np.abs(q(np.exp(1j * theta)))) < 1e-12
