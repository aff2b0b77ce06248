import dataclasses
import math
import warnings

import numpy as np
import pytest

import ringspace as rs
from ringspace.errors import ArgumentError, ConvergenceError, GeometryError, PeriodError
from ringspace.geometry import polar_grid, ring_nodes
from ringspace.harmonic import tail_truncation
from ringspace.kernels import count_zeros, full_ring
from ringspace.laurent import LaurentPolynomial, to_laurent
from ringspace.spaces import (area_quadrature, bergman_tag, boundary_quadrature, hardy_tag,
                              norm as space_norm, quadrature_for)

from oracles import (boundary_node_list, dirichlet_blaschke, division_pencil,
                     division_ratios_per_trial, horner_count, horner_ring_values, node_schottky,
                     rayleigh_maximize, truncated_singular_inner)


# ------------------------------------------------------------ single factor

def test_blaschke_factor_half_lattice_example():
    # r = e^-1, |a| = e^-1/2: omega_2(a) = 1/2, lambda = 1/2, moduli (e^1/2, 1)
    d = rs.make_annulus(math.exp(-1.0), 0.6)
    a = math.exp(-0.5)
    B = rs.blaschke_factor(d, a)
    assert B.lam == pytest.approx(0.5, abs=1e-14)
    assert B.boundary_moduli[0] == pytest.approx(math.exp(0.5))
    assert B.boundary_moduli[1] == pytest.approx(1.0)
    v = rs.verify_inner(B, d, m=256)
    assert v.c1 == pytest.approx(math.exp(0.5), rel=1e-10)
    assert v.c2 == pytest.approx(1.0, rel=1e-10)
    assert v.dev1 <= 1e-8 and v.dev2 <= 1e-8
    assert v.passed


def test_blaschke_factor_lambda_is_log_inverse_modulus(dom):
    # lambda = log(1/r) * omega_2(a) collapses to log(1/|a|)
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.uniform(0.55, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        B = rs.blaschke_factor(dom, a)
        assert B.lam == pytest.approx(math.log(1.0 / abs(a)), rel=1e-12)


def test_blaschke_factor_vanishes_only_at_zero(dom):
    a = 0.8 * np.exp(0.5j)
    B = rs.blaschke_factor(dom, a)
    assert abs(B(a)) <= 1e-10
    assert count_zeros(B, dom, full_ring(dom)) == horner_count(B, full_ring(dom)) == 1


def test_blaschke_factor_modulus_constancy(dom):
    B = rs.blaschke_factor(dom, 0.7)
    v = rs.verify_inner(B, dom, m=256)
    assert v.dev1 <= 1e-8 and v.dev2 <= 1e-8


def test_blaschke_factor_positive_at_base(dom):
    B = rs.blaschke_factor(dom, 0.8j)
    val = complex(B(0.7))
    assert abs(val.imag) <= 1e-12 * abs(val)
    assert val.real > 0
    # a zero at the base point: there the derivative is positive
    z0 = 0.6 + 0.3j
    slope = complex(rs.blaschke_factor(rs.make_annulus(0.5, z0), z0)(z0 + 1e-7)) / 1e-7
    assert abs(slope.imag) <= 1e-5 * abs(slope) and slope.real > 0


def test_blaschke_factor_boundary_zero_rejected(dom):
    with pytest.raises(GeometryError):
        rs.blaschke_factor(dom, 0.5)
    with pytest.raises(GeometryError):
        rs.blaschke_factor(dom, 1.0 + 0j)


def _lattice_shift(B, k):
    # one lattice step k log(1/r) of the period remover: a factor (e^L z)^k
    L = B.domain.log_gap
    return dataclasses.replace(B, lam=B.lam + k * L, power=B.power + k,
                               series=B.series + k * L)


def test_lattice_shift_scales_outer_modulus(dom):
    B0 = rs.blaschke_factor(dom, 0.7)
    B1 = _lattice_shift(B0, 1)
    assert B1.lam == pytest.approx(B0.lam + math.log(2.0))
    assert B1.boundary_moduli[0] == pytest.approx(B0.boundary_moduli[0] / 0.5)
    assert B1.boundary_moduli[1] == pytest.approx(B0.boundary_moduli[1])
    v = rs.verify_inner(B1, dom, m=128)
    assert v.passed  # lattice shifts preserve single-valuedness and constancy


# ---------------------------------------------------------------- products

def test_blaschke_product_counts_finite_zeros(dom):
    zeros = (0.7, 0.6j, -0.8, 0.7)  # multiplicity two at 0.7
    B = rs.blaschke_product(dom, zeros)
    assert count_zeros(B, dom, full_ring(dom)) == horner_count(B, full_ring(dom)) == 4
    assert 0.0 < B.lam <= math.log(2.0) + 1e-12


def test_blaschke_product_empty_is_unit(dom):
    B = rs.blaschke_product(dom, ())
    z = rs.polar_grid(dom, 4, inset=0.1)
    assert np.max(np.abs(B(z) - 1.0)) == 0.0


def test_blaschke_zero_near_the_unit_circle_is_inner(dom06):
    # 0.997^4096 = 4.5e-6 > 1e-12: a Dirichlet-solved factor is not inner to
    # 1e-12 at any window up to 4096; the closed form's series has 57 terms at
    # r = 0.5 wherever the zero is
    eps = np.finfo(float).eps
    B = rs.blaschke_factor(dom06, 0.997)
    assert (B.series.hi, B.lam, B.power, B.period_residual) == (57, -math.log(0.997), 0, 0.0)
    v = rs.verify_inner(B, dom06)
    assert v.dev1 <= 16 * eps * v.c1 and v.dev2 <= 16 * eps * v.c2
    assert rs.verify_inner(rs.blaschke_product(dom06, (0.7, 0.997j)), dom06).passed
    grid = polar_grid(dom06, 16, inset=0.1)
    longer = (grid - 0.997) * dirichlet_blaschke(dom06, 0.997, 16384)(grid)
    assert np.max(np.abs(B(grid) - longer)) <= 1e-14


@pytest.mark.parametrize("r, a", [(0.5, 0.7), (0.3, 0.31), (0.05, 0.0505), (0.5, 0.55 - 0.3j),
                                  (0.7, 0.955 * np.exp(0.3j)), (0.9, 0.95)])
def test_blaschke_closed_form_matches_the_dirichlet_oracle(r, a):
    d = rs.make_annulus(r, (1 + r) / 2)
    grid = polar_grid(d, 32, inset=0.05)
    oracle = (grid - a) * dirichlet_blaschke(d, a, tail_truncation(d, a, 1e-15, 128))(grid)
    assert np.max(np.abs(rs.blaschke_factor(d, a)(grid) - oracle) / np.abs(oracle)) <= 1e-13


@pytest.mark.parametrize("r", [0.05, 0.3, 0.5, 0.7, 0.9])
def test_blaschke_modulus_is_constant_next_to_each_circle(r):
    # a node rounded off its circle by eps rho moves log|B| by about eps rho / gap:
    # that is the rounding floor for a zero a gap of 1e-3 from the circle
    d, eps, gap = rs.make_annulus(r, (1 + r) / 2), np.finfo(float).eps, 1e-3
    for a in ((1 - gap) * np.exp(0.4j), 1 - gap, (r + gap) * np.exp(-2.1j), r + gap):
        B = rs.blaschke_factor(d, a)
        v = rs.verify_inner(B, d)
        assert v.c1 == pytest.approx(1 / abs(a), rel=1e-14)
        assert v.c2 == pytest.approx(1.0, rel=1e-14)
        assert v.dev1 <= 4 * eps / gap * v.c1 and v.dev2 <= 4 * eps * r / gap * v.c2


def test_blaschke_zero_next_to_a_small_inner_circle():
    # r = 0.05, a = 0.0505: the near factor v - r^2 is smallest relative to r^2
    # (the Dirichlet series' inner coefficients, about (r^2/|a|)^n, underflow here)
    d, eps = rs.make_annulus(0.05, 0.5), np.finfo(float).eps
    v = rs.verify_inner(rs.blaschke_factor(d, 0.0505), d)
    assert v.c1 == pytest.approx(1 / 0.0505, rel=1e-14)
    assert v.dev1 <= 16 * eps * v.c1 and v.dev2 <= 4 * eps * 0.05 / 5e-4 * v.c2


def test_blaschke_factor_past_the_prime_series_cap_is_typed():
    # r = 0.9999999 would need 3.9e8 prime-function terms: typed before any is built
    d = rs.make_annulus(0.9999999, 0.99999995)
    with pytest.raises(ConvergenceError, match="cap N = 4096: r = "):
        rs.blaschke_factor(d, 0.99999995)


# ------------------------------------------------------------ singular inner

def test_singular_inner_empty_measure_is_scaled_identity(dom):
    S = rs.singular_inner(dom, rs.AtomicSingularMeasure.empty())
    assert S.lam == pytest.approx(math.log(2.0))
    assert S.power == 1
    z = 0.6 + 0.2j
    assert complex(S(z)) == pytest.approx(z / 0.5, rel=1e-12)
    assert S.boundary_moduli[0] == pytest.approx(2.0)
    assert S.boundary_moduli[1] == pytest.approx(1.0)


def test_singular_inner_single_atom(dom):
    mu = rs.AtomicSingularMeasure(atoms=((1.0 + 0j, -1.0),))
    S = rs.singular_inner(dom, mu)
    # counted as the CLI counts: the zero-free atom factor underflows next to
    # its atom on the counting circle and winds 0, so it is left out
    atom_free = dataclasses.replace(S, singular=rs.AtomicSingularMeasure.empty())
    ring = full_ring(dom)
    assert count_zeros(atom_free, dom, ring) == horner_count(atom_free, ring) == 0
    theta = 2 * np.pi * np.arange(256) / 256
    inner_vals = np.abs(S(0.5 * np.exp(1j * theta)))
    assert np.max(np.abs(inner_vals - inner_vals.mean())) <= 1e-7
    assert S.period_residual <= 1e-8


def test_singular_inner_maximum_principle(dom):
    # the closed-form atoms carry no Gibbs overshoot, so the grid reaches to
    # 1% of the circles
    mu = rs.AtomicSingularMeasure(atoms=((1.0 + 0j, -0.8), (0.5j * 1.0, -0.3)))
    S = rs.singular_inner(dom, mu)
    grid = polar_grid(dom, 24, inset=0.01)
    assert np.max(np.abs(S(grid))) <= max(S.boundary_moduli) * (1 + 1e-7)


def test_singular_inner_modulus_dips_toward_atom(dom):
    # non-positive masses pull |S| down near the carrier
    mu = rs.AtomicSingularMeasure(atoms=((1.0 + 0j, -1.0),))
    S = rs.singular_inner(dom, mu)
    near = abs(complex(S(0.97)))
    far = abs(complex(S(-0.97)))
    assert near < far


def test_singular_period_bookkeeping_failure_is_typed(dom, monkeypatch):
    # a period remover without its log term leaves the atoms' period uncancelled
    monkeypatch.setattr(rs.inner, "harmonic_measure",
                        lambda domain, j: rs.HarmonicRepresentation(0.0, 0.0, 0.5))
    mu = rs.AtomicSingularMeasure(atoms=((1.0 + 0j, -0.5),))
    with pytest.raises(PeriodError, match="bookkeeping"):
        rs.singular_inner(dom, mu)


def test_singular_lattice_step_is_independent_of_truncation(dom):
    # each atom's log term is +-1/log r for the closed form's correction and
    # for the truncated kernel at every N, so lam and power are the same bits
    mu = rs.AtomicSingularMeasure(atoms=((1.0 + 0j, -0.8), (0.5j, -0.3)))
    S = rs.singular_inner(dom, mu)
    for n in (64, 128):
        T = truncated_singular_inner(dom, mu, n)
        assert (S.lam, S.power) == (T.lam, T.power)
    assert S.period_residual <= 1e-8


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
def test_singular_inner_matches_truncated_kernel_oracle(r):
    # inside the ring the truncated kernel converges like max(rho, r/rho)^N,
    # so at N = 512 it pins the closed form down to rounding
    d = rs.make_annulus(r, (1.0 + r) / 2)
    mu = rs.AtomicSingularMeasure(atoms=((1.0 + 0j, -0.8), (r * 1j, -0.3)))
    grid = polar_grid(d, 24)
    exact = rs.singular_inner(d, mu)(grid)
    oracle = truncated_singular_inner(d, mu, 512)(grid)
    assert np.max(np.abs(exact - oracle) / np.abs(oracle)) <= 1e-12


def test_singular_inner_is_zero_on_its_atoms(dom):
    # ring nodes land on atoms at angles 0 and pi/2 up to rounding (0.5 e^{i pi/2}
    # is 3e-17 from 0.5i); there the factor takes its radial limit 0
    mu = rs.AtomicSingularMeasure(atoms=((1.0 + 0j, -1.0), (0.5j, -0.25), (-1.0 + 0j, 0.0)))
    S = rs.singular_inner(dom, mu)
    values = np.abs(S.on_rings([1.0, 0.5], 8))
    assert values[0, 0] == 0.0 and values[1, 2] == 0.0
    assert np.all(np.isfinite(values)) and values[0, 4] > 0.0
    assert np.array_equal(np.abs(S(np.array([1.0, 0.5j]))), [0.0, 0.0])


def test_singular_inner_stays_finite_next_to_an_atom(dom):
    # a node whose modulus rounds above 1, 1e-11 from an atom: there Re H is
    # about -2e6, and exp of the unclamped exponent overflows
    nodes = ring_nodes([1.0], 512).ravel()
    k = int(np.argmax(np.abs(nodes)))
    assert np.abs(nodes[k]) > 1.0
    atom = np.exp(1j * (2 * np.pi * k / 512 + 1e-11))
    S = rs.singular_inner(dom, rs.AtomicSingularMeasure(atoms=((atom, -0.5),)))
    assert np.all(np.isfinite(S.on_rings([1.0], 512)))


def test_singular_correction_window_is_capped():
    d = rs.make_annulus(0.995, 0.9975)
    with pytest.raises(ConvergenceError, match="cap N = 4096"):
        rs.singular_inner(d, rs.AtomicSingularMeasure(atoms=((1.0 + 0j, -0.5),)))
    assert rs.singular_inner(d, rs.AtomicSingularMeasure.empty()).power == 1


def test_atomic_measure_validation(dom):
    with pytest.raises(ArgumentError):
        rs.AtomicSingularMeasure(atoms=((1.0 + 0j, 0.5),))
    with pytest.raises(GeometryError):
        rs.singular_inner(dom, rs.AtomicSingularMeasure(atoms=((0.7 + 0j, -1.0),)))


# ------------------------------------------------------------- verification

@pytest.mark.parametrize("m", [128, 256, 1024])
@pytest.mark.parametrize("atom", [1.0, 0.5], ids=["outer", "inner"])
def test_verify_inner_passes_an_atom_on_a_quadrature_node(dom, atom, m):
    # angle 0 is a node of every quadrature, where the atom's factor is 0;
    # verify_inner samples half a spacing off the nodes
    S = rs.singular_inner(dom, rs.AtomicSingularMeasure(atoms=((atom, -0.5),)))
    v = rs.verify_inner(S, dom, m=m)
    assert v.passed
    assert v.c1 == pytest.approx(S.boundary_moduli[0], rel=1e-12)
    assert v.c2 == pytest.approx(1.0, rel=1e-12)


def test_verify_inner_on_z_squared(dom):
    v = rs.verify_inner(lambda z: np.asarray(z) ** 2, dom, m=128)
    assert v.c1 == pytest.approx(1.0)
    assert v.c2 == pytest.approx(0.25)
    assert v.dev1 <= 1e-14 and v.dev2 <= 1e-14
    assert v.passed


def test_verify_inner_rejects_shifted_identity(dom):
    v = rs.verify_inner(lambda z: np.asarray(z) + 2.0, dom, m=128)
    assert not v.passed
    assert v.dev1 > 0.5


# ------------------------------------------------------- orthogonality check

def test_orthogonality_of_monomials(dom):
    for k in (-2, 1, 3):
        f = LaurentPolynomial.from_dict({k: 1.0})
        assert rs.check_orthogonality(f, dom, N=8) <= 1e-12


def test_orthogonality_control_has_first_moment(dom):
    # f = 1 + z/2: <z f, f> = pi (1 + r^3), <z^-1 f, f> = pi (1 + r)
    f = LaurentPolynomial.from_dict({0: 1.0, 1: 0.5})
    worst = rs.check_orthogonality(f, dom, N=4)
    direct_n1 = np.pi * (1 + 0.5 ** 3)
    direct_nm1 = np.pi * (1 + 0.5)
    assert worst == pytest.approx(max(direct_n1, direct_nm1), rel=1e-12)
    assert worst > 1e-3


def test_orthogonality_of_truncated_blaschke_factor(dom):
    # zero at the geometric-mean radius balances the two coefficient tails;
    # the check range stays well inside the window because the arclength
    # weight amplifies the first omitted negative coefficient by r^(-2n)
    a = math.sqrt(0.5) * np.exp(0.6j)
    B = rs.blaschke_factor(dom, a)
    f = to_laurent(B, dom, -64, 64)
    assert rs.check_orthogonality(f, dom, N=16) <= 1e-6


def test_orthogonality_past_the_double_range_of_the_norms():
    # at r = 0.3, ||z^n||^2 overflows a double from n = -295 on; the pairing
    # of a +-400 window is still the finite sum of its formula
    mpmath = pytest.importorskip("mpmath")
    d = rs.make_annulus(0.3, math.sqrt(0.3))
    f = to_laurent(rs.blaschke_factor(d, 0.95), d, -400, 400)
    got = rs.check_orthogonality(f, d, 16)
    with mpmath.workdps(40):
        r = mpmath.mpf(0.3)
        c = {j: mpmath.mpc(complex(x)) for j, x in zip(range(f.lo, f.hi + 1), f.coeffs)}
        want = max(abs(mpmath.fsum(c[j] * mpmath.conj(c[j + n]) * 2 * mpmath.pi
                                   * (1 + r**(2 * (j + n) + 1))
                                   for j in c if j + n in c))
                   for n in range(-16, 17) if n != 0)
        assert np.isfinite(got) and got > 0.0
        assert abs(got - want) <= 1e-10 * want


def test_constant_modulus_iff_orthogonal(dom):
    # equivalence probed on the truncated class: the inner function passes
    # both gates, the control fails both
    a = math.sqrt(0.5) * np.exp(-0.9j)
    B = rs.blaschke_factor(dom, a)
    fB = to_laurent(B, dom, -64, 64)
    assert rs.verify_inner(B, dom).passed
    assert rs.check_orthogonality(fB, dom, N=16) <= 1e-6
    control = LaurentPolynomial.from_dict({0: 1.0, 1: 0.5})
    assert not rs.verify_inner(control, dom).passed
    assert rs.check_orthogonality(control, dom, N=4) > 1e-3


# ------------------------------------------------------------ single-valued

def test_constructed_inner_functions_have_integer_periods(dom):
    specs = [
        rs.blaschke_factor(dom, 0.7),
        _lattice_shift(rs.blaschke_factor(dom, 0.8j), -1),
        rs.singular_inner(dom, rs.AtomicSingularMeasure(atoms=((1.0 + 0j, -0.5),))),
        rs.qc_divisor(dom, (0.7, 0.6j))[0],
    ]
    theta = 2 * np.pi * np.arange(512) / 512
    rho = math.sqrt(0.5)
    for spec in specs:
        assert spec.period_residual <= 1e-8
        vals = spec(rho * np.exp(1j * theta))
        vals = np.append(vals, vals[0])
        winding = (np.unwrap(np.angle(vals))[-1] - np.angle(vals[0])) / (2 * np.pi)
        inside = sum(1 for a in spec.zeros if abs(a) < rho)
        assert winding == pytest.approx(spec.power + inside, abs=1e-8)


# -------------------------------------------------------------- schottky fit

def test_schottky_fit_of_unit_function(dom):
    lam1, residual = rs.schottky_fit(lambda z: np.ones(np.shape(z)), dom, m=256)
    assert lam1 == pytest.approx(0.0, abs=1e-14)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_schottky_fit_of_identity_function(dom):
    # |z|^2 - 1 is locally constant per circle but not a Schottky multiple
    lam1, residual = rs.schottky_fit(lambda z: np.asarray(z), dom, m=256)
    assert residual > 1e-3


def test_schottky_fit_vanishing_flux_is_typed(dom, monkeypatch):
    monkeypatch.setattr(rs.harmonic, "measure_density", lambda domain, m: np.zeros(2 * m))
    with pytest.raises(ConvergenceError, match="vanished"):
        rs.schottky_fit(lambda z: np.ones(np.shape(z)), dom, m=64)


def test_schottky_fit_rejects_too_few_nodes(dom):
    with pytest.raises(ArgumentError, match="at least 4"):
        rs.schottky_fit(lambda z: np.ones(np.shape(z)), dom, m=2)


def test_schottky_fit_matches_dense_schottky(dom):
    # the per-circle flux ratio equals the node-by-node Schottky function
    nodes = boundary_node_list(dom, 128)
    pts = np.array([p for p, _, _ in nodes])
    ds = np.array([w for _, _, w in nodes])
    s1 = node_schottky(dom, 128, N=tail_truncation(dom, dom.base_point, 1e-15, 128))
    f = lambda z: 1.0 + 0.3 * np.asarray(z)
    y = np.abs(f(pts))**2 - 1.0
    lam_dense = float(np.sum(ds * s1 * y) / np.sum(ds * s1 * s1))
    lam1, _ = rs.schottky_fit(f, dom, m=128)
    assert lam1 == pytest.approx(lam_dense, rel=1e-12)


# ----------------------------------------------------------------- divisors

def test_qc_divisor_constant(dom):
    _, C = rs.qc_divisor(dom, (0.7,))
    assert C == 2.0


def test_qc_divisor_empty_is_period_remover(dom):
    G, C = rs.qc_divisor(dom)
    theta = 2 * np.pi * np.arange(64) / 64
    outer = np.abs(G(np.exp(1j * theta)))
    inner_v = np.abs(G(0.5 * np.exp(1j * theta)))
    assert np.max(np.abs(outer - 2.0)) <= 1e-12
    assert np.max(np.abs(inner_v - 1.0)) <= 1e-12


def test_qc_divisor_boundary_bounds(dom):
    G, C = rs.qc_divisor(dom, (0.7, 0.6j))
    theta = 2 * np.pi * np.arange(512) / 512
    mods = np.concatenate([np.abs(G(np.exp(1j * theta))),
                           np.abs(G(0.5 * np.exp(1j * theta)))])
    assert mods.min() >= 1 - 1e-7
    assert mods.max() <= C + 1e-7


def test_division_bounds(dom):
    G, C = rs.qc_divisor(dom, (0.7, 0.6j))
    rep = rs.division_bound_check(G, dom)
    assert rep.max_ratio <= C + 1e-6
    assert rep.min_ratio >= 1 / C - 1e-6


def test_division_bounds_are_attained_by_monomials(dom):
    # ||h|| ||G|| / ||G h|| on the Hardy quadrature: z^-30 puts h's mass on the
    # inner circle (|G| = 1) and z^30 on the outer one (|G| = e^lam), up to r^60
    G, C = rs.qc_divisor(dom, (0.7, 0.6j))
    rep = rs.division_bound_check(G, dom)
    pts, w = quadrature_for(dom, hardy_tag(), 512)
    g_sq = np.abs(G(pts))**2
    assert rep.max_ratio == pytest.approx(math.sqrt(np.sum(w * g_sq)), rel=1e-12)
    for n, extreme in ((-30, rep.max_ratio), (30, rep.min_ratio)):
        h_sq = np.abs(pts**n)**2
        ratio = rep.max_ratio * math.sqrt(np.sum(w * h_sq) / np.sum(w * g_sq * h_sq))
        assert ratio == pytest.approx(extreme, rel=1e-12)


def test_division_by_unimodular_constant_is_isometric(dom):
    G = rs.unit_inner(dom)
    phase = rs.InnerFunctionSpec(domain=dom, zeros=(), singular=G.singular,
                                 lam=0.0, power=0,
                                 series=LaurentPolynomial.constant(0.4j))
    rep = rs.division_bound_check(phase, dom)
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.min_ratio == pytest.approx(1.0, abs=1e-9)


def test_division_with_constant_h_attains_lower_range(dom):
    G, C = rs.qc_divisor(dom, (0.7,))
    g_norm = space_norm(G, dom, hardy_tag())
    from ringspace.spaces import quadrature_for
    pts, w = quadrature_for(dom, hardy_tag(), 512)
    gv = np.asarray(G(pts)) / g_norm
    ratio = 1.0 / math.sqrt(float(np.sum(w * np.abs(gv) ** 2)))
    assert ratio >= 1 / C - 1e-6


def test_multiply_reduces_into_one_lattice_cell(dom):
    B1 = rs.blaschke_factor(dom, 0.55)
    B2 = rs.blaschke_factor(dom, 0.6)
    B3 = rs.blaschke_factor(dom, 0.9)
    prod = rs.multiply(rs.multiply(B1, B2), B3)
    L = math.log(2.0)
    assert 0.0 < prod.lam <= L + 1e-12
    assert prod.boundary_moduli[0] == pytest.approx(math.exp(prod.lam))


# ------------------------------------------------------- ring evaluation by FFT

def _assert_on_rings_matches_pointwise(f, pts, m, rtol=1e-13):
    rings = pts.size // m
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fast = f.on_rings(np.abs(pts[::m]), m)
        slow = np.asarray(f(pts)).reshape(rings, m)
    scale = np.max(np.abs(slow), axis=1)
    assert np.max(np.abs(fast - slow).max(axis=1) / scale) <= rtol


@pytest.mark.parametrize("quadrature", ["area", "boundary"])
def test_inner_spec_on_rings_near_the_outer_circle(dom, quadrature):
    # |a| = 0.99: the Dirichlet-solved factor's zero-free part, at its tail-bound
    # window for 1e-12, has a series of thousands of terms a side
    a = 0.99 * np.exp(0.3j)
    solved = dirichlet_blaschke(dom, a, tail_truncation(dom, a, 1e-12, 64))
    assert solved.series.hi - solved.series.lo + 1 > 4000
    B = rs.blaschke_factor(dom, a)
    product = rs.multiply(B, rs.blaschke_factor(dom, -0.6 + 0.2j))
    quad = area_quadrature if quadrature == "area" else boundary_quadrature
    pts, _ = quad(dom, 512)
    singular = rs.singular_inner(dom, rs.AtomicSingularMeasure(atoms=((np.exp(1j), -0.5),)))
    for spec in (solved, B, product, singular):
        _assert_on_rings_matches_pointwise(spec, pts, 512)


@pytest.mark.parametrize("quadrature", ["area", "boundary"])
def test_candidate_divisor_on_rings(dom06, quadrature):
    cand = rs.candidate_divisor(dom06, -0.7, N=96)
    quad = area_quadrature if quadrature == "area" else boundary_quadrature
    pts, _ = quad(dom06, 512)
    _assert_on_rings_matches_pointwise(cand, pts, 512)


@pytest.mark.parametrize("turn", [2 * np.pi * 3 / 2**19, 0.3, -1.1])
def test_on_rings_turn_matches_rotated_points(dom06, turn):
    # nodes rho e^{i turn} e^{2 pi i k/m}: the sub-rings of a zero count
    m, radii = 512, np.array([0.5, 0.75, 1.0])
    ns = np.arange(-300, 301)
    rng = np.random.default_rng(4)
    scale = np.where(ns >= 0, 0.97 ** ns, (0.97 * 0.5) ** -ns)
    f = LaurentPolynomial(-300, 300, (rng.standard_normal(601) + 1j * rng.standard_normal(601))
                          * scale)
    B = rs.blaschke_factor(dom06, 0.99 * np.exp(0.3j))
    cand = rs.candidate_divisor(dom06, -0.7, N=96)
    pts = (radii[:, None] * np.exp(2j * np.pi * np.arange(m) / m) * np.exp(1j * turn)).ravel()
    for g in (f, B, cand):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fast = g.on_rings(radii, m, turn)
            slow = np.asarray(g(pts)).reshape(radii.size, m)
        top = np.max(np.abs(slow), axis=1)
        assert np.max(np.abs(fast - slow).max(axis=1) / top) <= 1e-13


def test_ring_values_routes_by_evaluator(dom):
    # objects with on_rings go by FFT, plain callables node by node: same norm
    B = rs.blaschke_factor(dom, 0.8j)
    for tag in (hardy_tag(), bergman_tag()):
        assert space_norm(B, dom, tag) == pytest.approx(
            space_norm(lambda z: B(z), dom, tag), rel=1e-13)


@pytest.mark.parametrize("seed", [0, 3])
def test_division_bound_check_matches_per_trial_loop(seed):
    # a non-real base point makes the Hardy weights asymmetric under z -> conj(z)
    d = rs.make_annulus(0.5, 0.5 + 0.4j)
    G, C = rs.qc_divisor(d, (0.7, 0.6j),
                         rs.AtomicSingularMeasure(atoms=((-1.0, -0.3),)))
    # the extremes over the whole space bound every random Laurent h
    rep = rs.division_bound_check(G, d)
    ratios = division_ratios_per_trial(G, d, trials=60, seed=seed)
    assert rep.min_ratio * (1 - 1e-10) <= ratios.min()
    assert ratios.max() <= rep.max_ratio * (1 + 1e-10)


def test_division_bound_extremes_match_rayleigh_search():
    # mu_max of the oracle pencil A x = mu B x is max x*Ax / x*Bx, and mu_min is
    # 1 / max x*Bx / x*Ax (the swapped pencil); a Cholesky power iteration on the
    # unscaled Grams finds both.  Its quotient never passes the extreme, and the
    # pencil's top and bottom eigenvalues come in clusters (1.6e-5 apart at the
    # bottom here), so the iteration settles slowly: stopped at a 1e-12 step it
    # sits within 3.3e-8 of each extreme.
    d = rs.make_annulus(0.5, 0.5 + 0.4j)
    G, C = rs.qc_divisor(d, (0.7, 0.6j),
                         rs.AtomicSingularMeasure(atoms=((-1.0, -0.3),)))
    pts, w = quadrature_for(d, hardy_tag(), 512)
    g_sq = np.abs(G(pts))**2
    powers = pts[:, None] ** np.arange(-8, 9)
    A = (powers.T * w) @ powers.conj()
    B = (powers.T * (w * g_sq)) @ powers.conj()
    mu_max, mu_min = (ratio**2 / np.sum(w * g_sq) for ratio in division_pencil(G, d))
    top = rayleigh_maximize(B, A)
    bottom = 1.0 / rayleigh_maximize(A, B)
    assert mu_max * (1 - 1e-6) <= top <= mu_max * (1 + 1e-10)
    assert mu_min * (1 - 1e-10) <= bottom <= mu_min * (1 + 1e-6)


def _divisor_r07(atoms):
    d = rs.make_annulus(0.7, 0.85j)
    G, _ = rs.qc_divisor(d, (0.8, -0.75), rs.AtomicSingularMeasure(atoms=atoms))
    return G, d, rs.division_bound_check(G, d)


def test_division_pencil_lies_inside_the_closed_form_off_the_nodes():
    # window-8 extremes over a subspace of the Hardy space: inside [inf, sup]
    G, d, rep = _divisor_r07(((0.7 * np.exp(0.3j), -0.3), (np.exp(2.0j), -0.9)))
    for m in (128, 512):
        top, bottom = division_pencil(G, d, m)
        assert rep.min_ratio < bottom <= top < rep.max_ratio
        assert top == pytest.approx(rep.max_ratio, rel=1e-4)


def test_division_pencil_overshoots_with_an_atom_on_a_node():
    # atoms at angles 0 and pi sit on the quadrature nodes, where |G| reads its
    # radial limit 0: the pencil's max passes the supremum by O(1/m)
    G, d, rep = _divisor_r07(((0.7, -0.3), (-1.0, -0.9)))
    assert rep.max_ratio == pytest.approx(1.147401, abs=1e-6)
    tops = [division_pencil(G, d, m)[0] for m in (128, 512)]
    assert tops == pytest.approx([1.16676, 1.14847], abs=1e-5)
    assert tops[0] > tops[1] > rep.max_ratio


def test_division_bound_check_rejects_a_non_inner_function(dom):
    # the closed form rests on the moduli (e^lam, 1) of an InnerFunctionSpec
    with pytest.raises(ArgumentError, match="InnerFunctionSpec"):
        rs.division_bound_check(LaurentPolynomial.constant(1.0), dom)


def test_schottky_fit_on_rings_matches_horner(dom, monkeypatch):
    # |f|^2 - 1 on the two boundary circles by one FFT each; point values by
    # numpy Horner are the oracle
    from ringspace import inner
    p = rs.ExtremalProblem(dom, hardy_tag(), 0.7, (-0.6 + 0.2j,), 48)
    G = rs.solve_extremal(p)
    got = inner.schottky_fit(G, dom)
    monkeypatch.setattr(inner, "ring_values", horner_ring_values)
    oracle = inner.schottky_fit(G, dom)
    assert abs(got[0] - oracle[0]) <= 1e-13 * abs(oracle[0])
    assert abs(got[1] - oracle[1]) <= 1e-13
