import math

import numpy as np
import pytest
import scipy.linalg

import ringspace as rs
from ringspace.errors import (ArgumentError, ConvergenceError, GeometryError,
                              SingularConstraintsError, SingularGramError)
from ringspace.extremal import polar_grid
from ringspace.kernels import build_kernel, count_zeros, locate_zeros
from ringspace.laurent import LaurentPolynomial
from ringspace.spaces import bergman_tag, hardy_tag, norm as space_norm, quadrature_for, smirnov_tag

from oracles import (division_grams, equilibrated, horner_ring_values, horner_values,
                     rayleigh_maximize, weighted_candidate_section)

EXTREMAL_NORM_FIXTURE = 0.3085661677610915  # A2, r=0.5, z0=0.7, z1=-0.7, from N=96


def problem(dom, tag, zeros, N):
    return rs.ExtremalProblem(domain=dom, space=tag, base=0.7, zeros=zeros, truncation=N)


# ------------------------------------------------------------------- solves

def test_problem_validation(dom):
    with pytest.raises(GeometryError):
        problem(dom, bergman_tag(), (0.7,), 16)  # base among zeros
    with pytest.raises(GeometryError):
        problem(dom, bergman_tag(), (0.4,), 16)  # zero inside the hole


def test_no_zero_extremal_is_kernel_direction(dom):
    # the dense measure Gram costs a couple of digits of agreement between
    # the KKT route and the inverse-Gram route; the diagonal tags are exact
    for tag, tol in ((smirnov_tag(), 1e-9), (bergman_tag(), 1e-9), (hardy_tag(), 1e-8)):
        p = problem(dom, tag, (), 24)
        G = rs.solve_extremal(p)
        K = build_kernel(dom, tag, 24)
        pts = polar_grid(dom, 12)
        expected = np.asarray(K(pts, 0.7)) / complex(K(0.7, 0.7))
        assert np.max(np.abs(G(pts) - expected)) <= tol


def test_singular_kkt_system_is_typed(dom, monkeypatch):
    # the KKT system is LU-factored once; getrf reports an exactly zero pivot
    # by a positive info, which must surface as the typed error
    import scipy.linalg
    p = problem(dom, bergman_tag(), (-0.7,), 16)

    def singular(a, *args, **kwargs):
        return np.array(a), np.zeros(len(a), dtype=np.int32), 1
    monkeypatch.setattr(scipy.linalg.lapack, "zgetrf", singular)
    with pytest.raises(SingularGramError):
        rs.solve_extremal(p)


def test_constraints_are_interpolated(dom):
    p = problem(dom, bergman_tag(), (-0.7,), 24)
    G = rs.solve_extremal(p)
    assert complex(G(0.7)) == pytest.approx(1.0, abs=1e-12)
    assert abs(complex(G(-0.7))) <= 1e-12


def test_norm_stability_under_doubling(dom):
    p48 = problem(dom, bergman_tag(), (-0.7,), 48)
    p96 = problem(dom, bergman_tag(), (-0.7,), 96)
    n48 = space_norm(rs.solve_extremal(p48), dom, bergman_tag())
    n96 = space_norm(rs.solve_extremal(p96), dom, bergman_tag())
    assert abs(n96 - n48) <= 1e-8
    assert n96 == pytest.approx(EXTREMAL_NORM_FIXTURE, abs=1e-8)


def test_kkt_orthogonality(dom):
    # <G, h> = 0 for every window function vanishing at base and zeros
    p = problem(dom, hardy_tag(), (0.6j,), 32)
    G = rs.solve_extremal(p, m=512)
    pts, w = quadrature_for(dom, hardy_tag(), 512)
    gv = np.conj(np.asarray(G(pts)))
    rng = np.random.default_rng(0)
    for _ in range(5):
        q = LaurentPolynomial(-30, 30, rng.standard_normal(61) + 1j * rng.standard_normal(61))
        h = (q(pts) * (pts - 0.7) * (pts - 0.6j))
        assert abs(np.sum(w * h * gv)) <= 1e-9 * math.sqrt(float(np.sum(w * np.abs(h) ** 2)))


def test_formulation_equivalence(dom):
    # normalizing the norm-one maximizer by its base value gives the minimizer
    for tag in (smirnov_tag(), bergman_tag()):
        p = problem(dom, tag, (-0.6, 0.55j), 32)
        G = rs.solve_extremal(p)
        F = rs.extremal_maximizer(p)
        pts = polar_grid(dom, 16)
        assert np.max(np.abs(G(pts) - F(pts) / complex(F(0.7)))) <= 1e-9


def test_formulation_equivalence_complex_hardy_gram():
    # a non-real base point makes the harmonic-measure Gram complex, so the
    # bordered system needs its conjugate
    d = rs.make_annulus(0.5, 0.7j)
    p = rs.ExtremalProblem(domain=d, space=hardy_tag(), base=0.7j, zeros=(-0.6,),
                           truncation=48)
    G = rs.solve_extremal(p, m=512)
    F = rs.extremal_maximizer(p, m=512)
    pts = polar_grid(d, 24)
    assert np.max(np.abs(G(pts) - F(pts) / complex(F(p.base)))) <= 1e-9


@pytest.mark.parametrize("r, base, zero", [
    (0.5899576950879258, -0.5674284398909917 + 0.6785782836931317j,
     0.6918882912571583 + 0.4391544211491283j),
    (0.584318218585263, 0.8612702081077235 + 0.18793177211308074j,
     -0.6885543639156495 + 0.18611218503182025j),
])
def test_formulation_equivalence_ill_conditioned_hardy_gram(r, base, zero):
    # base points near the outer circle give scaled Gram condition ~1e8; plain
    # double solves left the two routes 1e-9 apart
    d = rs.make_annulus(r, base)
    p = rs.ExtremalProblem(domain=d, space=hardy_tag(), base=base, zeros=(zero,),
                           truncation=48)
    G = rs.solve_extremal(p, m=512)
    F = rs.extremal_maximizer(p, m=512)
    pts = polar_grid(d, 24)
    assert np.max(np.abs(G(pts) - F(pts) / complex(F(p.base)))) <= 1e-10


def test_norm_monotone_in_constraints(dom):
    tag = bergman_tag()
    n1 = space_norm(rs.solve_extremal(problem(dom, tag, (-0.7,), 32)), dom, tag)
    n2 = space_norm(rs.solve_extremal(problem(dom, tag, (-0.7, 0.6j), 32)), dom, tag)
    n0 = space_norm(rs.solve_extremal(problem(dom, tag, (), 32)), dom, tag)
    assert n0 <= n1 <= n2


def test_repeated_zero_beyond_capacity_rejected(dom):
    with pytest.raises(SingularConstraintsError):
        rs.solve_extremal(rs.ExtremalProblem(domain=dom, space=bergman_tag(), base=0.7,
                                             zeros=(0.6j, 0.6j), truncation=32))


def test_maximizer_repeated_zero_is_typed():
    # the kernel matrix at a repeated zero is exactly singular; the KKT route
    # already rejects the same problem
    d = rs.make_annulus(0.5, 0.75)
    p = rs.ExtremalProblem(domain=d, space=bergman_tag(), base=0.75,
                           zeros=(0.6 + 0.1j, 0.6 + 0.1j), truncation=16)
    with pytest.raises(SingularConstraintsError):
        rs.solve_extremal(p)
    with pytest.raises(SingularConstraintsError):
        rs.extremal_maximizer(p)


# ---------------------------------------------------------- kernel identity

@pytest.mark.parametrize("make_tag", [smirnov_tag, bergman_tag])
def test_extremal_equals_blaschke_times_weighted_kernel(dom, make_tag):
    p = problem(dom, make_tag(), (0.6j,), 32)
    assert rs.extremal_identity_check(rs.solve_extremal(p, m=512), p, m=512) <= 1e-6


def test_identity_check_needs_single_zero(dom):
    p = problem(dom, bergman_tag(), (0.6j, -0.6), 16)
    with pytest.raises(ArgumentError):
        rs.extremal_identity_check(rs.solve_extremal(p), p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("N", [300, 384])
@pytest.mark.parametrize("make_tag", [smirnov_tag, bergman_tag])
def test_diagonal_extremals_past_the_double_range_of_the_norms(N, make_tag):
    # at r = 0.3, ||z^-N||^2 overflows a double for these windows
    d = rs.make_annulus(0.3, 0.65)
    p = rs.ExtremalProblem(domain=d, space=make_tag(), base=0.65, zeros=(0.5j,),
                           truncation=N)
    G = rs.solve_extremal(p, m=4 * N + 4)
    F = rs.extremal_maximizer(p, m=4 * N + 4)
    assert np.all(np.isfinite(G.coeffs)) and np.all(np.isfinite(F.coeffs))
    pts = polar_grid(d, 24)
    assert np.max(np.abs(G(pts) - F(pts) / complex(F(p.base)))) <= 1e-9


def test_powers_past_the_double_range_are_typed():
    # at r = 0.05, base 0.06 and N = 300 both 0.06^-300 and ||z^-300|| overflow:
    # the scaled constraint row and the kernel section would be inf / inf
    d = rs.make_annulus(0.05, 0.06)
    p = rs.ExtremalProblem(domain=d, space=smirnov_tag(), base=0.06, zeros=(0.5,),
                           truncation=300)
    for route in (rs.solve_extremal, rs.extremal_maximizer):
        with pytest.raises(SingularConstraintsError, match=r"0\.06.*-300\.\.300"):
            route(p, m=1204)


def _section_at_base(p, m):
    return build_kernel(p.domain, p.space, p.truncation, m).section(p.base)


@pytest.mark.parametrize("weighted", [False, True], ids=["hardy", "blaschke-weighted-bergman"])
def test_nodes_below_the_window_floor_are_raised_to_it(dom, weighted):
    # 4N+4 = 644 at N = 160: m = 512 solves on exactly the 644-node Gram
    tag = bergman_tag(weight_fn=rs.blaschke_factor(dom, 0.6j)) if weighted else hardy_tag()
    p = problem(dom, tag, (-0.6,), 160)
    for route in (rs.solve_extremal, rs.extremal_maximizer, _section_at_base):
        assert np.array_equal(route(p, m=512).coeffs, route(p, m=644).coeffs)


# ------------------------------------------------------ reproducing identity

def test_reproducing_identity_for_normalized_extremal(dom):
    p = problem(dom, hardy_tag(), (0.6j,), 96)
    G = rs.solve_extremal(p, m=512)
    Gn = G * (1.0 / space_norm(G, dom, hardy_tag()))
    assert rs.repro_fact_check(Gn, p, m=512) <= 1e-7


def test_reproducing_identity_unit_norm_case(dom):
    p = problem(dom, hardy_tag(), (0.6j,), 48)
    G = rs.solve_extremal(p, m=512)
    Gn = G * (1.0 / space_norm(G, dom, hardy_tag()))
    pts, w = quadrature_for(dom, hardy_tag(), 512)
    norm_sq = float(np.sum(w * np.abs(Gn(pts)) ** 2))
    assert abs(norm_sq - 1.0) <= 1e-9


def test_reproducing_identity_rejects_non_extremal(dom):
    p = problem(dom, hardy_tag(), (0.6j,), 16)
    fake = LaurentPolynomial.from_dict({0: 1.0, 1: 1.0})
    assert rs.repro_fact_check(fake, p, m=512) > 1e-2


def test_reproducing_identity_wrong_space(dom):
    p = problem(dom, bergman_tag(), (0.6j,), 16)
    with pytest.raises(ArgumentError):
        rs.repro_fact_check(LaurentPolynomial.constant(1.0), p)


# ---------------------------------------------------------- candidate divisor

def test_candidate_divisor_vanishes_only_at_prescribed_zero(dom06):
    cand = rs.candidate_divisor(dom06, 0.8)
    assert count_zeros(cand, dom06, rs.full_ring(dom06)) == 1
    rep = locate_zeros(cand, dom06, count=1)
    assert rep.locations[0] == pytest.approx(0.8, abs=1e-8)


def test_candidate_divisor_is_not_constant_modulus(dom06):
    cand = rs.candidate_divisor(dom06, 0.8)
    v = rs.verify_inner(cand, dom06, m=128)
    assert not v.passed
    assert max(v.dev1 / v.c1, v.dev2 / v.c2) > 1e-3


def test_candidate_divisor_kernel_zero_moves_continuously(dom06):
    # swap the base point along a short path; the kernel zero must move finitely
    zs = []
    for base in (0.58, 0.60, 0.62, 0.64, 0.66):
        cand = rs.candidate_divisor(rs.make_annulus(0.5, base), 0.8, N=96)
        zs.append(cand.kernel_zero)
    steps = [abs(b - a) for a, b in zip(zs, zs[1:])]
    assert max(steps) < 0.1
    assert all(np.isfinite(s) for s in steps)


@pytest.mark.parametrize("r, base, z1", [(0.6, 0.75 + 0.1j, -0.8 + 0.1j),
                                         (0.416, 0.6 + 0.2j, -0.5 + 0.3j),
                                         (0.5, 0.7, -0.6j)])
def test_candidate_section_is_the_weighted_section_times_blaschke(r, base, z1):
    # f -> B f maps A^2(|B|^2) onto {g : g(z1) = 0}, so B(z) K_B(z, z0) is
    # K_I(z, z0) up to a constant; away from z1, where the quotient is 0/0
    dom = rs.make_annulus(r, base)
    F = rs.candidate_divisor(dom, z1, N=96).kernel_section
    assert F.hi == 96
    weighted, at_base = weighted_candidate_section(dom, z1, N=96)
    pts = polar_grid(dom, 32)
    pts = pts[np.abs(pts - z1) > 1e-3]
    expected = weighted(pts) / at_base
    error = np.max(np.abs(F(pts) / complex(F(base)) - expected)) / np.max(np.abs(expected))
    assert error <= 1e-12


def test_candidate_divisor_with_z1_on_a_zero_scan_node():
    # locate_zeros scans F / (z - z1) on a polar grid; a z1 exactly on a node
    # is 0/0 there, which must neither warn nor become the located zero
    dom = rs.make_annulus(0.5, 0.7)
    ring = rs.full_ring(dom)
    z1 = complex(np.linspace(ring[0], ring[1], rs.kernels._LOCATE_GRID)[40])
    cand = rs.candidate_divisor(dom, z1)
    assert abs(cand.kernel_zero - z1) > 0.1
    assert count_zeros(cand, dom, ring) == 1


def test_candidate_window_doubles_until_the_section_counts_two():
    # divisor-ladder seed 7: K_I(., z0) counts 5 ring zeros at N=96, 2 at 192
    dom = rs.make_annulus(0.560697285196115, 0.27731628680196196 + 0.7083348717224514j)
    z1 = -0.451470698858297 + 0.43829329018082147j
    F96 = rs.extremal_maximizer(rs.ExtremalProblem(dom, bergman_tag(), dom.base_point, (z1,), 96))
    assert count_zeros(F96, dom, rs.full_ring(dom)) == 5
    cand = rs.candidate_divisor(dom, z1)
    assert cand.kernel_section.hi == 192
    assert count_zeros(cand.kernel_section, dom, rs.full_ring(dom)) == 2


# ------------------------------------------------------- operator-norm probe

def test_quasicontract_sanity_against_random_search(dom06):
    G = lambda z: np.asarray(z, dtype=complex) - 0.8
    report = rs.quasicontract_estimate(G, 0.8, dom06, m=256)
    est = report.per_truncation[0][1]
    # oracle: seeded random Rayleigh search with power-iteration polish
    pts_norm = rs.norm(G, dom06, bergman_tag(), m=256)
    g0 = lambda z: (np.asarray(z, dtype=complex) - 0.8) / pts_norm
    A, B = division_grams(g0, 0.8, dom06, 8, 256)
    brute = math.sqrt(rayleigh_maximize(A, B, trials=10000, seed=0))
    assert est == pytest.approx(brute, rel=0.02)


def test_quasicontract_rungs_match_dense_pencil(dom06):
    # each rung is sliced from the pencil at the top window; it must match a
    # fresh dense assembly at its own window
    G = lambda z: (np.asarray(z, dtype=complex) - 0.8) * (np.asarray(z, dtype=complex) + 0.1j)
    report = rs.quasicontract_estimate(G, 0.8, dom06, m=256)
    g_norm = rs.norm(G, dom06, bergman_tag(), m=256)
    g0 = lambda z: G(z) / g_norm
    assert [N for N, _ in report.per_truncation] == [8, 16, 24, 32]
    for N, est in report.per_truncation:
        A, B = division_grams(g0, 0.8, dom06, N, 256)
        A_s, d = equilibrated(A)
        top = scipy.linalg.eigh(B / np.outer(d, d), A_s, eigvals_only=True)[-1]
        assert est == pytest.approx(math.sqrt(top), rel=1e-9)


def test_quasicontract_notes_failed_zero_location(dom06, monkeypatch):
    import ringspace.extremal as extremal

    def fail(*args, **kwargs):
        raise ConvergenceError("Newton refinement found 1 of 2 zeros")

    monkeypatch.setattr(extremal, "locate_zeros", fail)
    G = lambda z: (np.asarray(z, dtype=complex) - 0.8) * (np.asarray(z, dtype=complex) + 0.7j)
    report = rs.quasicontract_estimate(G, 0.8, dom06, m=256)
    assert "EXTRANEOUS_ZERO" in report.notes
    assert "ConvergenceError: Newton refinement found 1 of 2 zeros" in report.notes
    assert report.zero_locations_of_kernel == ()


def test_quasicontract_singular_pencil_is_typed(dom06, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("the leading minor of order 3 is not positive definite")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    G = lambda z: np.asarray(z, dtype=complex) - 0.8
    with pytest.raises(SingularGramError, match="division pencil at N=8"):
        rs.quasicontract_estimate(G, 0.8, dom06, m=256)


def test_quasicontract_scale_invariance(dom06):
    G1 = lambda z: np.asarray(z, dtype=complex) - 0.8
    G2 = lambda z: 3.7j * (np.asarray(z, dtype=complex) - 0.8)
    r1 = rs.quasicontract_estimate(G1, 0.8, dom06, m=256)
    r2 = rs.quasicontract_estimate(G2, 0.8, dom06, m=256)
    for (n1, e1), (n2, e2) in zip(r1.per_truncation, r2.per_truncation):
        assert e1 == pytest.approx(e2, rel=1e-9)


def test_quasicontract_ladder_monotone_and_deterministic(dom06):
    cand = rs.candidate_divisor(dom06, 0.8)
    rep1 = rs.quasicontract_estimate(cand, 0.8, dom06, m=512)
    rep2 = rs.quasicontract_estimate(cand, 0.8, dom06, m=512)
    assert rep1.per_truncation == rep2.per_truncation
    ests = [e for _, e in rep1.per_truncation]
    assert all(b >= a for a, b in zip(ests, ests[1:]))
    assert rep1.notes == ""


def test_quasicontract_flags_extraneous_zero(dom06):
    cand = rs.candidate_divisor(dom06, 0.8)
    report = rs.quasicontract_estimate(cand.kernel_section, 0.8, dom06, m=512)
    assert "EXTRANEOUS_ZERO" in report.notes
    assert len(report.zero_locations_of_kernel) == 1
    assert report.zero_locations_of_kernel[0] == pytest.approx(cand.kernel_zero, abs=1e-6)
    ests = [e for _, e in report.per_truncation]
    assert all(b > a for a, b in zip(ests, ests[1:]))  # grows across the ladder


# ------------------------------------------- ring route against Horner

@pytest.mark.parametrize("make_tag", [bergman_tag, hardy_tag])
def test_identity_check_on_rings_matches_horner(dom, make_tag, monkeypatch):
    # the identity check reads B, the weighted section and G on its polar grid
    # by one FFT a ring; point values by numpy Horner are the oracle
    from ringspace import extremal
    p = problem(dom, make_tag(), (-0.6 + 0.2j,), 24)
    G = rs.solve_extremal(p)
    got = extremal.extremal_identity_check(G, p)
    monkeypatch.setattr(extremal, "ring_values", horner_ring_values)
    assert abs(got - extremal.extremal_identity_check(G, p)) <= 1e-13


def test_reproducing_check_on_rings_matches_horner(dom, monkeypatch):
    from ringspace import extremal
    p = problem(dom, hardy_tag(), (-0.6 + 0.2j,), 24)
    G = rs.solve_extremal(p)
    G = G * (1.0 / space_norm(G, dom, hardy_tag(), measure=p.measure))
    got = extremal.repro_fact_check(G, p)
    monkeypatch.setattr(extremal, "ring_values", horner_ring_values)
    assert abs(got - extremal.repro_fact_check(G, p)) <= 1e-13


def test_deflated_section_on_rings_matches_horner(dom06):
    # the zero search scans F / (z - z1) on its 64 x 64 polar grid by
    # F.on_rings over the nodes less z1
    from ringspace import extremal
    from ringspace.geometry import ring_nodes
    from ringspace.kernels import full_ring
    z1 = 0.75j
    F = rs.extremal_maximizer(rs.ExtremalProblem(dom06, bergman_tag(), 0.6, (z1,), 96))
    radii = np.linspace(*full_ring(dom06), 64)
    Z = ring_nodes(radii, 64)
    oracle = horner_values(F, Z) / (Z - z1)
    got = extremal._Deflated(F, z1).on_rings(radii, 64)
    assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))
    point = complex(Z[10, 3])
    assert abs(extremal._Deflated(F, z1)(point) - oracle[10, 3]) <= 1e-13 * abs(oracle[10, 3])


def test_problem_shares_its_measure_and_gram(dom, monkeypatch):
    # one problem forms its harmonic-measure density and Gram once: the KKT
    # solve, the maximizer, the norm and the checks all read them
    from ringspace import harmonic, spaces
    p = problem(dom, hardy_tag(), (-0.6 + 0.2j,), 24)
    calls = []
    density = harmonic.measure_density
    monkeypatch.setattr(spaces, "measure_density", lambda *a: calls.append(a) or density(*a))
    G = rs.solve_extremal(p)
    F = rs.extremal_maximizer(p)
    space_norm(G, dom, hardy_tag(), measure=p.measure)
    rs.extremal_identity_check(G, p)
    rs.repro_fact_check(G, p)
    assert len(calls) == 1
    assert p.gram(512) is p.gram(512)
    fresh = problem(dom, hardy_tag(), (-0.6 + 0.2j,), 24)
    assert np.array_equal(rs.solve_extremal(fresh).coeffs, G.coeffs)
    assert np.array_equal(rs.extremal_maximizer(fresh).coeffs, F.coeffs)
    assert fresh == p
