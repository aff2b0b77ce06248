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

from oracles import division_grams, equilibrated, rayleigh_maximize

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
    p = problem(dom, bergman_tag(), (-0.7,), 16)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
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
        with np.errstate(all="ignore"), pytest.raises(SingularConstraintsError,
                                                      match=r"0\.06.*-300\.\.300"):
            route(p, m=1204)


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
    rep = locate_zeros(cand, dom06, expected=1)
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
        cand = rs.candidate_divisor(dom06, 0.8, N=96, base=base)
        zs.append(cand.kernel_zero)
    steps = [abs(b - a) for a, b in zip(zs, zs[1:])]
    assert max(steps) < 0.1
    assert all(np.isfinite(s) for s in steps)


# ------------------------------------------------------- operator-norm probe

def test_quasicontract_sanity_against_random_search(dom06):
    G = lambda z: np.asarray(z, dtype=complex) - 0.8
    report = rs.quasicontract_estimate(G, 0.8, dom06, ladder=(8,), m=256)
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
    report = rs.quasicontract_estimate(G, 0.8, dom06, ladder=(4, 8, 16), m=256)
    g_norm = rs.norm(G, dom06, bergman_tag(), m=256)
    g0 = lambda z: G(z) / g_norm
    for N, est in report.per_truncation[:2]:
        A, B = division_grams(g0, 0.8, dom06, N, 256)
        A_s, d = equilibrated(A)
        top = scipy.linalg.eigh(B / np.outer(d, d), A_s, eigvals_only=True)[-1]
        assert est == pytest.approx(math.sqrt(top), rel=1e-9)
    fresh = rs.quasicontract_estimate(G, 0.8, dom06, ladder=(8,), m=256)
    assert fresh.per_truncation[0][1] == pytest.approx(report.per_truncation[1][1], rel=1e-12)


def test_quasicontract_notes_failed_zero_location(dom06, monkeypatch):
    import ringspace.extremal as extremal

    def fail(*args, **kwargs):
        raise ConvergenceError("Newton refinement found 1 of 2 zeros")

    monkeypatch.setattr(extremal, "locate_zeros", fail)
    G = lambda z: (np.asarray(z, dtype=complex) - 0.8) * (np.asarray(z, dtype=complex) + 0.7j)
    report = rs.quasicontract_estimate(G, 0.8, dom06, ladder=(8,), m=256)
    assert "EXTRANEOUS_ZERO" in report.notes
    assert "ConvergenceError: Newton refinement found 1 of 2 zeros" in report.notes
    assert report.zero_locations_of_kernel == ()


def test_quasicontract_singular_pencil_is_typed(dom06, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("the leading minor of order 3 is not positive definite")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    G = lambda z: np.asarray(z, dtype=complex) - 0.8
    with pytest.raises(SingularGramError, match="division pencil at N=8"):
        rs.quasicontract_estimate(G, 0.8, dom06, ladder=(8,), m=256)


def test_quasicontract_scale_invariance(dom06):
    G1 = lambda z: np.asarray(z, dtype=complex) - 0.8
    G2 = lambda z: 3.7j * (np.asarray(z, dtype=complex) - 0.8)
    r1 = rs.quasicontract_estimate(G1, 0.8, dom06, ladder=(8, 16), m=256)
    r2 = rs.quasicontract_estimate(G2, 0.8, dom06, ladder=(8, 16), m=256)
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

    def raw(z):
        z = np.asarray(z, dtype=complex)
        return np.asarray(cand.blaschke(z)) * np.asarray(cand.kernel_section(z))

    report = rs.quasicontract_estimate(raw, 0.8, dom06, m=512)
    assert "EXTRANEOUS_ZERO" in report.notes
    assert len(report.zero_locations_of_kernel) == 1
    assert report.zero_locations_of_kernel[0] == pytest.approx(cand.kernel_zero, abs=1e-6)
    ests = [e for _, e in report.per_truncation]
    assert all(b > a for a, b in zip(ests, ests[1:]))  # grows across the ladder
