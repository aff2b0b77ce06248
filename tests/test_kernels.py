import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringspace as rs
from ringspace.errors import ArgumentError, ConvergenceError, SingularGramError, ZeroOnContourError
from ringspace.kernels import (_local_minima, _newton_polish, build_kernel,
                              count_zeros, full_ring, locate_zeros, refined_solve,
                              reproduce_check)
from ringspace.laurent import LaurentPolynomial
from ringspace.spaces import bergman_tag, hardy_tag, smirnov_tag

from oracles import deflated_weighted_kernel, horner_count, loop_local_minima, series_product


def interior_pairs(dom, n, seed=0):
    rng = np.random.default_rng(seed)
    r = dom.inner_radius
    lo, hi = r + 0.2 * (1 - r), 1 - 0.3 * (1 - r)
    rho = rng.uniform(lo, hi, (n, 2))
    th = rng.uniform(0, 2 * np.pi, (n, 2))
    return rho * np.exp(1j * th)


# ------------------------------------------------------------ construction

def test_smirnov_kernel_is_the_diagonal_series(dom):
    K = build_kernel(dom, smirnov_tag(), N=16)
    assert K.factor is None
    z, w = 0.8, 0.6 + 0.1j
    ns = np.arange(-16, 17, dtype=float)
    expected = np.sum(z**ns * np.conj(w)**ns / (2 * np.pi * (1 + 0.5**(2 * ns + 1))))
    assert complex(K(z, w)) == pytest.approx(expected)


def test_kernel_positive_on_diagonal(dom):
    for tag in (smirnov_tag(), bergman_tag(), hardy_tag()):
        K = build_kernel(dom, tag, N=24)
        val = complex(K(0.7, 0.7))
        assert val.real > 0 and abs(val.imag) < 1e-12 * val.real


def test_kernel_hermitian_symmetry(dom):
    pairs = interior_pairs(dom, 20)
    for tag in (smirnov_tag(), bergman_tag(), hardy_tag()):
        K = build_kernel(dom, tag, N=32)
        for z, w in pairs:
            # relative for the Gram-inverse kernels, whose values grow large
            # where the measure is thin
            assert complex(K(z, w)) == pytest.approx(np.conj(complex(K(w, z))),
                                                     rel=1e-9, abs=1e-12)


def test_kernel_truncation_stability(dom):
    pairs = interior_pairs(dom, 10, seed=4)
    for tag in (smirnov_tag(), bergman_tag()):
        K1 = build_kernel(dom, tag, N=64)
        K2 = build_kernel(dom, tag, N=128)
        for z, w in pairs:
            assert abs(complex(K1(z, w)) - complex(K2(z, w))) <= 1e-8


def test_weighted_kernel_with_invertible_weight_divides(dom):
    # weight |z|^2 never vanishes on the closed ring; window edge terms decay
    # like (r^2/|z w|)^N, so N = 64 puts the division identity below 1e-9
    tag = bergman_tag(weight_fn=lambda z: np.asarray(z, dtype=complex))
    Kw = build_kernel(dom, tag, N=64, m=512)
    K = build_kernel(dom, bergman_tag(), N=64)
    for z, w in interior_pairs(dom, 8, seed=1):
        expected = complex(K(z, w)) / (z * np.conj(w))
        assert complex(Kw(z, w)) == pytest.approx(expected, abs=1e-9)


def test_weighted_division_consistency_random_zero_free_weights(dom):
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 5:
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        u = LaurentPolynomial(-2, 2, c) + LaurentPolynomial.constant(6.0)
        if count_zeros(u, dom, full_ring(dom)) != 0:
            continue
        checked += 1
        Kw = build_kernel(dom, bergman_tag(weight_fn=u), N=64, m=520)
        K = build_kernel(dom, bergman_tag(), N=64)
        for z, w in interior_pairs(dom, 4, seed=checked):
            expected = complex(K(z, w)) / (complex(u(z)) * np.conj(complex(u(w))))
            assert complex(Kw(z, w)) == pytest.approx(expected, abs=1e-8)


def test_weighted_kernel_matches_deflation_oracle(dom06):
    # independent route: rank-one deflation of the plain kernel divided by the factor
    z1 = 0.8
    B = rs.blaschke_factor(dom06, z1)
    Kw = build_kernel(dom06, bergman_tag(weight_fn=B), N=96, m=512)
    K = build_kernel(dom06, bergman_tag(), N=96)
    pts = interior_pairs(dom06, 6, seed=3)[:, 0]
    expected = deflated_weighted_kernel(K, B, pts, 0.6, z1)
    got = np.asarray(Kw(pts, 0.6))
    assert np.max(np.abs(got - expected)) < 1e-7


# -------------------------------------------------------------- reproduction

@pytest.mark.parametrize("r,N", [(0.05, 128), (0.1, 160)])
@pytest.mark.parametrize("make_tag", [bergman_tag, smirnov_tag])
def test_deep_window_weighted_kernel_is_finite_or_typed(r, N, make_tag):
    # r^(-2N) overflows a double here; the Gram must not pass inf or NaN on
    d = rs.make_annulus(r, (1 + r) / 2)
    tag = make_tag(weight_fn=rs.blaschke_factor(d, 0.3 + 0.2j))
    try:
        K = build_kernel(d, tag, N=N)
    except SingularGramError:
        return
    section = K.section(d.base_point)
    assert np.all(np.isfinite(section.coeffs))
    z = np.array([0.5, 0.3j, -0.8, 2 * r * np.exp(1j)])
    assert np.all(np.isfinite(np.asarray(K(z, d.base_point))))


def test_refined_solve_reaches_the_stored_matrix():
    # Hermitian, condition 1e9; the exact solution of the stored
    # double matrix comes from a 40-digit solve
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    a = (q * np.logspace(0, -9, 12)) @ q.conj().T
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    with mp.workdps(40):
        exact = mp.lu_solve(mp.matrix([[mp.mpc(complex(x)) for x in row] for row in a]),
                            mp.matrix([mp.mpc(complex(x)) for x in b]))
    exact = np.array([complex(exact[i]) for i in range(12)])
    plain = np.linalg.solve(a, b)
    refined = refined_solve(a.astype(np.clongdouble), lambda v: np.linalg.solve(a, v), b)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(plain - exact)) > 1e-9 * scale
    assert np.max(np.abs(refined - exact)) <= 1e-11 * scale


def _gram_with_condition(kappa, seed=0):
    """A 5 x 5 Hermitian matrix with unit diagonal and 2-norm condition ``kappa``."""
    from scipy.stats import random_correlation
    tiny = 2.0 / kappa
    eigs = np.array([2.0, 1.5, 1.0, 0.5 - tiny, tiny])
    rng = np.random.default_rng(seed)
    a = random_correlation.rvs(eigs, random_state=rng)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    return phases[:, None] * a * phases.conj()[None, :]


def _kappa(a):
    sv = np.linalg.svd(a, compute_uv=False)
    return sv[0] / sv[-1]


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a: calls.append(1) or cond(a))
    return calls


def _build_from(monkeypatch, gram):
    from ringspace import kernels
    monkeypatch.setattr(kernels, "scaled_gram", lambda *args: (gram, np.ones(len(gram))))
    return build_kernel(rs.make_annulus(0.5, 0.7), bergman_tag(weight_fn=lambda z: z), N=2)


@pytest.mark.parametrize("kappa, svd", [(1e13, 0), (5e13, 0), (9e13, 1)])
def test_scaled_condition_just_below_the_rule_builds(monkeypatch, svd_calls, kappa, svd):
    # the Frobenius screen settles well-conditioned Grams without an SVD
    gram = _gram_with_condition(kappa)
    assert _kappa(gram) <= 1e14   # the SVD rule accepts it
    _build_from(monkeypatch, gram)
    assert len(svd_calls) == svd


@pytest.mark.parametrize("kappa", [1.1e14, 1e15])
def test_scaled_condition_just_above_the_rule_raises(monkeypatch, kappa):
    gram = _gram_with_condition(kappa)
    assert _kappa(gram) > 1e14
    with pytest.raises(SingularGramError, match="scaled condition"):
        _build_from(monkeypatch, gram)


def test_failed_factorization_names_the_condition(monkeypatch):
    # numerically singular: the message still reports the scaled condition
    with pytest.raises(SingularGramError, match="scaled condition"):
        _build_from(monkeypatch, np.ones((5, 5), dtype=complex))
    # well conditioned but indefinite
    indefinite = np.eye(5, dtype=complex)
    indefinite[0, 1] = indefinite[1, 0] = 2.0
    with pytest.raises(SingularGramError, match="not positive definite"):
        _build_from(monkeypatch, indefinite)


def test_weighted_kernels_need_no_svd(dom, svd_calls):
    build_kernel(dom, bergman_tag(weight_fn=rs.blaschke_factor(dom, 0.62)), N=96, m=512)
    build_kernel(dom, hardy_tag(), N=96, m=512)
    assert svd_calls == []


def test_reproduce_constant(dom):
    for tag in (smirnov_tag(), bergman_tag(), hardy_tag()):
        K = build_kernel(dom, tag, N=24)
        assert reproduce_check(K, LaurentPolynomial.constant(1.0), 0.7) <= 1e-12


def test_reproduce_laurent_polynomial(dom):
    f = LaurentPolynomial.from_dict({3: 1.0, -1: -2.0})
    K = build_kernel(dom, smirnov_tag(), N=24)
    assert reproduce_check(K, f, 0.6 + 0.2j) <= 1e-10


def test_reproduce_flags_out_of_window(dom):
    K = build_kernel(dom, smirnov_tag(), N=4)
    f = LaurentPolynomial.from_dict({6: 1.0})
    assert reproduce_check(K, f, 0.7) > 1e-6  # z^6 lies outside the window -4..4


def test_reproduce_weighted_kernel(dom):
    B = rs.blaschke_factor(dom, 0.62)
    K = build_kernel(dom, bergman_tag(weight_fn=B), N=24, m=512)
    f = LaurentPolynomial.from_dict({2: 1.0, 0: 0.5, -2: 0.25})
    assert reproduce_check(K, f, 0.6 - 0.15j) <= 1e-9


# ------------------------------------------------------------ zero counting

def test_count_single_linear_zero(dom):
    f = LaurentPolynomial.from_dict({1: 1.0, 0: -0.7})
    assert count_zeros(f, dom, (0.55, 0.95)) == 1


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_count_rejects_too_few_nodes(dom, m):
    # (z - 0.7)(z - 0.6i) has 2 zeros in the ring
    f = LaurentPolynomial.from_dict({2: 1.0, 1: -0.7 - 0.6j, 0: 0.42j})
    assert count_zeros(f, dom, full_ring(dom)) == 2
    with pytest.raises(ArgumentError, match="at least 4"):
        count_zeros(f, dom, full_ring(dom), m=m)


def test_count_monomial_windings(dom):
    # monomials have no zeros inside the ring (zeros/poles sit at the origin),
    # so the two circle windings, each equal to k, cancel
    from ringspace.kernels import _winding_on_circle
    for k in (-3, -1, 2, 5):
        f = LaurentPolynomial.from_dict({k: 1.0})
        assert _winding_on_circle(f, 0.75, 512) == k
        assert count_zeros(f, dom, (0.55, 0.95)) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_count_rejects_non_finite_values_on_a_circle(dom, bad):
    # z itself, except past |z| = 0.9, where the counting circle at 0.95 lies
    def f(z):
        z = np.asarray(z, dtype=complex)
        return np.where(np.abs(z) > 0.9, bad, z)
    with pytest.raises(ConvergenceError, match="not finite"):
        count_zeros(f, dom, (0.55, 0.95))


@pytest.mark.parametrize("block", [8192, 1000])
def test_winding_refines_in_bounded_blocks(monkeypatch, block):
    # z^5461 (5461 = 0b1010101010101, so no coarse grid aliases it to a small
    # step) and a zero 1e-5 inside |z| = 1 force the node count far past one
    # block; each evaluation stays within a block and the phase is carried
    # across the block edges
    from ringspace import kernels
    monkeypatch.setattr(kernels, "_WINDING_BLOCK", block)
    sizes = []
    def probe(f):
        def g(z):
            sizes.append(np.size(z))
            return f(z)
        return g
    far = LaurentPolynomial.from_dict({5461: 1.0})
    assert kernels._winding_on_circle(probe(far), 1.0, 512) == 5461
    near = LaurentPolynomial.from_dict({1: 1.0, 0: -0.99999 * np.exp(1j)})
    assert kernels._winding_on_circle(probe(near), 1.0, 512) == 1
    assert len(sizes) > 100 and max(sizes) <= block


def _product(zeros, shift):
    """``z^shift * prod (z - a)`` as a Laurent polynomial."""
    f = LaurentPolynomial.from_dict({shift: 1.0})
    for a in zeros:
        f = series_product(f, LaurentPolynomial.from_dict({1: 1.0, 0: -a}))
    return f


@settings(max_examples=40, deadline=None)
@given(near=st.lists(st.tuples(st.booleans(), st.sampled_from([-1.0, 1.0]),
                                st.floats(1e-3, 1e-1), st.floats(0.0, 2 * np.pi)),
                      min_size=1, max_size=6),
       shift=st.integers(-4, 4), block=st.sampled_from([8192, 100, 64]))
def test_fft_count_matches_horner_oracle(near, shift, block):
    # zeros just inside or outside either counting circle force node doublings;
    # blocks of 100 and 64 nodes read the circle as many strided sub-rings,
    # 100 dividing no node count the doublings reach
    from ringspace import kernels
    dom = rs.make_annulus(0.5, 0.7)
    ring = full_ring(dom)
    zeros = [ring[outer] * (1.0 + side * delta) * np.exp(1j * t)
             for outer, side, delta, t in near]
    f = _product(zeros, shift)

    def outcome(count, *args):   # a count or the typed refusal (|f| < 1e-10 on a circle)
        try:
            return count(*args)
        except rs.RingspaceError as exc:
            return type(exc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_WINDING_BLOCK", block)
        count = outcome(count_zeros, f, dom, ring)
    assert count == outcome(horner_count, f, ring)
    # a zero at relative distance delta from a circle turns the phase by up to
    # 2 atan(pi / (512 delta)) between two of the first 512 nodes; while all of
    # them together stay below pi a wrapped step is the true one, beyond that
    # the phase can turn by nearly 2 pi unseen, which no phase count can catch
    resolved = sum(2 * np.arctan(np.pi / (512 * delta)) for _, _, delta, _ in near) < 0.8 * np.pi
    if resolved and isinstance(count, int):
        assert count == sum(ring[0] < abs(a) < ring[1] for a in zeros)


@pytest.mark.parametrize("block", [8192, 2048])
@pytest.mark.parametrize("outer", [False, True])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_winding_doublings_evaluate_only_the_new_nodes(side, outer, block):
    # a zero 1e-3 (relative) inside or outside a counting circle doubles its
    # 512 nodes to 4096; each doubling evaluates only the odd nodes, the ring
    # of half as many turned by one new node spacing, and keeps the level it
    # held (at block 2048 as sub-ring 0 of two); the count is the Horner oracle's
    from ringspace import kernels
    dom = rs.make_annulus(0.5, 0.7)
    ring = full_ring(dom)
    circle = ring[outer]
    a = circle * (1.0 + side * 1e-3) * np.exp(0.4j)
    f = _product([a, 0.7], 0)
    sizes = []

    class Probe:
        def __call__(self, z):
            return f(z)

        def on_rings(self, radii, m, turn=0.0):
            if radii[0] == circle:
                sizes.append(m)
            return f.on_rings(radii, m, turn)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_WINDING_BLOCK", block)
        count = count_zeros(Probe(), dom, ring)
    assert count == horner_count(f, ring) == 1 + (ring[0] < abs(a) < ring[1])
    assert sizes == [512, 512, 1024, 2048]


def test_count_forced_to_2_19_nodes_stays_flat():
    # z^87381 (0b10101010101010101, so no coarse grid aliases it to a small step)
    # times an 8193-term series positive on |z| = 1 needs 2^19 nodes there;
    # each sub-ring is one FFT of at most _WINDING_BLOCK nodes
    from ringspace import kernels
    ns = np.arange(-4096, 4097)
    g = LaurentPolynomial(-4096, 4096, 0.99 ** np.abs(ns) * np.exp(0.1j * ns))
    f = LaurentPolynomial(87381 - 4096, 87381 + 4096, g.coeffs)
    f.on_rings([1.0], kernels._WINDING_BLOCK, 0.1)  # warm the FFT plan cache
    tracemalloc.start()
    try:
        assert kernels._winding_on_circle(f, 1.0, 512) == 87381
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_count_rejects_zero_on_contour(dom):
    f = LaurentPolynomial.from_dict({1: 1.0, 0: -0.55})
    with pytest.raises(ZeroOnContourError):
        count_zeros(f, dom, (0.55, 0.95))


def test_count_stable_under_contour_perturbation(dom):
    f = LaurentPolynomial.from_dict({1: 1.0, 0: -0.7})
    for eps in (-1e-3, 0.0, 1e-3):
        assert count_zeros(f, dom, (0.55 + eps, 0.95 - eps)) == 1


def test_count_bad_ring(dom):
    f = LaurentPolynomial.from_dict({1: 1.0})
    with pytest.raises(ArgumentError):
        count_zeros(f, dom, (0.4, 0.95))


@pytest.mark.parametrize("base", [0.6, 0.7, 0.6 + 0.2j])
def test_kernel_sections_have_one_ring_zero(dom, base):
    for tag in (smirnov_tag(), bergman_tag()):
        K = build_kernel(dom, tag, N=96)
        section, ring = K.section(base), full_ring(dom)
        assert count_zeros(section, dom, ring) == horner_count(section, ring) == 1


def test_szego_zero_closed_form(dom):
    # the arclength-kernel zero sits at -r / conj(w): the n and -(n+1) terms
    # of the diagonal series cancel pairwise there
    K = build_kernel(dom, smirnov_tag(), N=96)
    for w in (0.6, 0.7, 0.6 + 0.2j):
        rep = locate_zeros(K.section(w), dom, count=1)
        assert rep.locations[0] == pytest.approx(-0.5 / np.conj(w), abs=1e-9)


BERGMAN_ZERO_07 = -0.5050761251586438  # frozen from the N = 96 run


def test_bergman_zero_regression(dom):
    K = build_kernel(dom, bergman_tag(), N=96)
    rep = locate_zeros(K.section(0.7), dom, count=1)
    assert rep.locations[0] == pytest.approx(BERGMAN_ZERO_07, abs=1e-8)
    assert rep.residual <= 1e-10


def test_locate_linear_zero(dom):
    f = LaurentPolynomial.from_dict({1: 1.0, 0: -0.7})
    rep = locate_zeros(f, dom, count=1, ring=(0.55, 0.95))
    assert rep.locations[0] == pytest.approx(0.7, abs=1e-10)


def test_local_minima_match_the_shifted_copy_scan():
    # four levels make ties common; NaN and inf cells probe the comparison edges
    rng = np.random.default_rng(0)
    for _ in range(300):
        vals = rng.integers(0, 4, size=rng.integers(1, 10, size=2)).astype(float)
        vals.flat[rng.integers(0, vals.size, size=2)] = rng.choice([np.nan, np.inf], size=2)
        np.testing.assert_array_equal(_local_minima(vals), loop_local_minima(vals))


def test_locate_mismatched_expectation(dom):
    # locate_zeros trusts its caller's count: asked for two zeros of a
    # function with one, Newton finds one and the search fails
    f = LaurentPolynomial.from_dict({1: 1.0, 0: -0.7})
    with pytest.raises(ConvergenceError, match="found 1 of 2"):
        locate_zeros(f, dom, count=2, ring=(0.55, 0.95))


def test_newton_polish_overflowing_modulus_is_inf():
    # |1.5e308 + 1.5e308i| is past the largest double: Python's abs() raises
    # OverflowError, the polish must report an infinite residual instead.
    huge = 1.5e308 + 1.5e308j
    root, residual = _newton_polish(lambda z: np.asarray(z) * 0 + huge, 0.5 + 0.1j)
    assert root is None
    assert residual == np.inf


def test_newton_polish_evaluates_its_seed_once():
    calls = []

    def f(z):
        calls.append(z)
        return (np.asarray(z) - 0.6) * (np.asarray(z) + 0.2)

    root, residual = _newton_polish(f, 0.7)
    assert abs(root - 0.6) <= 1e-10 and residual <= 1e-10
    # one value and two derivative samples per step, one value at the zero
    assert len(calls) == 13 and calls.count(0.7) == 1


def test_locate_zeros_overflow_near_the_zero_is_typed(dom):
    # One zero by the argument principle, but every Newton step lands where
    # |f| overflows: the search ends in ConvergenceError, not OverflowError.
    def f(z):
        z = np.asarray(z, dtype=complex)
        return np.where(np.abs(z - 0.7) < 1e-3, 1.5e308 + 1.5e308j, z - 0.7)
    with pytest.raises(ConvergenceError):
        locate_zeros(f, dom, count=1)


def test_weighted_zero_matches_extremal_extraneous_zero(dom06):
    # The zero of the |B_z1|^2-weighted Bergman kernel section is exactly the
    # extraneous zero of the least-norm extremal (three independent routes:
    # Gram inversion, rank-one deflation, bordered KKT).  It moves with z1 and
    # does NOT sit at the unweighted kernel's zero; see the weighted-space
    # subtlety documented in the kernel module.
    z1 = 0.7
    B = rs.blaschke_factor(dom06, z1)
    Kw = build_kernel(dom06, bergman_tag(weight_fn=B), N=96, m=512)
    K = build_kernel(dom06, bergman_tag(), N=96)
    zw = locate_zeros(Kw.section(0.6), dom06, count=1).locations[0]
    zu = locate_zeros(K.section(0.6), dom06, count=1).locations[0]
    problem = rs.ExtremalProblem(domain=dom06, space=bergman_tag(), base=0.6,
                                 zeros=(z1,), truncation=96)
    G = rs.solve_extremal(problem, m=512)
    rep = locate_zeros(G, dom06, count=2, ring=(0.53, 0.97))
    extraneous = min(rep.locations, key=lambda z: abs(z - zw))
    assert abs(zw - extraneous) <= 1e-4
    assert abs(zw - zu) > 0.1  # the coincidence claim fails numerically
