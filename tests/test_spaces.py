import math

import numpy as np
import pytest

import ringspace as rs
from ringspace.errors import ArgumentError
from ringspace.laurent import LaurentPolynomial
from ringspace.spaces import (SpaceKind, SpaceTag, _gauss_legendre, area_quadrature,
                              bergman_tag, boundary_quadrature, gram_matrix, hardy_tag,
                              inner_product, log_monomial_norms, measure_quadrature,
                              quadrature_for, ring_gram, scaled_gram, smirnov_tag,
                              weighted_gram)

from oracles import (bergman_monomial_norm, dense_gram, dirichlet_green, equilibrated,
                     green_images, hardy_monomial_norm, loop_ring_gram, monomial_norms,
                     node_measure_quadrature, smirnov_monomial_norm)


# ------------------------------------------------------------ monomial norms

def test_smirnov_examples():
    d = rs.make_annulus(0.5, 0.7)
    norms = monomial_norms(d, smirnov_tag(), 2)
    assert norms[2 + 1] == pytest.approx(2 * np.pi * 1.125)  # n = 1
    assert norms[2 + 0] == pytest.approx(2 * np.pi * 1.5)


def test_bergman_examples():
    d = rs.make_annulus(0.5, 0.7)
    norms = monomial_norms(d, bergman_tag(), 2)
    assert norms[2 + 0] == pytest.approx(0.75)            # n = 0
    assert norms[2 - 1] == pytest.approx(2 * math.log(2))  # n = -1


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
def test_monomial_norms_match_quadrature_oracles(r):
    d = rs.make_annulus(r, (1 + r) / 2)
    N = 16
    e2 = monomial_norms(d, smirnov_tag(), N)
    a2 = monomial_norms(d, bergman_tag(), N)
    for i, n in enumerate(range(-N, N + 1)):
        assert e2[i] == pytest.approx(smirnov_monomial_norm(r, n), rel=1e-10)
        assert a2[i] == pytest.approx(bergman_monomial_norm(r, n), rel=1e-10)


def test_hardy_norms_match_per_circle_masses():
    d = rs.make_annulus(0.5, 0.7)
    N = 8
    norms = scaled_gram(d, hardy_tag(), N)[1]**2  # the diagonal of the quadrature Gram
    for i, n in enumerate(range(-N, N + 1)):
        assert norms[i] == pytest.approx(hardy_monomial_norm(0.5, 0.7, n), rel=1e-10)


@pytest.mark.parametrize("r, base", [(0.5, 0.7), (0.3, 0.4 - 0.3j),
                                     (0.7, 0.955 * np.exp(0.3j)), (0.9, 0.95)])
@pytest.mark.parametrize("m", [64, 512])
def test_measure_quadrature_matches_node_oracle(r, base, m):
    d = rs.make_annulus(r, base)
    pts, w = measure_quadrature(d, m)
    N = rs.harmonic.tail_truncation(d, base, 1e-15, 128)
    opts, ow = node_measure_quadrature(d, m, N_green=N)
    assert np.max(np.abs(pts - opts)) <= 1e-15
    assert np.max(np.abs(w - ow)) <= 1e-13 * np.max(np.abs(ow))


@pytest.mark.parametrize("r, base", [(0.7, 0.955 * np.exp(0.3j)), (0.9, 0.95)])
def test_measure_quadrature_envelope_near_a_circle(r, base):
    # Truncated at 128, both geometries leave Green boundary residuals near
    # 1e-4 and weights down to -4e-6; the tail-bound truncation must not.
    d = rs.make_annulus(r, base)
    m = 1024
    pts, w = measure_quadrature(d, m)
    dens = w / np.concatenate([np.full(m, 2 * np.pi / m), np.full(m, 2 * np.pi * r / m)])
    # The far-side density at r = 0.9 is near exp(-pi^2 / (1 - r)), below the
    # rounding of the O(1) flux terms that cancel to give it.
    assert np.min(dens) >= -4 * np.finfo(float).eps * np.max(dens)
    assert abs(np.sum(w) - 1.0) <= 1e-10
    N = rs.harmonic.tail_truncation(d, base, 1e-15, 128)
    g = dirichlet_green(d, base, N)
    assert g.truncation > 128
    boundary = pts[::4]
    exact = green_images(boundary, base, r, terms=400)
    assert np.max(np.abs(g(boundary) - exact)) <= 1e-12
    assert np.max(np.abs(exact)) <= 1e-12


@pytest.mark.parametrize("m", [0, 2, 3])
def test_measure_quadrature_rejects_too_few_nodes(m):
    with pytest.raises(ArgumentError, match="at least 4"):
        measure_quadrature(rs.make_annulus(0.5, 0.7), m)


def test_radial_gauss_rule_is_cached_read_only_and_unchanged():
    x, w = _gauss_legendre(64)
    x0, w0 = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(x, x0) and np.array_equal(w, w0)
    assert _gauss_legendre(64)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    dom = rs.make_annulus(0.3, 0.6)
    first, again = area_quadrature(dom, 64), area_quadrature(dom, 64)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


def test_weighted_tag_rejected_by_monomial_norms():
    d = rs.make_annulus(0.5, 0.7)
    with pytest.raises(ArgumentError):
        monomial_norms(d, smirnov_tag(weight_fn=lambda z: z), 4)


def _linear_norms(r, tag, N):
    # the closed forms in linear space: the reference for the log form
    ns = np.arange(-N, N + 1, dtype=float)
    with np.errstate(over="ignore"):
        if tag.kind is SpaceKind.SMIRNOV_ARCLENGTH:
            return 2.0 * np.pi * (1.0 + r**(2.0 * ns + 1.0))
        return np.array([2.0 * math.log(1.0 / r) if n == -1.0
                         else (1.0 - r**(2.0 * n + 2.0)) / (n + 1.0) for n in ns])


@pytest.mark.parametrize("r", [0.05, 0.3, 0.5, 0.7, 0.95])
@pytest.mark.parametrize("N", [0, 1, 16, 64])
@pytest.mark.parametrize("make_tag", [smirnov_tag, bergman_tag])
def test_log_monomial_norms_match_linear_closed_forms(r, N, make_tag):
    d = rs.make_annulus(r, (1 + r) / 2)
    old = _linear_norms(r, make_tag(), N)
    new = np.exp(log_monomial_norms(d, make_tag(), N))
    assert new.shape == (2 * N + 1,)
    finite = np.isfinite(old)
    assert np.max(np.abs(new[finite] - old[finite]) / old[finite]) <= 1e-13


@pytest.mark.parametrize("tag", [hardy_tag(), smirnov_tag(weight_fn=lambda z: z),
                                 bergman_tag(weight_fn=lambda z: z)])
def test_log_monomial_norms_reject_non_diagonal_tags(tag):
    d = rs.make_annulus(0.5, 0.7)
    with pytest.raises(ArgumentError):
        log_monomial_norms(d, tag, 4)


def test_monomial_norms_overflow_where_the_log_form_does_not():
    d = rs.make_annulus(0.3, 0.65)
    logs = log_monomial_norms(d, smirnov_tag(), 400)
    assert np.all(np.isfinite(logs))
    assert np.isinf(monomial_norms(d, smirnov_tag(), 400)[0])


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
def test_area_rule_scale_matches_the_closed_form(r):
    # inside the envelope of the 64-node radial rule: N = 96
    d = rs.make_annulus(r, (1 + r) / 2)
    _, scale = weighted_gram(d, bergman_tag(), 96, 388)
    exact = np.exp(log_monomial_norms(d, bergman_tag(), 96))
    assert np.max(np.abs(scale**2 - exact) / exact) <= 1e-12


# ------------------------------------------------------------------- Gram

def test_unweighted_smirnov_gram_is_diagonal():
    d = rs.make_annulus(0.5, 0.7)
    N = 8
    G = gram_matrix(d, smirnov_tag(), N, 4 * N + 4)
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) < 1e-12 * np.max(np.abs(np.diag(G)))
    assert np.real(np.diag(G)) == pytest.approx(monomial_norms(d, smirnov_tag(), N), rel=1e-12)


def test_modulus_z_weight_shifts_bergman_diagonal():
    d = rs.make_annulus(0.5, 0.7)
    N = 6
    tag = bergman_tag(weight_fn=lambda z: np.asarray(z, dtype=complex))
    G = gram_matrix(d, tag, N, 4 * N + 4)
    plain = monomial_norms(d, bergman_tag(), N + 1)
    for i, n in enumerate(range(-N, N + 1)):
        assert np.real(G[i, i]) == pytest.approx(plain[(n + 1) + (N + 1)], rel=1e-12)


def test_weighted_gram_positive_definite():
    d = rs.make_annulus(0.5, 0.6)
    B = rs.blaschke_factor(d, 0.7)
    G = gram_matrix(d, bergman_tag(weight_fn=B), 12, 128)
    Gs, _ = equilibrated(G)
    np.linalg.cholesky(Gs)  # oracle: Cholesky succeeds iff positive definite
    assert np.min(np.linalg.eigvalsh(Gs)) > 0


def test_gram_aliasing_guard():
    d = rs.make_annulus(0.5, 0.7)
    with pytest.raises(ArgumentError):
        gram_matrix(d, smirnov_tag(), 8, 35)


@pytest.mark.parametrize("make_tag,m", [(smirnov_tag, 36), (bergman_tag, 72),
                                        (hardy_tag, 512)])
def test_gram_doubling_m_stability(make_tag, m):
    # the harmonic-measure density needs a few hundred nodes before the
    # trapezoid error drops under the target, hence the larger floor there
    d = rs.make_annulus(0.5, 0.7)
    N = 8
    weight = rs.blaschke_factor(d, 0.66)
    tag = make_tag(weight_fn=weight)
    G1 = gram_matrix(d, tag, N, m)
    G2 = gram_matrix(d, tag, N, 2 * m)
    scale = np.max(np.abs(G1))
    assert np.max(np.abs(G1 - G2)) <= 1e-10 * scale


@pytest.mark.parametrize("make_tag", [smirnov_tag, hardy_tag, bergman_tag])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("N,m", [(8, 36), (24, 512)])
def test_ring_gram_matches_dense_vandermonde(make_tag, weighted, N, m):
    # a non-real base point and weight zero make every Gram genuinely complex
    d = rs.make_annulus(0.4, 0.65j)
    tag = make_tag(weight_fn=rs.blaschke_factor(d, 0.55 - 0.3j) if weighted else None)
    Gs, scale = weighted_gram(d, tag, N, m)
    oracle, oracle_scale = equilibrated(dense_gram(d, tag, N, m))
    assert np.all(np.diag(Gs) == 1.0)
    assert np.max(np.abs(Gs - oracle)) <= 1e-13
    assert np.max(np.abs(scale / oracle_scale - 1.0)) <= 1e-13


def test_gram_hermitian():
    d = rs.make_annulus(0.5, 0.7)
    tag = hardy_tag()
    G = gram_matrix(d, tag, 6, 64)
    assert np.max(np.abs(G - G.conj().T)) < 1e-14


# ----------------------------------------------------------- inner products

def test_inner_product_examples():
    d = rs.make_annulus(0.5, 0.7)
    z = LaurentPolynomial.from_dict({1: 1.0})
    one = LaurentPolynomial.from_dict({0: 1.0})
    assert inner_product(z, z, d, smirnov_tag()) == pytest.approx(2 * np.pi * 1.125)
    # monomials are orthogonal under arclength and area; NOT under harmonic
    # measure, where <z, 1> reproduces the base point instead
    for tag in (smirnov_tag(), bergman_tag()):
        assert abs(inner_product(z, one, d, tag)) < 1e-13


def test_inner_product_positivity_and_cauchy_schwarz():
    d = rs.make_annulus(0.5, 0.7)
    rng = np.random.default_rng(11)
    tag = bergman_tag()
    for _ in range(20):
        f = LaurentPolynomial(-4, 4, rng.standard_normal(9) + 1j * rng.standard_normal(9))
        g = LaurentPolynomial(-4, 4, rng.standard_normal(9) + 1j * rng.standard_normal(9))
        ff = inner_product(f, f, d, tag)
        gg = inner_product(g, g, d, tag)
        fg = inner_product(f, g, d, tag)
        assert ff.real >= 0 and abs(ff.imag) < 1e-12 * ff.real
        assert abs(fg) ** 2 <= ff.real * gg.real * (1 + 1e-12)
        # conjugate symmetry
        assert inner_product(g, f, d, tag) == pytest.approx(np.conj(fg))


def test_inner_product_agrees_with_gram():
    d = rs.make_annulus(0.5, 0.7)
    rng = np.random.default_rng(2)
    N = 5
    tag = hardy_tag()
    G = gram_matrix(d, tag, N, 512)
    a = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
    b = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
    f = LaurentPolynomial(-N, N, a)
    g = LaurentPolynomial(-N, N, b)
    via_gram = a @ G @ np.conj(b)
    assert inner_product(f, g, d, tag, m=512) == pytest.approx(via_gram, rel=1e-10)


def test_hardy_measure_reproduces_identity_function():
    # the pairing <z, 1> in the harmonic-measure space is the base point itself
    d = rs.make_annulus(0.5, 0.7)
    z = LaurentPolynomial.from_dict({1: 1.0})
    one = LaurentPolynomial.from_dict({0: 1.0})
    assert inner_product(z, one, d, hardy_tag()) == pytest.approx(0.7, abs=1e-12)
    assert inner_product(one, one, d, hardy_tag()) == pytest.approx(1.0, abs=1e-10)


def test_norm_of_constant_in_hardy_space():
    d = rs.make_annulus(0.5, 0.7)
    assert rs.norm(lambda z: np.ones(np.shape(z)), d, hardy_tag()) == pytest.approx(1.0, abs=1e-10)


# --------------------------------------------------------- weighted measures

@pytest.mark.parametrize("kind", list(SpaceKind))
@pytest.mark.parametrize("weight", ["blaschke", "lambda"])
def test_quadrature_for_folds_in_the_weight(kind, weight):
    d = rs.make_annulus(0.5, 0.7)
    u = (rs.blaschke_factor(d, 0.55 - 0.3j) if weight == "blaschke"
         else lambda z: np.asarray(z, dtype=complex) + 0.2)
    pts, w = quadrature_for(d, SpaceTag(kind, u), 128)
    plain_pts, plain_w = quadrature_for(d, SpaceTag(kind), 128)
    np.testing.assert_array_equal(pts, plain_pts)
    expected = plain_w * np.abs(np.asarray(u(pts), dtype=complex))**2  # point by point
    assert np.max(np.abs(w - expected) / expected) <= 1e-13


def test_unweighted_quadrature_for_is_the_plain_measure():
    d = rs.make_annulus(0.5, 0.7)
    for tag, plain in ((smirnov_tag(), boundary_quadrature), (bergman_tag(), area_quadrature),
                       (hardy_tag(), measure_quadrature)):
        for got, want in zip(quadrature_for(d, tag, 128), plain(d, 128)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("N", [32, 96])
@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
def test_area_gram_by_one_gemm_matches_the_ring_loop(r, N):
    # 64 rings sum as one product over the a+b powers; the ring-by-ring
    # Toeplitz sum is the oracle, on a weight that vanishes inside the ring
    dom = rs.make_annulus(r, math.sqrt(r))
    pts, w = area_quadrature(dom, 512)
    w = w * np.abs(pts - 0.8 * math.sqrt(r) * np.exp(0.4j))**2
    Gs, d = ring_gram(pts, w, 512, N)
    Go, do = loop_ring_gram(pts, w, 512, N)
    assert np.max(np.abs(Gs - Go)) <= 1e-14
    assert np.max(np.abs(d / do - 1.0)) <= 1e-14


def test_boundary_gram_keeps_the_ring_loop(dom):
    # two rings (Hardy and arclength Grams) keep the loop bit for bit
    pts, w = quadrature_for(dom, hardy_tag(), 512)
    Gs, d = ring_gram(pts, w, 512, 64)
    Go, do = loop_ring_gram(pts, w, 512, 64)
    assert np.array_equal(Gs, Go) and np.array_equal(d, do)
