import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringspace as rs
from ringspace.laurent import LaurentPolynomial, fold_sum, to_laurent

from oracles import horner_values


def brute_eval(f, z):
    return sum(c * z**n for n, c in zip(range(f.lo, f.hi + 1), f.coeffs))


coeff = st.complex_numbers(min_magnitude=0, max_magnitude=3,
                           allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(lo=st.integers(-6, 2), width=st.integers(0, 7),
       cs=st.lists(coeff, min_size=8, max_size=8),
       zr=st.floats(0.4, 1.4), zt=st.floats(0, 6.28))
def test_horner_matches_power_sum(lo, width, cs, zr, zt):
    f = LaurentPolynomial(lo, lo + width, np.array(cs[: width + 1]))
    z = zr * np.exp(1j * zt)
    assert f(z) == pytest.approx(brute_eval(f, z), abs=1e-10)


def test_window_mismatch_rejected():
    with pytest.raises(ValueError):
        LaurentPolynomial(0, 2, np.array([1.0]))
    with pytest.raises(ValueError):
        LaurentPolynomial(3, 1, np.array([1.0]))


def test_arithmetic_window_bookkeeping():
    f = LaurentPolynomial.from_dict({-2: 1.0, 1: 2.0})
    g = LaurentPolynomial.from_dict({0: -1.0, 3: 0.5})
    s = f + g
    assert (s.lo, s.hi) == (-2, 3)
    p = f * g
    assert (p.lo, p.hi) == (-2, 4)
    z = 0.8 * np.exp(0.3j)
    assert s(z) == pytest.approx(f(z) + g(z))
    assert p(z) == pytest.approx(f(z) * g(z))
    assert (f * 2.5)(z) == pytest.approx(2.5 * f(z))


def test_derivative():
    f = LaurentPolynomial.from_dict({-1: 2.0, 0: 5.0, 3: 1.0})
    df = f.derivative()
    z = 0.75 * np.exp(1.1j)
    assert df(z) == pytest.approx(-2.0 / z**2 + 3 * z**2)


@pytest.mark.parametrize("seed", range(12))
def test_point_value_matches_horner_oracle(seed):
    # one point runs Horner on Python complex, an array of points in numpy: the
    # two agree to rounding of the sum of the terms' moduli on random windows
    rng = np.random.default_rng(seed)
    lo = int(rng.integers(-400, 20))
    hi = lo + int(rng.integers(0, 800))
    ns = np.arange(lo, hi + 1)
    c = (rng.standard_normal(ns.size) + 1j * rng.standard_normal(ns.size)) * 0.98 ** np.abs(ns)
    f = LaurentPolynomial(lo, hi, c)
    for z in (0.6 + 0.6 * rng.random(8)) * np.exp(2j * np.pi * rng.random(8)):
        got = f(complex(z))
        assert isinstance(got, complex)
        scale = np.sum(np.abs(c) * np.abs(z) ** ns.astype(float))
        assert abs(got - horner_values(f, z)) <= 1e-14 * scale


@pytest.mark.parametrize("window, z", [((-3, 400), 1e3), ((-3, 400), 0.0), ((-5, -2), 0.0),
                                       ((-5, -2), 1e-200), ((3, 5), 1e200), ((0, 4), np.nan),
                                       ((-2, 2), complex(np.inf, 1.0))])
def test_point_value_non_finite_parity(window, z):
    # where the numpy path overflows or divides by zero, the scalar path gives
    # inf/nan too, and neither raises nor warns (Newton reads it as a failed step)
    f = LaurentPolynomial(*window, np.full(window[1] - window[0] + 1, 1.0 + 0.5j))
    with np.errstate(all="ignore"):
        oracle = horner_values(f, z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = f(z)
    assert not np.isfinite(got) and not np.isfinite(oracle)


def test_size_one_arrays_keep_their_shape():
    f = LaurentPolynomial.from_dict({-2: 0.5, 0: 1.0, 3: 2.0 - 1j})
    z = 0.7 + 0.2j
    assert isinstance(f(z), complex) and isinstance(f(np.asarray(z)), complex)
    assert f(np.array([z])).shape == (1,) and f(np.array([[z]])).shape == (1, 1)
    assert f(np.array([z]))[0] == f(z) == f(np.array([[z]]))[0, 0]
    assert f(np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("turn", [0.0, 0.3])
@pytest.mark.parametrize("size", [1.0, 1e-300])
def test_ring_terms_scale_by_each_rings_largest_term(turn, size):
    # probes reads e^top * terms with |terms| <= 1 and top the log of each ring's
    # largest term; terms near 1e-300 leave the double path's range and take the
    # longdouble log path, with the same contract
    rng = np.random.default_rng(4)
    ns = np.arange(-96, 97)
    unit = (rng.standard_normal(ns.size) + 1j) * 0.97 ** np.abs(ns)
    f = LaurentPolynomial(-96, 96, size * unit)
    radii = np.linspace(0.5, 1.0, 40)
    exact = unit * radii[:, None] ** ns * np.exp(1j * ns * turn)  # the terms over size
    seen = 0
    for k, n, top, terms in f.ring_terms(radii, 512, turn):
        block = exact[k:k + len(terms)]
        largest = np.max(np.abs(block), axis=1)
        unit_top = (top[:, 0] - np.log(size)).astype(float)
        assert np.array_equal(n, ns)
        assert np.max(np.abs(terms)) <= 1.0 + 1e-15
        assert np.max(np.abs(unit_top - np.log(largest))) <= 1e-12
        err = np.max(np.abs(np.exp(unit_top)[:, None] * terms - block), axis=1)
        assert np.all(err <= 1e-13 * largest)
        seen += len(terms)
    assert seen == radii.size


def test_deep_negative_powers_do_not_overflow():
    # c_{-n} decays geometrically; Horner in 1/z keeps partial sums bounded.
    ns = np.arange(-2000, 1)
    f = LaurentPolynomial(-2000, 0, 0.2 ** np.abs(ns))
    val = f(0.55 * np.exp(0.2j))
    assert np.isfinite(val)
    # geometric closed form of the dominant terms: sum (0.2/z)^k
    w = 0.2 / (0.55 * np.exp(0.2j))
    assert val == pytest.approx(1 / (1 - w), rel=1e-12)


def test_to_laurent_recovers_rational_coefficients():
    # f = 1/(z - 2) + 1/(z - 0.1): poles off the closed ring {0.4 <= |z| <= 1}
    dom = rs.make_annulus(0.4, 0.6)
    f = lambda z: 1.0 / (z - 2.0) + 1.0 / (z - 0.1)
    lp = to_laurent(f, dom, -12, 12)
    # 1/(z-2) = -sum_{n>=0} z^n / 2^{n+1};  1/(z-0.1) = sum_{n>=1} 0.1^{n-1} z^{-n}
    for n in range(0, 13):
        assert lp.coeffs[n - lp.lo] == pytest.approx(-(0.5 ** (n + 1)), abs=1e-13)
    for n in range(1, 13):
        assert lp.coeffs[-n - lp.lo] == pytest.approx(0.1 ** (n - 1), abs=1e-13)


# ------------------------------------------------------- ring evaluation by FFT

def _ring_nodes(radii, m):
    return np.asarray(radii)[:, None] * np.exp(2j * np.pi * np.arange(m) / m)[None, :]


def _decaying(rng, lo, hi, r, q):
    """Random coefficients whose terms stay below 1 on every circle in [r, 1]:
    ``q^n`` for n >= 0 and ``(q r)^|n|`` for n < 0 (deep ones go subnormal, then 0)."""
    ns = np.arange(lo, hi + 1)
    scale = np.where(ns >= 0, q ** np.abs(ns), (q * r) ** np.abs(ns))
    return (rng.standard_normal(ns.size) + 1j * rng.standard_normal(ns.size)) * scale


def _assert_rings_match_horner(f, radii, m, rtol=1e-13):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fast = f.on_rings(radii, m)
        slow = f(_ring_nodes(radii, m).ravel()).reshape(len(radii), m)
    assert fast.shape == (len(radii), m)
    scale = np.max(np.abs(slow), axis=1)
    assert np.all(scale > 0)
    assert np.max(np.abs(fast - slow).max(axis=1) / scale) <= rtol


@pytest.mark.parametrize("width", [1, 2, 7, 100, 513, 1000, 8193])
@pytest.mark.parametrize("m", [16, 101, 512])
@pytest.mark.parametrize("window", ["centred", "lo>0", "hi<0"])
def test_on_rings_matches_horner(width, m, window):
    # widths above m fold several frequencies onto one FFT bin
    lo = {"centred": -(width // 2), "lo>0": 3, "hi<0": -width - 4}[window]
    rng = np.random.default_rng(width * 1000 + m)
    r = 0.5
    f = LaurentPolynomial(lo, lo + width - 1, _decaying(rng, lo, lo + width - 1, r, 0.95))
    _assert_rings_match_horner(f, [r, 0.6, np.sqrt(r), 0.9, 1.0], m)


def test_on_rings_deep_window_at_small_r():
    # 0.05^-4096 overflows; the terms c_n rho^n do not
    r = 0.05
    rng = np.random.default_rng(5)
    f = LaurentPolynomial(-4096, 64, _decaying(rng, -4096, 64, r, 0.8))
    assert np.any((f.coeffs != 0) & (np.abs(f.coeffs) < np.finfo(float).tiny))
    assert np.any(f.coeffs == 0)
    x, _ = np.polynomial.legendre.leggauss(64)
    area_radii = 0.5 * (1.0 - r) * x + 0.5 * (1.0 + r)
    _assert_rings_match_horner(f, area_radii, 512)
    _assert_rings_match_horner(f, [1.0, r], 512)


def test_fold_sum_rows_match_one_row_at_a_time():
    rng = np.random.default_rng(3)
    ns = np.array([-40, -7, 0, 3, 64, 65, 200])
    terms = rng.standard_normal((4, ns.size)) + 1j * rng.standard_normal((4, ns.size))
    for m in (16, 64):
        rows = fold_sum(ns, terms, m)
        assert rows.shape == (4, m)
        for row, t in zip(rows, terms):
            assert np.array_equal(row, fold_sum(ns, t, m))


def test_on_rings_zero_and_subnormal_coefficients():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(301) + 1j * rng.standard_normal(301)
    c[::3] = 0.0
    c[1::7] = 5e-320 * (1 + 1j)
    f = LaurentPolynomial(-150, 150, c * 0.9 ** np.abs(np.arange(-150, 151)))
    _assert_rings_match_horner(f, [0.95, 1.0], 101)
    zero = LaurentPolynomial(-3, 3, np.zeros(7))
    assert np.array_equal(zero.on_rings([0.5, 1.0], 16), np.zeros((2, 16)))


def test_on_rings_is_exact_where_horner_loses_subnormal_digits():
    # Coefficients (0.99 r)^|n| at r=0.05 go subnormal while their terms on
    # |z| = r are still 0.99^|n| ~ 0.1: Horner's partial sums pass through the
    # subnormal range and lose digits, the log-scaled terms do not.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    r, m = 0.05, 16
    rng = np.random.default_rng(1)
    f = LaurentPolynomial(-256, 256, _decaying(rng, -256, 256, r, 0.99))
    fast = f.on_rings([r], m)[0]
    ns = np.arange(f.lo, f.hi + 1)
    for k in (0, 5, 11):
        z = mp.mpf(r) * mp.expjpi(mp.mpf(2 * k) / m)
        exact = complex(mp.fsum(mp.mpc(c) * z**int(n) for n, c in zip(ns, f.coeffs) if c != 0))
        assert abs(fast[k] - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("n, rho", [(-230, 0.05), (-700, 0.37), (400, 0.2),
                                    (-4000, 0.84), (4000, 0.84), (-150, 0.01)])
def test_on_rings_monomial_to_rounding(n, rho):
    # |c| near 1e300 or 1e-300 and rho^n its inverse: log|c| and n log rho
    # cancel, so each must keep its digits (in double this is off by ~200 eps)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    c = complex(mp.mpf(rho) ** (-n)) * np.exp(0.3j)
    fast = LaurentPolynomial(n, n, np.array([c])).on_rings([rho], 16)[0]
    for k in range(16):
        exact = complex(mp.mpc(c) * (mp.mpf(rho) * mp.expjpi(mp.mpf(2 * k) / 16)) ** n)
        assert abs(fast[k] - exact) <= 4 * np.finfo(float).eps * abs(exact)


def test_on_rings_memory_stays_flat():
    # 64 rings x 8193 coefficients at m=512: no (rings x width) array
    ns = np.arange(-4096, 4097)
    f = LaurentPolynomial(-4096, 4096, np.exp(1j * ns) * 0.95 ** np.abs(ns))  # none zero
    radii = np.linspace(0.9, 1.0, 64)
    f.on_rings(radii[:2], 512)  # warm the FFT plan cache
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f.on_rings(radii, 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
