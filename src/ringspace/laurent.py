"""Truncated Laurent series: the universal finite-dimensional function
representation on the annulus.

Rational functions with poles off the closed ring are dense in every space
this library works with, and on the annulus they reduce to Laurent
polynomials, so a coefficient window ``lo..hi`` is the one basis everything
else (Grams, kernels, extremal solves) is expressed in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def fold_sum(ns: np.ndarray, terms: np.ndarray, m: int) -> np.ndarray:
    """``sum_n terms_n e^{2 pi i n k/m}`` for ``k = 0..m-1`` by one inverse FFT
    (``ns`` strictly ascending), one sum per row of ``terms`` along its last
    axis.  ``e^{2 pi i n k/m}`` depends on ``n mod m`` only, so folding the
    terms onto ``n mod m`` is exact for every ``m``."""
    base, rows = ns[0] - ns[0] % m, terms.shape[:-1]
    folded = np.zeros(rows + (-(-(ns[-1] - base + 1) // m) * m,), dtype=complex)
    folded[..., ns - base] = terms
    return m * np.fft.ifft(folded.reshape(rows + (-1, m)).sum(axis=-2))


@dataclass(frozen=True)
class LaurentPolynomial:
    """Finite Laurent sum ``f(z) = sum_{n=lo..hi} c_n z^n``.

    ``coeffs[k]`` holds the coefficient of ``z^(lo + k)``.  Evaluation splits
    into a Horner pass for the nonnegative powers and a Horner pass in ``1/z``
    for the negative ones, which avoids overflow of bare ``z**-n`` factors.
    """

    lo: int
    hi: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if self.lo > self.hi:
            raise ValueError(f"empty window: lo={self.lo} > hi={self.hi}")
        if c.shape != (self.hi - self.lo + 1,):
            raise ValueError(
                f"coefficient array of length {c.size} does not match window "
                f"[{self.lo}, {self.hi}]"
            )
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_dict(cls, d: dict[int, complex]) -> "LaurentPolynomial":
        if not d:
            return cls(0, 0, np.zeros(1, dtype=complex))
        lo, hi = min(d), max(d)
        c = np.zeros(hi - lo + 1, dtype=complex)
        for n, v in d.items():
            c[n - lo] = v
        return cls(lo, hi, c)

    @classmethod
    def constant(cls, value: complex) -> "LaurentPolynomial":
        return cls(0, 0, np.array([value], dtype=complex))

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        nonneg_lo = max(self.lo, 0)
        result = np.zeros(z.shape, dtype=complex)
        if self.hi >= 0:
            # Horner, highest power first; then multiply by z**nonneg_lo.
            pos = self.coeffs[nonneg_lo - self.lo:]
            acc = np.zeros(z.shape, dtype=complex)
            for c in pos[::-1]:
                acc = acc * z + c
            if nonneg_lo > 0:
                acc = acc * z**nonneg_lo
            result = result + acc
        if self.lo < 0:
            w = 1.0 / z
            acc = np.zeros(z.shape, dtype=complex)
            # lowest power first; exactly |lo| multiplications by 1/z, with
            # zero coefficients where the window stops above -1
            for k in range(self.lo, 0):
                c = self.coeffs[k - self.lo] if k <= min(self.hi, -1) else 0.0
                acc = (acc + c) * w
            result = result + acc
        return result if result.shape else complex(result)

    def on_rings(self, radii, m: int, turn: float = 0.0) -> np.ndarray:
        """Values at ``radii[i] * e^{i (turn + 2 pi k/m)}``, shape ``(len(radii), m)``,
        by ``fold_sum`` over a few rings at a time (work arrays near ``2^13``
        entries), in O(width + len(radii) * m) memory.  Each ring's terms
        ``c_n rho^n`` are scaled by the largest in log space, so ``rho^n`` cannot
        overflow where the term does not; the logs are in ``longdouble`` because
        ``log|c_n|`` and ``n log rho`` cancel, and the phase is ``np.angle``,
        exact for subnormal coefficients too.  A turn adds ``n * turn`` to the
        phase of ``c_n``, to about ``|n turn| eps``.
        """
        out = np.zeros((len(radii), m), dtype=complex)
        nz = np.flatnonzero(self.coeffs)  # zero terms stay out: -inf is slow in longdouble
        if nz.size == 0:
            return out
        ns, c = self.lo + nz, self.coeffs[nz]
        log_c = np.log(np.hypot(c.real.astype(np.longdouble), c.imag.astype(np.longdouble)))
        phase, n_ld = np.exp(1j * (np.angle(c) + ns * turn)), ns.astype(np.longdouble)
        log_rho = np.log(np.asarray(radii, dtype=np.longdouble))
        step = max(1, 2**13 // max(ns.size, m))  # rings per fold_sum
        for k in range(0, len(out), step):
            log_t = log_c + log_rho[k:k + step, None] * n_ld
            top = log_t.max(axis=1, keepdims=True)
            x = (log_t - top).astype(float)  # terms below e^-700 of the top are dropped
            terms = np.exp(x, out=np.zeros(x.shape), where=x > -700.0) * phase
            out[k:k + step] = np.exp(top.astype(float)) * fold_sum(ns, terms, m)
        return out

    def derivative(self) -> "LaurentPolynomial":
        ns = np.arange(self.lo, self.hi + 1)
        return LaurentPolynomial(self.lo - 1, self.hi - 1, self.coeffs * ns)

    def __add__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            other = LaurentPolynomial.constant(other)
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        c = np.zeros(hi - lo + 1, dtype=complex)
        c[self.lo - lo: self.lo - lo + self.coeffs.size] += self.coeffs
        c[other.lo - lo: other.lo - lo + other.coeffs.size] += other.coeffs
        return LaurentPolynomial(lo, hi, c)

    __radd__ = __add__

    def __mul__(self, other):
        if np.isscalar(other) or isinstance(other, complex):
            return LaurentPolynomial(self.lo, self.hi, self.coeffs * other)
        c = np.convolve(self.coeffs, other.coeffs)
        return LaurentPolynomial(self.lo + other.lo, self.hi + other.hi, c)

    __rmul__ = __mul__


def to_laurent(f, domain, lo: int, hi: int, samples: int | None = None,
               radius: float | None = None) -> LaurentPolynomial:
    """Laurent coefficients of an analytic function by FFT on one circle.

    Any radius inside the ring gives the same coefficients exactly (Cauchy);
    the geometric mean ``sqrt(r)`` balances aliasing from the two ends of the
    window.  ``samples`` defaults to eight times the window width.
    """
    width = hi - lo + 1
    m = samples or max(256, 8 * width)
    rho = radius if radius is not None else np.sqrt(domain.inner_radius)
    theta = 2.0 * np.pi * np.arange(m) / m
    vals = np.asarray(f(rho * np.exp(1j * theta)), dtype=complex)
    hat = np.fft.fft(vals) / m  # hat[k] = sum_n c_n rho^n delta(n = k mod m)
    ns = np.arange(lo, hi + 1)
    idx = ns % m
    return LaurentPolynomial(lo, hi, hat[idx] * rho**(-ns.astype(float)))
