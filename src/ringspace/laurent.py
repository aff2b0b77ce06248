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
    for the negative ones, which avoids overflow of bare ``z**-n`` factors: on
    Python ``complex`` for one point (``_at``), in numpy for an array of
    scattered points.  Nodes laid out ring by ring take ``on_rings``.
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
        if z.size == 1:
            value = self._at(z.item())
            return np.full(z.shape, value) if z.shape else value
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
        return result

    def _at(self, z: complex) -> complex:
        """The value at one point: the array path's two Horner passes on Python
        ``complex``, about a tenth of the cost of numpy 0-d arithmetic.  Python's
        complex ``*`` and ``+`` never raise, so an overflow gives inf/nan as the
        array path does; ``1/z`` and ``z**nonneg_lo`` are numpy scalars, rounded
        as the array path rounds them (``1/0`` is inf+nanj there)."""
        c, nonneg_lo, out = self.coeffs.tolist(), max(self.lo, 0), 0j
        if self.hi >= 0:
            acc = 0j
            for a in reversed(c[nonneg_lo - self.lo:]):
                acc = acc * z + a
            if nonneg_lo > 0:
                with np.errstate(all="ignore"):
                    acc = acc * complex(np.complex128(z)**nonneg_lo)
            out = out + acc
        if self.lo < 0:
            with np.errstate(all="ignore"):
                w, acc = complex(1.0 / np.complex128(z)), 0j
            for a in c[:min(self.hi, -1) - self.lo + 1]:
                acc = (acc + a) * w
            for _ in range(-1 - min(self.hi, -1)):  # zeros where the window stops above -1
                acc = acc * w
            out = out + acc
        return out

    def ring_terms(self, radii, width: int = 1, turn: float = 0.0):
        """Yield ``(k, ns, top, terms)`` for the rings from ``radii[k]`` on, a few at a time
        (work arrays near ``2^13`` entries, or ``width`` a ring): each ring's nonzero terms
        ``c_n rho^n e^{i n turn}`` are ``e^top * terms``, ``top`` the log of the ring's largest
        term, so every term has modulus at most 1.

        Where every ``|n log rho|`` is below 600 and every ``|c_n|`` a normal double, the
        terms are ``c_n rho^n`` in double (``pow`` is good to an ulp), kept for a block of rings
        whose largest terms all lie in ``[1e-290, 1e290]``.  Other blocks take the log path:
        terms scaled by the largest in log space (in ``longdouble``: ``log|c_n|`` and
        ``n log rho`` cancel), so ``rho^n`` cannot overflow where the term does not; the phase
        ``np.angle(c_n) + n turn`` is exact for subnormal ``c_n``, and good to ``|n turn| eps``."""
        nz = np.flatnonzero(self.coeffs)  # zero terms stay out: -inf is slow in longdouble
        if nz.size == 0:
            return
        ns, c = self.lo + nz, self.coeffs[nz]
        radii = np.asarray(radii, dtype=float)
        step = max(1, 2**13 // max(ns.size, width))  # rings per block
        modulus = np.abs(c)
        double = (np.max(np.abs(ns)) * np.max(np.abs(np.log(radii))) < 600.0
                  and np.min(modulus) >= np.finfo(float).tiny)
        twisted = c * np.exp(1j * ns * turn) if double and turn else c
        logs = None
        for k in range(0, len(radii), step):
            if double:
                powers = radii[k:k + step, None] ** ns
                largest = np.max(modulus * powers, axis=1, keepdims=True)
                if np.all((largest >= 1e-290) & (largest <= 1e290)):
                    yield k, ns, np.log(largest), twisted * (powers / largest)
                    continue
            if logs is None:
                log_c = np.log(np.hypot(c.real.astype(np.longdouble),
                                        c.imag.astype(np.longdouble)))
                logs = (log_c, np.exp(1j * (np.angle(c) + ns * turn)),
                        ns.astype(np.longdouble), np.log(radii.astype(np.longdouble)))
            log_c, phase, n_ld, log_rho = logs
            log_t = log_c + log_rho[k:k + step, None] * n_ld
            top = log_t.max(axis=1, keepdims=True)
            x = (log_t - top).astype(float)  # terms below e^-700 of the top are dropped
            yield k, ns, top, np.exp(x, out=np.zeros(x.shape), where=x > -700.0) * phase

    def on_rings(self, radii, m: int, turn: float = 0.0) -> np.ndarray:
        """Values at ``radii[i] * e^{i (turn + 2 pi k/m)}``, shape ``(len(radii), m)``, by
        ``fold_sum`` of ``ring_terms``, in O(width + len(radii) * m) memory."""
        out = np.zeros((len(radii), m), dtype=complex)
        for k, ns, top, terms in self.ring_terms(radii, m, turn):
            out[k:k + len(terms)] = np.exp(top.astype(float)) * fold_sum(ns, terms, m)
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


def to_laurent(f, domain, lo: int, hi: int) -> LaurentPolynomial:
    """Laurent coefficients of an analytic function by FFT on one circle.

    Any radius inside the ring gives the same coefficients exactly (Cauchy);
    the geometric mean ``sqrt(r)`` balances aliasing from the two ends of the
    window.  The circle takes eight samples per coefficient, at least 256.
    """
    m = max(256, 8 * (hi - lo + 1))
    rho = np.sqrt(domain.inner_radius)
    theta = 2.0 * np.pi * np.arange(m) / m
    vals = np.asarray(f(rho * np.exp(1j * theta)), dtype=complex)
    hat = np.fft.fft(vals) / m  # hat[k] = sum_n c_n rho^n delta(n = k mod m)
    ns = np.arange(lo, hi + 1)
    idx = ns % m
    return LaurentPolynomial(lo, hi, hat[idx] * rho**(-ns.astype(float)))
