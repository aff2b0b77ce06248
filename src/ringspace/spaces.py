"""Norms and inner products for the three Hilbert spaces on the ring.

Three tags: boundary arclength (Smirnov), boundary harmonic measure at the
base point (Hardy), and normalized area (Bergman), each optionally weighted
by ``|u|^2`` for a supplied analytic ``u``.  Everything is expressed in the
Laurent monomial basis, so weighted problems reduce to dense Hermitian
linear algebra on Gram matrices assembled ring by ring from the FFT of the
quadrature weights.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentError, SingularConstraintsError, SingularGramError
from .geometry import AnnulusDomain, boundary_nodes, ring_nodes
from .harmonic import measure_density
from .laurent import LaurentPolynomial


class SpaceKind(enum.Enum):
    SMIRNOV_ARCLENGTH = "smirnov"
    HARDY_HARMONIC_MEASURE = "hardy"
    BERGMAN_AREA = "bergman"


@dataclass(frozen=True)
class SpaceTag:
    """Which inner product to use, plus an optional ``|weight_fn|^2`` weight."""

    kind: SpaceKind
    weight_fn: Optional[Callable] = None

    @property
    def weighted(self) -> bool:
        return self.weight_fn is not None

    @property
    def orthogonal_monomials(self) -> bool:
        """Unweighted arclength and area: the Gram is diagonal (``log_monomial_norms``).
        A weight, or the base point of harmonic measure, breaks rotational symmetry."""
        return not self.weighted and self.kind in (SpaceKind.SMIRNOV_ARCLENGTH,
                                                   SpaceKind.BERGMAN_AREA)


def smirnov_tag(weight_fn=None) -> SpaceTag:
    return SpaceTag(SpaceKind.SMIRNOV_ARCLENGTH, weight_fn)


def hardy_tag(weight_fn=None) -> SpaceTag:
    return SpaceTag(SpaceKind.HARDY_HARMONIC_MEASURE, weight_fn)


def bergman_tag(weight_fn=None) -> SpaceTag:
    return SpaceTag(SpaceKind.BERGMAN_AREA, weight_fn)


def ring_values(f, pts: np.ndarray, m: int) -> np.ndarray:
    """``f`` at nodes laid out ring by ring (``ring_nodes``, turned by the first node's
    angle): one FFT per ring through ``f.on_rings`` where ``f`` has it, else ``f(pts)``."""
    if hasattr(f, "on_rings"):
        return f.on_rings(np.abs(pts[::m]), m, float(np.angle(pts[0]))).ravel()
    return np.asarray(f(pts), dtype=complex)


_GAUSS_RADIAL = 64  # exact for the polynomial radial integrands used in tests


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per ``n``."""
    x, wx = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = wx.flags.writeable = False
    return x, wx


def boundary_quadrature(domain: AnnulusDomain, m: int):
    """Points and arclength weights for both circles, m nodes each."""
    r = domain.inner_radius
    pts = boundary_nodes(domain, m)
    w = np.concatenate([np.full(m, 2.0 * np.pi / m), np.full(m, 2.0 * np.pi * r / m)])
    return pts, w


def radial_rule(domain: AnnulusDomain):
    """The Gauss-Legendre radii ``rho`` on ``[r, 1]`` and their weights ``wr`` in
    ``d rho``: the radial rule of every area sum."""
    r = domain.inner_radius
    x, wx = _gauss_legendre(_GAUSS_RADIAL)
    return 0.5 * (1.0 - r) * x + 0.5 * (1.0 + r), 0.5 * (1.0 - r) * wx


def area_quadrature(domain: AnnulusDomain, m: int):
    """Points and weights for normalized area measure dA = dx dy / pi.

    Tensor product of ``radial_rule`` in radius and trapezoid in angle;
    weights include the polar metric factor rho.
    """
    rho, wr = radial_rule(domain)
    pts = ring_nodes(rho, m).ravel()
    wt = 2.0 * np.pi / m
    w = ((wr * rho)[:, None] * np.full(m, wt)[None, :]).ravel() / np.pi
    return pts, w


def measure_quadrature(domain: AnnulusDomain, m: int):
    """``boundary_quadrature``'s points with harmonic-measure weights: the
    density ``-(1/2 pi) dg/dn`` times the arclength weight."""
    pts, ds = boundary_quadrature(domain, m)
    return pts, measure_density(domain, m) * ds


def base_quadrature(domain: AnnulusDomain, kind: SpaceKind, m: int):
    """Points and weights of a kind's unweighted measure, ``m`` nodes per circle or ring."""
    measure = {SpaceKind.SMIRNOV_ARCLENGTH: boundary_quadrature,
               SpaceKind.BERGMAN_AREA: area_quadrature,
               SpaceKind.HARDY_HARMONIC_MEASURE: measure_quadrature}.get(kind)
    if measure is None:
        raise ArgumentError(f"unknown space tag {kind}")
    return measure(domain, m)


def quadrature_for(domain: AnnulusDomain, tag: SpaceTag, m: int, measure=None):
    """Points and the tag's whole measure: the quadrature weights times ``|weight_fn|^2``.
    ``measure(m)`` gives the unweighted ``(pts, w)`` where a caller holds them
    (``ExtremalProblem.measure``); ``base_quadrature`` forms them otherwise."""
    pts, w = measure(m) if measure is not None else base_quadrature(domain, tag.kind, m)
    return pts, (w * np.abs(ring_values(tag.weight_fn, pts, m))**2 if tag.weighted else w)


def log_monomial_norms(domain: AnnulusDomain, tag: SpaceTag, N: int) -> np.ndarray:
    """``log ||z^n||^2``, n = -N..N, for unweighted arclength and area: the one
    closed form of the diagonal Grams, finite where ``r^{-2N}`` overflows.

    Arclength ``2 pi (1 + r^{2n+1})``; normalized area ``(1 - r^{2k})/k`` with
    ``k = n + 1``, and ``2 log(1/r)`` at ``k = 0``.
    """
    if not tag.orthogonal_monomials:
        raise ArgumentError("monomial norms have a closed form only for unweighted "
                            "arclength and area; use weighted_gram for the others")
    r = domain.inner_radius
    ns = np.arange(-N, N + 1, dtype=float)
    if tag.kind is SpaceKind.SMIRNOV_ARCLENGTH:
        return math.log(2.0 * math.pi) + np.logaddexp(0.0, (2.0 * ns + 1.0) * math.log(r))
    k = ns + 1.0
    a = np.maximum(np.abs(k), 1.0)  # k = 0 is set below
    out = 2.0 * np.minimum(k, 0.0) * math.log(r) + np.log1p(-r**(2.0 * a)) - np.log(a)
    out[k == 0.0] = math.log(2.0 * math.log(1.0 / r))
    return out


def ring_gram(pts: np.ndarray, weights: np.ndarray, m: int, N: int):
    """Equilibrated Gram ``(Gs, d)``, ``G[j, k] = d[j] d[k] Gs[j, k]``, of
    ``z^-N..z^N`` against node weights, with ``diag(Gs) == 1``.

    The nodes lie ring after ring, ``m`` equispaced angles from 0 on each, as
    every quadrature here lays them out.  On a ring of radius rho,
    ``<z^a, z^b> = rho^(a+b) W[a-b]`` with ``W = m * ifft(weights on the ring)``:
    a diagonally scaled Toeplitz matrix.  Powers of rho are taken in log space
    with the equilibration folded in, so nothing overflows where ``r^(-2N)``
    would.  ``m`` below ``4N + 4`` aliases the top frequencies.

    More than two rings (the area rule) sum in one GEMM: ``H[s, l] = sum_rho
    rho^s W[l]`` for ``s, l`` in ``-2N..2N``, ``rho^s`` scaled by its largest ring
    in log space, and ``G[a, b]`` gathers ``H[a+b, a-b]``.  The two boundary
    circles keep the ring loop, bit for bit.
    """
    if m < 4 * N + 4:
        raise ArgumentError(f"need m >= 4N+4 = {4 * N + 4} quadrature nodes, got {m}")
    ns = np.arange(-N, N + 1)
    spectra = m * np.fft.ifft(np.reshape(weights, (-1, m)), axis=1)
    log_rho = np.log(np.abs(pts[::m]))
    log_pow = log_rho[:, None] * ns[None, :]
    with np.errstate(divide="ignore"):  # provisional scale: the largest ring term
        log_d = np.max(log_pow + 0.5 * np.log(np.abs(spectra[:, :1].real)), axis=0)
    if len(spectra) > 2:
        s = np.arange(-2 * N, 2 * N + 1)
        log_s = log_rho[:, None] * s[None, :]
        top = log_s.max(axis=0)
        H = np.exp(log_s - top).T @ spectra[:, s % m]
        sums, lags = ns[:, None] + ns[None, :] + 2 * N, ns[:, None] - ns[None, :] + 2 * N
        Gs = H[sums, lags] * np.exp(top[sums] - log_d[:, None] - log_d[None, :])
    else:
        lags = (ns[:, None] - ns[None, :]) % m
        Gs = np.zeros((ns.size, ns.size), dtype=complex)
        for scaled, spectrum in zip(np.exp(log_pow - log_d), spectra):
            Gs += np.outer(scaled, scaled) * spectrum[lags]
    Gs = 0.5 * (Gs + Gs.conj().T)
    delta = np.sqrt(Gs.diagonal().real)
    Gs = Gs / np.outer(delta, delta)
    np.fill_diagonal(Gs, 1.0)
    d = np.exp(log_d) * delta
    if not (np.all(np.isfinite(Gs)) and np.all(np.isfinite(d)) and np.all(d > 0.0)):
        raise SingularGramError("Gram assembly left the floating-point range "
                                "(weights vanish on every ring or the scales overflow)")
    return Gs, d


def weighted_gram(domain: AnnulusDomain, tag: SpaceTag, N: int, m: int, measure=None):
    """``ring_gram`` of a tag, weight included, on ``quadrature_for``'s nodes; ``m``
    counts angular nodes per circle (boundary tags) or per radial ring (area tag)."""
    return ring_gram(*quadrature_for(domain, tag, m, measure), m, N)


def scaled_gram(domain: AnnulusDomain, tag: SpaceTag, N: int, m: int = 512, measure=None):
    """The window's equilibrated Gram ``(Gs, d)``, ``G = d Gs d``, for every solver:
    orthogonal tags give ``Gs = None`` (the identity) and ``d`` from ``log_monomial_norms``
    (inf past the double range), others ``weighted_gram`` on ``max(m, 4N+4)`` nodes."""
    if N < 0:
        raise ArgumentError(f"window N must be non-negative, got {N}")
    if tag.orthogonal_monomials:
        with np.errstate(over="ignore"):
            return None, np.exp(0.5 * log_monomial_norms(domain, tag, N))
    return weighted_gram(domain, tag, N, max(m, 4 * N + 4), measure)


def scaled_rows(points, N: int, d: np.ndarray) -> np.ndarray:
    """Evaluation rows ``z^n / d_n``, n = -N..N, per point in ``scaled_gram``'s basis; a
    row past the double range raises ``SingularConstraintsError``."""
    points = np.asarray(points, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # rows are checked below
        rows = points[:, None]**np.arange(-N, N + 1, dtype=float) / d
    finite = np.all(np.isfinite(rows), axis=1)
    if not finite.all():
        raise SingularConstraintsError(f"z^n / ||z^n|| at {points[~finite][0]} leaves the double "
                                       f"range on the window -{N}..{N}")
    return rows


def gram_matrix(domain: AnnulusDomain, tag: SpaceTag, N: int, m: int) -> np.ndarray:
    """Hermitian Gram ``G[j, k] = <z^j, z^k>`` on the window -N..N, weight included.

    Unscaled, so it overflows where ``r^(-2N)`` does; solvers use
    ``scaled_gram``.
    """
    Gs, d = weighted_gram(domain, tag, N, m)
    return Gs * np.outer(d, d)


def inner_product(f: LaurentPolynomial, g: LaurentPolynomial,
                  domain: AnnulusDomain, tag: SpaceTag, m: int = 512) -> complex:
    """Sesquilinear ``<f, g>`` in the tagged space, by quadrature."""
    pts, w = quadrature_for(domain, tag, m)
    return complex(np.sum(w * ring_values(f, pts, m) * np.conj(ring_values(g, pts, m))))


def norm(f, domain: AnnulusDomain, tag: SpaceTag, m: int = 512, measure=None) -> float:
    """Space norm of an arbitrary evaluator by quadrature (``measure`` as in
    ``quadrature_for``)."""
    pts, w = quadrature_for(domain, tag, m, measure)
    return float(np.sqrt(np.sum(w * np.abs(ring_values(f, pts, m))**2).real))

