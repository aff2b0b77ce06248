"""Independent oracles used by the test suite.

Everything here is deliberately written against different mathematics (or at
least a different algorithm) than the library path it checks:

* the Green's function comes from the reflection/product expansion, not from
  Fourier matching;
* weighted kernels come from the subspace-deflation division formula, not
  from Gram inversion; conversely, the candidate divisor's section comes
  from the ``|B_z1|^2``-weighted Gram times ``B_z1``
  (``weighted_candidate_section``), not from projecting the diagonal
  Bergman kernel off ``z1``;
* monomial norms come from adaptive quadrature, not closed forms;
* the operator-norm oracle maximizes Rayleigh quotients by seeded random
  search with pencil power-iteration polish, not by a packed eigensolver;
* division ratios come from seeded random Laurent ``h``, one at a time
  (``division_ratios_per_trial``), or from the extreme eigenvalues of the
  window-8 division pencil (``division_pencil``), not from the divisor's
  boundary moduli in closed form;
* Gram matrices, the division pencil and the decomposition's harmonic
  pairings are dense Vandermonde products over every quadrature node, not
  ring-wise FFT sums or lagged sums of Laurent coefficients; the whole
  decomposition is also kept as it was first written, on three area rules
  (the norm's, the pairings' and the one ``nu_1 = log|z| - c0`` is computed
  on, ``c0`` that rule's mean of ``log|z|``), with ``G`` scaled to unit norm beforehand
  (``three_rule_decomposition``);
* the harmonic reproducing kernel is assembled mode by mode from radial
  moments by adaptive quadrature and paired node by node
  (``HarmonicKernel``, ``dense_decomposition_pairings``), not taken from the
  identity ``<H(., z0), u> = u(z0)`` in closed form;
* harmonic representations are summed from a dense (modes x points) table of
  ``rho^n``, ``(rref/rho)^n`` and ``e^{i n theta}`` (``dense_harmonic_values``),
  not by Horner in ``z`` and ``rref / conj z``;
* boundary fluxes (harmonic-measure weights, the Schottky function, radial
  derivatives of harmonic representations) come from a node list built one
  node at a time and a dense mode-by-node derivative table, not from one FFT
  per circle;
* winding numbers come from Horner point values on contiguous blocks of the
  circle and ``np.unwrap``, not from strided sub-rings by FFT;
* the clamped plate's Green function, which the library takes in closed form
  (Boggio's on the disk, Michell's angular modes on the ring), is also solved
  by squared polar finite differences (``fd_biharmonic``), which converge to
  it at second order; that solve is checked in turn against the clamped
  operator as one sparse matrix, assembled from a vectorized stencil table
  (``clamped_operator``) or entry by entry from a per-node five-point stencil
  (``loop_clamped_operator``), not applied matrix-free and solved mode by mode
  after an FFT in angle; applied matrix-free, it takes angular links by
  ``np.roll`` on fresh row stacks (``roll_clamped_apply``), not in place on one
  wrap-padded buffer (``clamped_apply``); the point load is solved on the whole
  grid, its FFT in angle split into real and imaginary columns for one
  ``scipy.linalg.solve_banded`` (``gbsv``) call per right-hand side
  (``gbsv_clamped_solve``), and refined against the grid operator in
  ``longdouble`` (``two_gbsv_biharmonic``), not as one real column per mode
  with the pole at angle 0, refined mode by mode through the two Laplacian
  factors (``mode_apply``), by one ``gbtrf`` and a ``gbtrs`` per solve
  (``banded_solver``);
* grid-local minima of the zero search come from eight shifted copies of the
  grid, not from one sliding 3x3 window;
* a singular atom's kernel comes from one Dirichlet solve of the Dirichlet
  kernel cut off at ``N`` (``point_mass_kernel``), completed into the series
  (``truncated_singular_inner``), not from the closed-form Herglotz factor
  plus a smooth correction;
* Laurent values come from numpy Horner on every point at once, a fresh array
  a step, 0-d arrays included (``horner_values``), not from one FFT per ring, a
  scalar loop on Python ``complex`` or updates in place;
* Grams on more than two rings are summed ring by ring as scaled Toeplitz
  matrices (``loop_ring_gram``), not in one GEMM over the ``a + b`` powers;
* the product of two Laurent series, which the library does not form, is the
  convolution of their coefficients (``series_product``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from ringspace.errors import SolverError
from ringspace.geometry import INNER, OUTER
from ringspace.harmonic import analytic_completion, solve_dirichlet
from ringspace.inner import (AtomicSingularMeasure, InnerFunctionSpec, _close_period,
                             _normalize_phase)
from ringspace.laurent import LaurentPolynomial


def prime_product(zeta, r: float, terms: int = 80):
    """(1 - zeta) * prod_k (1 - r^2k zeta)(1 - r^2k / zeta)."""
    zeta = np.asarray(zeta, dtype=complex)
    out = 1.0 - zeta
    for k in range(1, terms + 1):
        q = r ** (2 * k)
        out = out * (1.0 - q * zeta) * (1.0 - q / zeta)
    return out


def green_images(z, a, r: float, terms: int = 80):
    """Annulus Green's function via the reflection product expansion."""
    z = np.asarray(z, dtype=complex)
    a = complex(a)
    return (-np.log(np.abs(prime_product(z / a, r, terms)))
            + np.log(np.abs(prime_product(z * np.conj(a), r, terms)))
            + np.log(abs(a)) * np.log(np.abs(z)) / np.log(r)
            - np.log(abs(a)))


def dense_harmonic_values(h, z):
    """A ``HarmonicRepresentation`` at the points ``z``, every mode against every
    point: ``rho^n``, ``(rref/rho)^n`` and ``e^{i n theta}`` in one (modes x points)
    table.  Also returns ``|c0| + |clog log rho| + sum_n |A_n| rho^n + |Bhat_n| (rref/rho)^n``,
    the scale rounding is measured against."""
    z = np.asarray(z, dtype=complex)
    rho = np.abs(z)
    out = h.c0 + h.clog * np.log(rho)
    scale = abs(h.c0) + np.abs(h.clog * np.log(rho))
    if h.ns.size:
        ns = h.ns[:, None]
        rp = rho.ravel()[None, :]
        outer, inner = h.A[:, None] * rp**ns, h.Bhat[:, None] * (h.rref / rp)**ns
        term = (outer + inner) * np.exp(1j * ns * np.angle(z).ravel()[None, :])
        out = out + np.real(term.sum(axis=0)).reshape(rho.shape)
        scale = scale + (np.abs(outer) + np.abs(inner)).sum(axis=0).reshape(rho.shape)
    return out, scale


def dense_radial_derivative(h, z):
    """d/d(rho) of a ``HarmonicRepresentation`` at the points ``z``, every mode
    against every point."""
    z = np.asarray(z, dtype=complex)
    rho = np.abs(z)
    out = h.clog / rho
    if h.ns.size:
        ns = h.ns[:, None]
        rp = rho.ravel()[None, :]
        outer = h.A[:, None] * rp**ns
        inner = h.Bhat[:, None] * (h.rref / rp)**ns
        term = (ns / rp) * (outer - inner) * np.exp(1j * ns * np.angle(z).ravel()[None, :])
        out = out + np.real(term.sum(axis=0)).reshape(rho.shape)
    return out


def boundary_node_list(domain, m: int):
    """``(point, outward sign, arclength weight)`` per boundary node, built one
    node at a time: ``m`` on the unit circle, then ``m`` on the inner circle."""
    nodes = []
    for rho, sign in ((1.0, 1.0), (domain.inner_radius, -1.0)):
        for k in range(m):
            t = 2.0 * math.pi * k / m
            nodes.append((rho * complex(math.cos(t), math.sin(t)), sign, 2.0 * math.pi * rho / m))
    return nodes


def node_normal_derivative(h, nodes):
    """Outward d/dn of a ``HarmonicRepresentation`` or ``GreenFunction`` at a
    ``boundary_node_list``: ``+d/d(rho)`` outside, ``-d/d(rho)`` inside."""
    pts = np.array([p for p, _, _ in nodes])
    sign = np.array([s for _, s, _ in nodes])
    rep = getattr(h, "corrector", h)
    vals = dense_radial_derivative(rep, pts)
    if rep is not h:  # d/d(rho) of the Green function's -log|z - a| along the ray
        diff = pts - h.pole
        vals = -np.real((pts / np.abs(pts)) * np.conj(diff)) / np.abs(diff)**2 + vals
    return sign * vals


def node_measure_quadrature(domain, m: int, N_green: int = 128):
    """Points and harmonic-measure weights ``-(1/2 pi) dg/dn ds`` node by node."""
    import ringspace as rs
    nodes = boundary_node_list(domain, m)
    g = rs.green(domain, domain.base_point, N_green)
    pts = np.array([p for p, _, _ in nodes])
    ds = np.array([w for _, _, w in nodes])
    return pts, -node_normal_derivative(g, nodes) / (2.0 * np.pi) * ds


def node_schottky(domain, m: int, N: int = 128):
    """``(d omega_1/dn) / (dg/dn)`` node by node, Green pole at the base point."""
    import ringspace as rs
    nodes = boundary_node_list(domain, m)
    g = rs.green(domain, domain.base_point, N)
    return (node_normal_derivative(rs.harmonic_measure(domain, 1), nodes)
            / node_normal_derivative(g, nodes))


def bergman_monomial_norm(r: float, n: int) -> float:
    """||z^n||^2 in normalized area by adaptive radial quadrature."""
    val, _ = quad(lambda rho: rho ** (2 * n + 1), r, 1.0, epsabs=0.0, epsrel=1e-13)
    return 2.0 * val


def smirnov_monomial_norm(r: float, n: int, m: int = 4096) -> float:
    """||z^n||^2 in arclength by explicit trapezoid sums on both circles."""
    total = 0.0
    for rho in (1.0, r):
        theta = 2.0 * np.pi * np.arange(m) / m
        vals = np.abs((rho * np.exp(1j * theta)) ** n) ** 2
        total += float(np.sum(vals) * 2.0 * np.pi * rho / m)
    return total


def hardy_monomial_norm(r: float, z0: complex, n: int) -> float:
    """||z^n||^2 against harmonic measure, from the per-circle masses.

    |z^n|^2 is constant on each circle, so the norm is
    omega_1(z0) + r^(2n) * omega_2(z0) in closed form.
    """
    w1 = np.log(abs(z0) / r) / np.log(1.0 / r)
    return w1 + r ** (2 * n) * (1.0 - w1)


def deflated_weighted_kernel(K, B, z, w, z1):
    """Weighted-kernel oracle through the zero-subspace isometry.

    Multiplication by the single-zero inner factor ``B`` is an isometry from
    the |B|^2-weighted space onto the subspace vanishing at ``z1``, whose
    kernel is the rank-one deflation of the unweighted kernel.
    """
    z = np.asarray(z, dtype=complex)
    km = (np.asarray(K(z, w))
          - np.asarray(K(z, z1)) * complex(K(z1, w)) / complex(K(z1, z1)))
    return km / (np.asarray(B(z)) * np.conj(complex(B(w))))


def weighted_candidate_section(domain, z1, N: int = 96, m: int = 512):
    """``B_z1(z) K_B(z, z0)`` and its value at the base point ``z0``.

    ``K_B`` is the ``|B_z1|^2``-weighted Bergman kernel, solved from the
    weighted quadrature Gram.  ``f -> B_z1 f`` maps the weighted space
    isometrically onto ``{g : g(z1) = 0}``, so the quotient of the two equals
    ``K_I(z, z0) / K_I(z0, z0)`` for that subspace's kernel ``K_I``.
    """
    from ringspace.inner import blaschke_factor
    from ringspace.kernels import build_kernel
    from ringspace.spaces import bergman_tag

    B = blaschke_factor(domain, z1)
    section = build_kernel(domain, bergman_tag(weight_fn=B), N, m).section(domain.base_point)
    z0 = domain.base_point
    return (lambda z: np.asarray(B(z)) * np.asarray(section(z)),
            complex(B(z0)) * complex(section(z0)))


def equilibrated(G):
    """Symmetric diagonal scaling ``D^-1/2 G D^-1/2`` and the scale vector."""
    d = np.sqrt(np.real(np.diag(G)))
    return G / d[:, None] / d[None, :], d


def basis_gram(V, weights):
    """Hermitian ``G[j, k] = sum_s weights[s] V[s, j] conj(V[s, k])`` from the
    dense (nodes x basis) value table ``V``."""
    M = (V.conj().T * weights) @ V  # M[j, k] = <v_k, v_j>
    M = 0.5 * (M + M.conj().T)
    return M.conj()


def _powers(pts, N: int):
    ns = np.arange(-N, N + 1, dtype=float)
    return np.asarray(pts, dtype=complex)[:, None]**ns[None, :]


def dense_gram(domain, tag, N: int, m: int):
    """A tag's Gram ``<z^j, z^k>`` on the window -N..N, weight included."""
    from ringspace.spaces import SpaceTag, quadrature_for
    pts, w = quadrature_for(domain, SpaceTag(tag.kind), m)
    if tag.weighted:  # pointwise, not through the library's ring FFT
        w = w * np.abs(np.asarray(tag.weight_fn(pts), dtype=complex))**2
    return basis_gram(_powers(pts, N), w)


def division_grams(G, z1: complex, domain, N: int, m: int):
    """Gram pencil of the basis (z - z1) z^n and of the same basis divided by G."""
    from ringspace.spaces import area_quadrature
    pts, w = area_quadrature(domain, m)
    phi = (pts - z1)[:, None] * _powers(pts, N)
    psi = phi / np.asarray(G(pts), dtype=complex)[:, None]
    return basis_gram(phi, w), basis_gram(psi, w)


def harmonic_test_family(degree: int = 8):
    """Real harmonic tests 1, ``Re z^k`` and ``Im z^k`` (k = 1, -1, ..., degree,
    -degree) and ``log|z|``, each a closure taking its own powers of every point."""
    family = [lambda z: np.ones(np.shape(z))]
    for n in range(1, degree + 1):
        for k in (n, -n):
            for part in (np.real, np.imag):
                family.append(lambda z, k=k, part=part: part(np.asarray(z, dtype=complex)**k))
    family.append(lambda z: np.log(np.abs(np.asarray(z, dtype=complex))))
    return family


def _log_defect(domain, m: int):
    """``(nu_1, c0)`` on an area rule of its own: ``c0`` is the rule's ``w``-mean
    of ``log|z|`` and ``nu_1 = log|z| - c0``, as a function of ``z``."""
    from ringspace.spaces import area_quadrature
    pts, w = area_quadrature(domain, m)
    c0 = float(np.sum(w * np.log(np.abs(pts))) / np.sum(w))
    return (lambda z: np.log(np.abs(np.asarray(z, dtype=complex))) - c0), c0


class HarmonicKernel:
    """Reproducing kernel ``H(z, w)`` of real harmonic functions in ``L^2(dA)`` on the
    ring (``dA = dx dy / pi``), to angular degree ``N``, assembled mode by mode;
    called, it is the section ``z -> H(z, base)``: ``<H(., base), u> = u(base)`` for
    harmonic ``u`` of angular degree up to ``N``, ``log|z|`` included.

    Angular modes decouple, but within mode ``n`` the profiles ``rho^n`` and
    ``rho^-n`` are not orthogonal (their cross moment is half the ring area), so
    each mode inverts a 2x2 Gram; the zero mode couples ``1`` and ``log rho`` the
    same way.  Every radial moment comes from adaptive quadrature."""

    def __init__(self, domain, base: complex, N: int):
        r = domain.inner_radius
        self.base, self.ns = complex(base), np.arange(1, N + 1)

        def moment(f):  # 2 * integral_r^1 rho f(rho) d rho
            return 2.0 * quad(lambda rho: rho * f(rho), r, 1.0, epsabs=0.0, epsrel=1e-13)[0]
        area = 1.0 - r * r
        c01 = moment(math.log)
        self.zero_mode = np.linalg.inv([[area, c01], [c01, moment(lambda x: math.log(x)**2)]])
        # cos(n theta) rho^{+-n} has half the norm of z^{+-n}
        self.a = np.array([bergman_monomial_norm(r, n) for n in self.ns]) / 2.0
        self.c = np.array([bergman_monomial_norm(r, -n) for n in self.ns]) / 2.0
        self.beta = (area / 2.0) / np.sqrt(self.a * self.c)

    def profiles(self, log_rho):
        """The unit-norm radial profiles ``rho^n / sqrt(a_n)`` and ``rho^-n / sqrt(c_n)``."""
        return (np.exp(self.ns * log_rho) / np.sqrt(self.a),
                np.exp(-self.ns * log_rho) / np.sqrt(self.c))

    def pair(self, z, w):
        """H(z, w), vectorized over ``z`` for scalar ``w``."""
        z = np.asarray(z, dtype=complex)
        w = complex(w)
        lz = np.log(np.abs(z.ravel()))[:, None]
        (xz, yz), (xw, yw) = self.profiles(lz), self.profiles(math.log(abs(w)))
        radial = (xz * xw - self.beta * (xz * yw + yz * xw) + yz * yw) / (1.0 - self.beta**2)
        c = self.zero_mode @ [1.0, math.log(abs(w))]
        cosd = np.cos(self.ns * (np.angle(z.ravel())[:, None] - np.angle(w)))
        out = (c[0] + c[1] * lz[:, 0] + (cosd * radial).sum(axis=1)).reshape(z.shape)
        return out if z.shape else float(out)

    def __call__(self, z):
        return self.pair(z, self.base)


def dense_decomposition_pairings(G, domain, z0: complex, m: int):
    """The decomposition's pairings of ``|G|^2``, ``H(., z0)`` and ``nu_1`` node by
    node on the area rule of ``m`` angles: ``G`` and ``HarmonicKernel`` by their
    point calls, each test of ``harmonic_test_family`` by dense powers of every
    area node.  For a window ``-N..N`` the trapezoid in angle is exact for
    ``|G|^2 z^k`` (``|k| <= 8``) while ``2N + 8 < m``."""
    from ringspace.spaces import area_quadrature
    pts, w = area_quadrature(domain, m)
    values = [np.abs(np.asarray(G(pts), dtype=complex))**2,
              HarmonicKernel(domain, z0, 64)(pts), _log_defect(domain, m)[0](pts)]
    weights = np.stack([w * f for f in values], axis=1)
    return np.array([u(pts) @ weights for u in harmonic_test_family()]).T


def three_rule_decomposition(G, domain, z0: complex, m: int):
    """``(lambda_1, residual, c0)`` as the decomposition was first computed: ``G``
    scaled by its ``spaces.norm``, the ring-spectrum pairings on a second area
    rule, ``nu_1`` and ``c0`` from ``_log_defect`` on a third; ``H(., z0)`` pairs
    to each test's value at ``z0``."""
    from ringspace.spaces import area_quadrature, bergman_tag, norm, ring_values
    Gn = G * (1.0 / norm(G, domain, bergman_tag(), m=m))
    pts, w = area_quadrature(domain, m)
    rho = np.abs(pts[::m])
    ks = np.outer(np.arange(1, 9), [1, -1]).ravel()

    def pairings(f):
        W = np.fft.ifft(np.reshape(w * f, (-1, m)), axis=1, norm="forward")
        moments = np.sum(rho[:, None]**ks * W[:, ks % m], axis=0)
        return [W[:, 0].real.sum(), *moments.view(float), W[:, 0].real @ np.log(rho)]
    nu, c0 = _log_defect(domain, m)
    reproduced = [u(z0) for u in harmonic_test_family()]
    ps = np.array(pairings(np.abs(ring_values(Gn, pts, m))**2)) - reproduced
    qs = np.array(pairings(nu(pts)))
    lam1 = float(ps @ qs / (qs @ qs))
    return lam1, float(np.max(np.abs(ps - lam1 * qs))), c0


def rayleigh_maximize(A, B, trials: int = 10000, seed: int = 0):
    """sup of (c* B c)/(c* A c) by random search plus power-iteration polish.

    Solves with a Cholesky factor of ``A`` directly rather than calling a
    generalized eigensolver, so it is an independent maximization route.  The
    polish stops once a step changes the quotient by at most 1e-12 relative,
    and raises ``RuntimeError`` if 10^6 steps do not get there.
    """
    import scipy.linalg
    rng = np.random.default_rng(seed)
    n = A.shape[0]
    best_val, best_vec = -np.inf, None
    for _ in range(trials):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        val = float(np.real(np.vdot(c, B @ c)) / np.real(np.vdot(c, A @ c)))
        if val > best_val:
            best_val, best_vec = val, c
    step = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), B)  # A^-1 B
    v, val = best_vec, best_val
    for _ in range(10**6):
        v = step @ v
        v = v / np.linalg.norm(v)
        val, last = float(np.real(np.vdot(v, B @ v)) / np.real(np.vdot(v, A @ v))), val
        if abs(val - last) <= 1e-12 * abs(val):
            return val
    raise RuntimeError("Rayleigh polish did not settle to 1e-12 in 10^6 steps")


def division_ratios_per_trial(G, domain, trials: int, seed: int, window: int = 8,
                              m: int = 512) -> np.ndarray:
    """``||h|| / ||G0 h||`` in the Hardy space, one random Laurent ``h`` at a
    time, every function evaluated node by node (Horner), ``G0 = G / ||G||``."""
    from ringspace.laurent import LaurentPolynomial
    from ringspace.spaces import hardy_tag, quadrature_for
    pts, w = quadrature_for(domain, hardy_tag(), m)
    g_vals = np.asarray(G(pts), dtype=complex)
    g_vals = g_vals / np.sqrt(np.sum(w * np.abs(g_vals)**2))
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        c = rng.standard_normal(2 * window + 1) + 1j * rng.standard_normal(2 * window + 1)
        h_vals = LaurentPolynomial(-window, window, c)(pts)
        ratios.append(np.sqrt(np.sum(w * np.abs(h_vals)**2))
                      / np.sqrt(np.sum(w * np.abs(g_vals * h_vals)**2)))
    return np.array(ratios)


def division_pencil(G, domain, m: int = 512):
    """``(max, min)`` of ``||h|| ||G|| / ||G h||`` over Laurent ``h`` on ``z^-8..z^8``.

    ``||G||`` times the square roots of the extreme eigenvalues of ``A x = mu B x``:
    the Hardy Gram of the window on ``m`` nodes per circle and the same Gram
    weighted by ``|G|^2``, solved in the basis scaled to ``diag A = 1``.  Fewer
    nodes than monomials, or a pencil ``eigh`` rejects, raise ``SingularGramError``.
    An atom on a node reads its radial limit 0 there, which biases the extremes
    by O(1/m).
    """
    import scipy.linalg
    from ringspace.errors import SingularGramError
    from ringspace.spaces import hardy_tag, quadrature_for, ring_values
    window = 8
    if 2 * m <= 2 * window:  # A and B share a null space
        raise SingularGramError(f"division pencil is singular on {2 * m} nodes")
    pts, w = quadrature_for(domain, hardy_tag(), m)
    g_sq = np.abs(ring_values(G, pts, m))**2
    powers = pts[:, None] ** np.arange(-window, window + 1)[None, :]
    powers = powers / np.sqrt(w @ np.abs(powers)**2)  # diag A = 1
    A, B = ((powers.T * v) @ powers.conj() for v in (w, w * g_sq))
    try:
        mu = scipy.linalg.eigh(A, B, eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise SingularGramError(f"division pencil is singular ({exc})") from exc
    g_norm = math.sqrt(float(np.sum(w * g_sq)))  # G0 = G / ||G||
    return g_norm * math.sqrt(mu[-1]), g_norm * math.sqrt(mu[0])


def _polar_laplacian_stencil(i, j, rho, h, htheta, T, center_flip: bool):
    """Stencil entries ``((i', j'), coefficient)`` of the five-point polar
    Laplacian at (i, j); on the disk (``center_flip``) row -1 is (0, j + T/2)."""
    r_i = rho[i]
    c_rr = 1.0 / (h * h)
    c_r = 1.0 / (2.0 * h * r_i)
    c_tt = 1.0 / (r_i * r_i * htheta * htheta)
    entries = [((i, j), -2.0 * c_rr - 2.0 * c_tt),
               ((i + 1, j), c_rr + c_r),
               ((i - 1, j), c_rr - c_r),
               ((i, (j + 1) % T), c_tt),
               ((i, (j - 1) % T), c_tt)]
    if center_flip and i == 0:
        return [((0, (jj + T // 2) % T), coef) if ii == -1 else ((ii, jj), coef)
                for (ii, jj), coef in entries]
    return entries


def loop_clamped_operator(rho, h: float, T: int, disk: bool):
    """The clamped biharmonic operator ``(A2 @ A1).tocsc()`` assembled by
    loops over the grid, one stencil call per node and application."""
    import scipy.sparse
    R = len(rho)
    htheta = 2.0 * np.pi / T
    interior = list(range(0, R - 1)) if disk else list(range(1, R - 1))
    boundary_rows = [R - 1] if disk else [0, R - 1]
    int_index = {i: k for k, i in enumerate(interior)}
    n_int = len(interior) * T

    def uidx(i, j):
        return int_index[i] * T + j

    def allidx(i, j):
        return i * T + j

    # First application: u (interior unknowns) -> w = Laplacian(u) on all rows.
    rows1, cols1, vals1 = [], [], []
    for i in interior:
        for j in range(T):
            for (ii, jj), coef in _polar_laplacian_stencil(i, j, rho, h, htheta, T, disk):
                if ii in int_index:  # boundary rows carry u = 0
                    rows1.append(allidx(i, j))
                    cols1.append(uidx(ii, jj))
                    vals1.append(coef)
    for b in boundary_rows:
        adj = b + 1 if b == 0 else b - 1
        for j in range(T):
            rows1.append(allidx(b, j))
            cols1.append(uidx(adj, j))
            vals1.append(2.0 / (h * h))
    A1 = scipy.sparse.coo_matrix((vals1, (rows1, cols1)), shape=(R * T, n_int)).tocsr()

    # Second application: w (all rows) -> Laplacian(w) on interior rows.
    rows2, cols2, vals2 = [], [], []
    for i in interior:
        for j in range(T):
            for (ii, jj), coef in _polar_laplacian_stencil(i, j, rho, h, htheta, T, disk):
                rows2.append(uidx(i, j))
                cols2.append(allidx(ii, jj))
                vals2.append(coef)
    A2 = scipy.sparse.coo_matrix((vals2, (rows2, cols2)), shape=(n_int, R * T)).tocsr()
    return (A2 @ A1).tocsc()


def clamped_operator(rho, h: float, T: int, disk: bool):
    """CSC matrix of the clamped biharmonic operator on the interior unknowns,
    ``A2 @ A1`` of ``clamped_factors``."""
    A2, A1 = clamped_factors(rho, h, T, disk)
    return (A2 @ A1).tocsc()


def clamped_factors(rho, h: float, T: int, disk: bool):
    """The two CSR factors ``(A2, A1)`` of the clamped biharmonic operator.

    The five-point polar Laplacian is one ``(interior rows, T, 5)`` table of
    coefficients and neighbour indices (centre, i+1, i-1, j+1, j-1), applied
    twice: ``A1`` maps the interior unknowns to the field on every row, with
    ``u = 0`` on boundary rows and the clamped ghost rows ``2 u_adjacent / h^2``;
    ``A2`` takes that field back to the interior rows.  On the disk, row -1 is
    row 0 turned by half a circle: ``(-1, j) -> (0, j + T/2)``; with
    ``rho_0 = h/2`` that link's coefficient is exactly 0.
    """
    import scipy.sparse
    R = rho.size
    lo = 0 if disk else 1  # interior rows lo..R-2
    n_int = (R - 1 - lo) * T
    shape = (R - 1 - lo, T, 5)
    htheta = 2.0 * np.pi / T
    r_i = rho[lo:R - 1, None, None]
    c_rr = 1.0 / (h * h)
    c_r = 1.0 / (2.0 * h * r_i)
    c_tt = 1.0 / (r_i * r_i * htheta * htheta)
    coef = np.broadcast_to(np.concatenate(
        [-2.0 * c_rr - 2.0 * c_tt, c_rr + c_r, c_rr - c_r, c_tt, c_tt], axis=2), shape)
    i = np.arange(lo, R - 1)[:, None, None]
    j = np.arange(T)[None, :, None]
    row = np.broadcast_to(i * T + j, shape)
    ni = np.broadcast_to(i + np.array([0, 1, -1, 0, 0]), shape)
    nj = (j + np.array([0, 0, 0, 1, -1])) % T
    flip = ni == -1
    ni, nj = np.where(flip, 0, ni), np.where(flip, (nj + T // 2) % T, nj)

    keep = (ni >= lo) & (ni < R - 1)  # u = 0 on boundary rows
    edges = np.array([R - 1] if disk else [0, R - 1])
    adjacent = np.array([R - 2] if disk else [1, R - 2])
    ghost_rows = (edges[:, None] * T + np.arange(T)).ravel()
    ghost_cols = ((adjacent[:, None] - lo) * T + np.arange(T)).ravel()
    A1 = scipy.sparse.coo_matrix(
        (np.concatenate([coef[keep], np.full(ghost_rows.size, 2.0 / (h * h))]),
         (np.concatenate([row[keep], ghost_rows]),
          np.concatenate([(ni[keep] - lo) * T + nj[keep], ghost_cols]))),
        shape=(R * T, n_int)).tocsr()
    A2 = scipy.sparse.coo_matrix((coef.ravel(), ((row - lo * T).ravel(), (ni * T + nj).ravel())),
                                 shape=(n_int, R * T)).tocsr()
    return A2, A1


def gbsv_clamped_solve(b, rho, h: float, lo: int):
    """The clamped system for interior loads ``b`` by a real FFT in angle, each
    call assembling the pentadiagonal radial bands of every mode and solving them
    side by side with one ``scipy.linalg.solve_banded`` (``gbsv``)."""
    import scipy.linalg
    n, T = b.shape
    r_i, htheta = rho[lo:-1], 2.0 * np.pi / T
    c_rr, c_r, c_tt = 1.0 / (h * h), 1.0 / (2.0 * h * r_i), 1.0 / (r_i * r_i * htheta * htheta)
    a, e, g = c_rr - c_r, c_rr + c_r, 2.0 * c_rr
    d = -2.0 * c_rr - 4.0 * c_tt * np.sin(np.pi * np.arange(T // 2 + 1)[:, None] / T)**2
    bands = np.zeros((T // 2 + 1, 5, n))
    bands[:, 0, 2:] = e[:-2] * e[1:-1]
    bands[:, 1, 1:] = e[:-1] * (d[:, :-1] + d[:, 1:])
    bands[:, 2] = d * d + a * np.append(0.0 if lo == 0 else g, e[:-1]) + e * np.append(a[1:], g)
    bands[:, 3, :-1] = a[1:] * (d[:, 1:] + d[:, :-1])
    bands[:, 4, :-2] = a[2:] * a[1:-1]
    bh = np.fft.rfft(b, axis=1).T.ravel()
    x = scipy.linalg.solve_banded((2, 2), bands.transpose(1, 0, 2).reshape(5, -1),
                                  np.column_stack([bh.real, bh.imag]))
    return np.fft.irfft((x @ [1.0, 1j]).reshape(-1, n).T, n=T, axis=1)


def roll_clamped_apply(u, rho, h: float, lo: int):
    """The clamped operator on interior values ``u`` (rows ``lo..R-2``), matrix-free
    in the dtype of ``u``, each application on a fresh stack of rows: the polar
    Laplacian with angular links by ``np.roll``, first with ``u = 0`` on the boundary
    rows, then with the ghost values ``2 u_adjacent / h^2`` there.  On the disk
    (``lo = 0``) row -1 is row 0 turned by half a circle."""
    T = u.shape[1]
    r_i, htheta = rho[lo:-1], 2.0 * np.pi / T
    c_rr, c_r, c_tt = 1.0 / (h * h), 1.0 / (2.0 * h * r_i), 1.0 / (r_i * r_i * htheta * htheta)
    c_r, c_tt = c_r[:, None], c_tt[:, None]

    def lap(f):  # rows lo-1..R-1 in, rows lo..R-2 out
        mid = f[1:-1]
        return ((-2.0 * c_rr - 2.0 * c_tt) * mid + (c_rr + c_r) * f[2:] + (c_rr - c_r) * f[:-2]
                + c_tt * (np.roll(mid, 1, axis=1) + np.roll(mid, -1, axis=1)))

    def below(f, ring_row):
        return np.roll(f[:1], T // 2, axis=1) if lo == 0 else ring_row
    zero = np.zeros_like(u[:1])
    v = lap(np.concatenate([below(u, zero), u, zero]))
    return lap(np.concatenate([below(v, 2.0 * c_rr * u[:1]), v, 2.0 * c_rr * u[-1:]]))


def two_gbsv_biharmonic(b, rho, h: float, lo: int):
    """``fd_biharmonic``'s interior values for the load ``b`` by the grid-wide route:
    a ``gbsv_clamped_solve``, its residual against ``roll_clamped_apply`` in
    ``longdouble``, and a second ``gbsv_clamped_solve`` for the correction."""
    u = gbsv_clamped_solve(b, rho, h, lo)
    refine = b - roll_clamped_apply(u.astype(np.longdouble), rho, h, lo)
    return u + gbsv_clamped_solve(refine.astype(float), rho, h, lo)


def polar_laplacian(rho, h: float, lo: int, T: int):
    """``c_rr, c_r(i), c_tt(i)`` of the five-point polar Laplacian on rows ``lo..R-2``."""
    r_i, htheta = rho[lo:-1], 2.0 * np.pi / T
    return 1.0 / (h * h), 1.0 / (2.0 * h * r_i), 1.0 / (r_i * r_i * htheta * htheta)


def clamped_apply(u, rho, h: float, lo: int):
    """The clamped operator on interior values ``u`` (rows ``lo..R-2``), matrix-free
    in the dtype of ``u``: the polar Laplacian twice, first with ``u = 0`` on the
    boundary rows, then with the ghost values ``2 u_adjacent / h^2`` there, in place
    on one buffer of rows ``lo-1..R-1`` whose first and last columns repeat the last
    and first angles.  On the disk (``lo = 0``) row -1 is row 0 turned by half a circle.
    """
    T = u.shape[1]
    c_rr, c_r, c_tt = polar_laplacian(rho, h, lo, T)
    c_r, c_tt = c_r[:, None], c_tt[:, None]
    centre, up, down = -2.0 * c_rr - 2.0 * c_tt, c_rr + c_r, c_rr - c_r
    f = np.zeros((u.shape[0] + 2, T + 2), dtype=u.dtype)
    mid, out, tmp = f[1:-1, 1:-1], np.empty_like(u), np.empty_like(u)
    mid[...] = u
    for ghost in (False, True):
        if ghost:
            mid[...], f[0, 1:-1], f[-1, 1:-1] = out, 2.0 * c_rr * u[0], 2.0 * c_rr * u[-1]
        if lo == 0:
            f[0, 1:-1] = mid[0, (np.arange(T) + T // 2) % T]
        f[:, 0], f[:, -1] = f[:, -2], f[:, 1]
        np.multiply(centre, mid, out=out)
        out += np.multiply(up, f[2:, 1:-1], out=tmp)
        out += np.multiply(down, f[:-2, 1:-1], out=tmp)
        out += np.multiply(np.add(f[1:-1, :-2], f[1:-1, 2:], out=tmp), c_tt, out=tmp)
    return out


def banded_solver(rho, h: float, lo: int, T: int):
    """Factor the clamped system once and return its solve for one real column per
    angular mode, ``(T/2+1, n)`` in and out.  In angle the operator is circulant, so
    mode ``k`` is the pentadiagonal radial system ``B_k = A2_k A1_k``.  With ``a_i =
    c_rr - c_r(i)``, ``e_i = c_rr + c_r(i)`` and ``d_ik = -2 c_rr - 4 c_tt(i)
    sin^2(pi k/T)``, row ``i`` of ``B_k`` is ``a_i a_{i-1}, a_i (d_{i-1} + d_i), d_i^2 +
    a_i e_{i-1} + e_i a_{i+1}, e_i (d_i + d_{i+1}), e_i e_{i+1}``, with the ghost value
    ``2/h^2`` for ``a_{i+1}`` on the last row and ``e_{i-1}`` on the ring's first.  On
    the disk ``a_0 = 1/h^2 - 1/(2 h rho_0)`` is exactly 0, so the centre flip never
    enters.  Each mode's bands vanish outside its block, so the modes side by side
    form one banded system: one ``gbtrf``, then one ``gbtrs`` per solve.
    """
    n = rho.size - 1 - lo
    c_rr, c_r, c_tt = polar_laplacian(rho, h, lo, T)
    a, e, g = c_rr - c_r, c_rr + c_r, 2.0 * c_rr
    d = -2.0 * c_rr - 4.0 * c_tt * np.sin(np.pi * np.arange(T // 2 + 1)[:, None] / T)**2
    bands = np.zeros((7, T // 2 + 1, n))  # rows 0-1: room for gbtrf's fill-in
    bands[2, :, 2:] = e[:-2] * e[1:-1]
    bands[3, :, 1:] = e[:-1] * (d[:, :-1] + d[:, 1:])
    bands[4] = d * d + a * np.append(0.0 if lo == 0 else g, e[:-1]) + e * np.append(a[1:], g)
    bands[5, :, :-1] = a[1:] * (d[:, 1:] + d[:, :-1])
    bands[6, :, :-2] = a[2:] * a[1:-1]
    import scipy.linalg.lapack
    lu, piv, info = scipy.linalg.lapack.dgbtrf(bands.reshape(7, -1), 2, 2)
    if info != 0:
        raise SolverError(f"biharmonic radial system is singular (gbtrf info {info})")

    def solve(y):
        x, _ = scipy.linalg.lapack.dgbtrs(lu, 2, 2, y.reshape(-1, 1), piv)
        return x.reshape(y.shape)
    return solve


def mode_apply(y, rho, h: float, lo: int, T: int):
    """``B_k y_k`` for every angular mode ``k`` (the rows of ``y``) in ``longdouble``:
    ``A_k`` twice, ``A_k`` the tridiagonal radial Laplacian of mode ``k`` with angular
    eigenvalue ``centre + 2 c_tt cos(2 pi k/T)``, plus the ghost rows' corners ``a_0 g
    y_0`` and ``e_{n-1} g y_{n-1}`` (on the disk ``a_0 = 0``).  The coefficients are
    rounded in double as ``clamped_apply`` rounds them, and pi is taken in
    ``longdouble``, so this is that operator, mode by mode.  The formed bands of
    ``B_k`` would round their products again."""
    c_rr, c_r, c_tt = polar_laplacian(rho, h, lo, T)
    a, e, g, centre, c_tt = (np.asarray(c, dtype=np.longdouble) for c in (
        c_rr - c_r, c_rr + c_r, 2.0 * c_rr, -2.0 * c_rr - 2.0 * c_tt, c_tt))
    k = np.arange(y.shape[0], dtype=np.longdouble)[:, None]
    lam = centre + 2.0 * c_tt * np.cos(2.0 * np.arccos(np.longdouble(-1)) * k / T)

    def lap(v):
        out = lam * v
        out[:, 1:] += a[1:] * v[:, :-1]
        out[:, :-1] += e[:-1] * v[:, 1:]
        return out
    out = lap(lap(y))
    out[:, 0] += a[0] * g * y[:, 0]
    out[:, -1] += e[-1] * g * y[:, -1]
    return out


def fd_biharmonic(domain, pole: complex, n_rho: int, n_theta: int):
    """``(values, operator_residual)``: the clamped plate's Green function by squared
    polar finite differences on ``ringspace.probes.biharmonic_green``'s grid, which it
    converges to at second order.  ``domain=None`` is the unit disk (radii offset by half a
    cell).  Both clamped conditions enter through the two applications of the Laplacian
    (``clamped_apply``): ``u = 0`` on the boundary rows, and there the intermediate field
    takes the mirrored ghost value ``2 u_adjacent / h^2``.  The point load sits on the grid
    node nearest the pole, scaled by the inverse polar cell area, and is solved with the
    pole turned to angle 0, where every angular mode's load is the same real column: one
    real solve per mode (``banded_solver``, factored once), one refinement against the
    residual formed per mode in ``longdouble`` (``mode_apply``), one inverse FFT, and a
    roll back to the pole's angle.  ``operator_residual`` applies ``clamped_apply`` in
    double on the grid: ``max|B u - b| / max|b|``."""
    R, T = n_rho, n_theta
    htheta = 2.0 * np.pi / T
    if domain is None:
        h = 2.0 / (2 * R - 1)
        rho = (np.arange(R) + 0.5) * h
        lo = 0
    else:
        h = (1.0 - domain.inner_radius) / (R - 1)
        rho = domain.inner_radius + np.arange(R) * h
        lo = 1
    rp, tp = abs(complex(pole)), float(np.angle(pole)) % (2 * np.pi)
    i_star = lo + int(np.argmin(np.abs(rho[lo:R - 1] - rp)))
    j_star = int(round(tp / htheta)) % T
    value = 1.0 / (rho[i_star] * h * htheta)
    load = np.zeros((T // 2 + 1, R - 1 - lo))  # the load at angle 0, every mode alike
    load[:, i_star - lo] = value
    solve = banded_solver(rho, h, lo, T)
    y = solve(load)
    y = y + solve((load - mode_apply(y.astype(np.longdouble), rho, h, lo, T)).astype(float))
    u = np.roll(np.fft.irfft(y.T, n=T, axis=1), j_star, axis=1)
    b = np.zeros_like(u)
    b[i_star - lo, j_star] = value
    residual = float(np.max(np.abs(clamped_apply(u, rho, h, lo) - b)) / np.max(np.abs(b)))
    values = np.zeros((R, T))
    values[lo:R - 1] = u
    return values, residual


def horner_winding(f, rho: float, m: int, block: int = 8192) -> int:
    """Winding number of ``f`` along ``|z| = rho`` by point values and phase
    unwrapping, doubling ``m`` while a phase jump exceeds pi/2 (the same
    doubling, settle and cap rules as the library count)."""
    from ringspace.errors import ConvergenceError, ZeroOnContourError
    while True:
        worst, turn, end = 0.0, 0.0, None
        for start in range(0, m + 1, block):  # node m closes the loop at node 0
            k = np.arange(start, min(start + block, m + 1)) % m
            vals = np.asarray(f(rho * np.exp(1j * (2.0 * np.pi * k / m))), dtype=complex)
            if np.min(np.abs(vals)) < 1e-10:
                raise ZeroOnContourError(f"|f| dips below 1e-10 on |z| = {rho}")
            phase = np.unwrap(np.angle(vals) if end is None else np.append(end, np.angle(vals)))
            worst = max(worst, float(np.max(np.abs(np.diff(phase)))))
            turn, end = turn + phase[-1] - phase[0], phase[-1]
        total = turn / (2.0 * np.pi)
        if worst <= 0.5 * np.pi:
            rounded = int(round(total))
            if abs(total - rounded) > 0.25:
                raise ConvergenceError(f"winding number did not settle: {total}")
            return rounded
        if m >= 2**20:
            raise ConvergenceError(f"phase unwrapping failed to settle at m = {m}")
        m *= 2


def horner_count(f, ring, m: int = 512) -> int:
    """Zeros of ``f`` in ``{ring[0] < |z| < ring[1]}`` by ``horner_winding``."""
    return horner_winding(f, ring[1], m) - horner_winding(f, ring[0], m)


def loop_local_minima(vals):
    """Cells no larger than any of their 8 neighbours, one shifted copy per
    neighbour: rows are radii (``inf`` past the ends), columns wrap in angle."""
    cols = vals.shape[1]
    is_min = np.ones_like(vals, dtype=bool)
    for dr in (-1, 0, 1):
        for dt in (-1, 0, 1):
            if dr == 0 and dt == 0:
                continue
            shifted = np.roll(vals, dt, axis=1)
            if dr == -1:
                neighbor = np.vstack([shifted[1:], np.full((1, cols), np.inf)])
            elif dr == 1:
                neighbor = np.vstack([np.full((1, cols), np.inf), shifted[:-1]])
            else:
                neighbor = shifted
            is_min &= vals <= neighbor
    return is_min


def point_mass_kernel(domain, component: int, angle: float, N: int = 64):
    """Truncated Poisson-type kernel for a unit point mass on one circle.

    The harmonic function with Fourier data ``e^{-in angle}``, ``|n| <= N``
    (``2 pi delta(theta - angle)`` cut off at ``N``) on the chosen circle and 0
    on the other; ``(1/2pi) integral f(t) p(z; t) dt`` is then the harmonic
    extension of boundary data ``f`` supported on that circle, up to the cut.
    """
    ns = np.arange(-N, N + 1, dtype=float)
    data = np.exp(-1j * ns * angle)
    zero = np.zeros(2 * N + 1, dtype=complex)
    if component == OUTER:
        return solve_dirichlet(domain, data, zero, N)
    return solve_dirichlet(domain, zero, data, N)


def truncated_singular_inner(domain, mu, N: int):
    """``singular_inner``'s function with each atom's whole kernel the truncated
    ``point_mass_kernel``, completed into the series (no atom factors).  Its
    Gibbs error near the atoms decays only like ``1/N``; inside the ring it
    converges like ``max(rho, r/rho)^N``.
    """
    r = domain.inner_radius
    series, clog = LaurentPolynomial.constant(0.0), 0.0
    for point, mass in mu.atoms:
        component = OUTER if abs(abs(point) - 1.0) <= 1e-9 else INNER
        scale = mass / (2.0 * np.pi) * (1.0 if component == OUTER else 1.0 / r)
        kernel = point_mass_kernel(domain, component, float(np.angle(point)) % (2 * np.pi), N)
        series = series + analytic_completion(kernel) * scale
        clog += kernel.clog * scale
    lam, power, residual = _close_period(domain, clog)
    spec = InnerFunctionSpec(domain=domain, zeros=(), singular=AtomicSingularMeasure.empty(),
                             lam=lam, power=power,
                             series=series + LaurentPolynomial.constant(lam),
                             period_residual=residual)
    return _normalize_phase(spec, complex(spec(domain.base_point)))


def horner_values(f: LaurentPolynomial, z):
    """``f`` at ``z`` by numpy Horner, every shape (a 0-d array too) the same way:
    nonnegative powers highest first times ``z**max(lo, 0)``, then ``|lo|`` steps in ``1/z``."""
    z = np.asarray(z, dtype=complex)
    nonneg_lo = max(f.lo, 0)
    result = np.zeros(z.shape, dtype=complex)
    if f.hi >= 0:
        acc = np.zeros(z.shape, dtype=complex)
        for c in f.coeffs[nonneg_lo - f.lo:][::-1]:
            acc = acc * z + c
        if nonneg_lo > 0:
            acc = acc * z**nonneg_lo
        result = result + acc
    if f.lo < 0:
        w = 1.0 / z
        acc = np.zeros(z.shape, dtype=complex)
        for k in range(f.lo, 0):
            c = f.coeffs[k - f.lo] if k <= min(f.hi, -1) else 0.0
            acc = (acc + c) * w
        result = result + acc
    return result


def loop_ring_gram(pts, weights, m: int, N: int):
    """``spaces.ring_gram``'s ``(Gs, d)`` summed ring by ring: ``outer(s, s) W[lags]`` per
    ring with ``s = rho^n / d_n`` in log space, then symmetrized and equilibrated."""
    ns = np.arange(-N, N + 1)
    spectra = m * np.fft.ifft(np.reshape(weights, (-1, m)), axis=1)
    log_pow = np.log(np.abs(pts[::m]))[:, None] * ns[None, :]
    with np.errstate(divide="ignore"):
        log_d = np.max(log_pow + 0.5 * np.log(np.abs(spectra[:, :1].real)), axis=0)
    lags = (ns[:, None] - ns[None, :]) % m
    Gs = np.zeros((ns.size, ns.size), dtype=complex)
    for scaled, spectrum in zip(np.exp(log_pow - log_d), spectra):
        Gs += np.outer(scaled, scaled) * spectrum[lags]
    Gs = 0.5 * (Gs + Gs.conj().T)
    delta = np.sqrt(Gs.diagonal().real)
    Gs = Gs / np.outer(delta, delta)
    np.fill_diagonal(Gs, 1.0)
    return Gs, np.exp(log_d) * delta


def horner_ring_values(f, pts, m: int):
    """``spaces.ring_values`` from point values, the ring layout unused: numpy Horner
    (``horner_values``) for a Laurent series, ``f(pts)`` for everything else, whose
    series an array of points evaluates by numpy Horner too."""
    values = horner_values(f, pts) if isinstance(f, LaurentPolynomial) else f(pts)
    return np.asarray(values, dtype=complex)


def series_product(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """``f * g`` on the window ``f.lo + g.lo .. f.hi + g.hi``: the coefficients convolved."""
    return LaurentPolynomial(f.lo + g.lo, f.hi + g.hi, np.convolve(f.coeffs, g.coeffs))
