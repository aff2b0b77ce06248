"""Annulus geometry: domain values and quadrature nodes.

The library works on the normal-form annulus ``{z : r < |z| < 1}``; any other
annulus is a rescaling of this one and callers rescale externally.  Component
index 1 is the outer unit circle, component 2 the inner circle of radius
``r``.  All values are immutable and every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, GeometryError

OUTER = 1
INNER = 2


@dataclass(frozen=True)
class AnnulusDomain:
    """The ring ``{r < |z| < 1}`` with a marked interior base point.

    The base point fixes the harmonic measure used by the Hardy-space inner
    product and serves as the default pole/normalization point everywhere.
    """

    inner_radius: float
    base_point: complex

    def __post_init__(self):
        r = self.inner_radius
        if not (0.0 < r < 1.0):
            raise GeometryError(f"inner radius must lie in (0, 1), got {r}")
        if not (r < abs(self.base_point) < 1.0):
            raise GeometryError(
                f"base point {self.base_point} is not strictly inside the annulus "
                f"({r} < |z| < 1)"
            )

    def contains(self, z, margin: float = 0.0) -> bool:
        """True if ``z`` lies strictly inside, at least ``margin`` from each circle."""
        a = abs(z)
        return self.inner_radius + margin < a < 1.0 - margin

    @property
    def log_gap(self) -> float:
        """log(1/r): the spacing of the period lattice of the conjugate of
        the outer harmonic measure."""
        return math.log(1.0 / self.inner_radius)


def make_annulus(r: float, base: complex) -> AnnulusDomain:
    """Validate and build the annulus ``{r < |z| < 1}`` with base point ``base``."""
    return AnnulusDomain(inner_radius=float(r), base_point=complex(base))


def boundary_angles(m: int) -> np.ndarray:
    """``m`` equispaced angles in [0, 2*pi)."""
    return 2.0 * np.pi * np.arange(m) / m


def ring_nodes(radii, m: int, turn: float = 0.0) -> np.ndarray:
    """``radii[i] * e^{i (turn + 2 pi k/m)}`` as a ``(len(radii), m)`` array: the
    ring by ring node layout of every quadrature here."""
    if m < 4:
        raise ArgumentError(f"need at least 4 nodes per ring, got {m}")
    angles = turn + boundary_angles(m)
    return np.asarray(radii, dtype=float)[:, None] * np.exp(1j * angles)[None, :]


def polar_grid(domain: AnnulusDomain, n: int, inset: float = 0.2) -> np.ndarray:
    """n x n polar grid with a radial inset keeping truncation tails small."""
    r = domain.inner_radius
    gap = 1.0 - r
    return ring_nodes(np.linspace(r + inset * gap, 1.0 - inset * gap, n), n).ravel()


def boundary_nodes(domain: AnnulusDomain, m: int) -> np.ndarray:
    """The ``2m`` boundary quadrature nodes: ``m`` equispaced on the unit
    circle, then ``m`` on the inner circle (``ring_nodes([1, r], m)``)."""
    return ring_nodes([1.0, domain.inner_radius], m).ravel()


def offset_boundary_nodes(domain: AnnulusDomain, m: int) -> np.ndarray:
    """``boundary_nodes`` turned by half a node spacing, ``m`` a circle at the angles
    ``pi (2k + 1) / m``: off the quadrature nodes, where an atom may sit."""
    if m < 4:  # before doubling, so the message names this m
        raise ArgumentError(f"need at least 4 nodes per ring, got {m}")
    return boundary_nodes(domain, 2 * m)[1::2]
