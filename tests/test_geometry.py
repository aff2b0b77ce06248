import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringspace as rs
from ringspace.errors import ArgumentError, GeometryError
from ringspace.spaces import boundary_quadrature


def test_make_annulus_valid():
    d = rs.make_annulus(0.5, 0.7)
    assert d.inner_radius == 0.5
    assert d.base_point == 0.7 + 0j


def test_make_annulus_base_on_inner_circle_rejected():
    with pytest.raises(GeometryError):
        rs.make_annulus(0.5, 0.5)


def test_make_annulus_bad_radius_rejected():
    with pytest.raises(GeometryError):
        rs.make_annulus(1.2, 0.7)
    with pytest.raises(GeometryError):
        rs.make_annulus(0.0, 0.5)


def test_boundary_nodes_outer_m4():
    d = rs.make_annulus(0.5, 0.7)
    nodes = rs.boundary_nodes(d, 4)
    assert nodes.shape == (8,)
    angles = np.array([0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert np.max(np.abs(nodes[:4] - np.exp(1j * angles))) <= 1e-15
    _, w = boundary_quadrature(d, 4)
    assert w[:4] == pytest.approx([np.pi / 2] * 4)


def test_boundary_nodes_inner_m4():
    d = rs.make_annulus(0.5, 0.7)
    nodes = rs.boundary_nodes(d, 4)
    assert np.abs(nodes[4:]) == pytest.approx([0.5] * 4)
    assert np.max(np.abs(nodes[4:] - 0.5 * nodes[:4])) <= 1e-15
    _, w = boundary_quadrature(d, 4)
    assert w[4:] == pytest.approx([np.pi / 4] * 4)


def test_boundary_nodes_too_few():
    d = rs.make_annulus(0.5, 0.7)
    with pytest.raises(ArgumentError):
        rs.boundary_nodes(d, 3)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(min_value=4, max_value=700),
       r=st.floats(min_value=0.05, max_value=0.9))
def test_weights_sum_to_circumference(m, r):
    d = rs.make_annulus(r, (1 + r) / 2)
    _, w = boundary_quadrature(d, m)
    for total, rho in ((np.sum(w[:m]), 1.0), (np.sum(w[m:]), r)):
        assert total == pytest.approx(2 * np.pi * rho, rel=1e-12)


def test_quadrature_of_one_over_boundary():
    d = rs.make_annulus(0.5, 0.7)
    _, w = boundary_quadrature(d, 37)
    assert np.sum(w) == pytest.approx(2 * np.pi * 1.5, rel=1e-12)


def test_exhaustion_radii_follow_schedule():
    d = rs.make_annulus(0.5, 0.7)
    ex = rs.exhaustion_of(d, 2)
    # delta_k = (1 - r) / (4 (k + 1))
    assert ex.stages[0].inner_radius == pytest.approx(0.5625)
    assert ex.stages[0].outer_radius == pytest.approx(0.9375)
    assert ex.stages[1].inner_radius == pytest.approx(0.5 + 0.5 / 12)
    assert ex.stages[1].outer_radius == pytest.approx(1 - 0.5 / 12)


def test_exhaustion_nesting_and_monotonicity():
    d = rs.make_annulus(0.3, 0.6)
    ex = rs.exhaustion_of(d, 5)
    inner = [s.inner_radius for s in ex.stages]
    outer = [s.outer_radius for s in ex.stages]
    assert all(a > b for a, b in zip(inner, inner[1:]))
    assert all(a < b for a, b in zip(outer, outer[1:]))
    for a, b in zip(ex.stages, ex.stages[1:]):
        assert b.inner_radius < a.inner_radius and a.outer_radius < b.outer_radius
    assert all(s.inner_radius > 0.3 and s.outer_radius < 1 for s in ex.stages)


def test_exhaustion_excluding_base_rejected():
    d = rs.make_annulus(0.5, 0.55)
    with pytest.raises(GeometryError):
        rs.exhaustion_of(d, 1)  # first stage starts at 0.5625 > 0.55


def test_exhaustion_needs_a_stage():
    d = rs.make_annulus(0.5, 0.7)
    with pytest.raises(ArgumentError):
        rs.exhaustion_of(d, 0)
