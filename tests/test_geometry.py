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

