"""Leaf charts: frame construction, closed-form coordinates, invariants."""

import math

import numpy as np
import pytest

from leafgauge import (
    AssumptionError,
    ChartConfig,
    PointC2,
    ProjectionError,
    VectorFieldC2,
    WirtingerPoly,
    build_chart,
    check_chart,
    in_chart_ball,
    leaf_coords,
)
from leafgauge import charts
from conftest import chart_cfg, make_field_v3


def mono(a, b, c, d, re=1, im=0):
    return WirtingerPoly.monomial(a, b, c, d, re, im)


def test_frame_pz4_matches_construction_order(chart_pz4):
    # X1(x) = (0,0,4,0), X2(x) = (0,0,0,4): leaf tangent is the w-plane,
    # normals are the first two standard basis vectors in order
    F = chart_pz4.frame
    assert np.allclose(F[0], [0, 0, 1, 0], atol=1e-14)
    assert np.allclose(F[1], [0, 0, 0, 1], atol=1e-14)
    assert np.allclose(F[2], [1, 0, 0, 0], atol=1e-14)
    assert np.allclose(F[3], [0, 1, 0, 0], atol=1e-14)


def test_frame_pzw(chart_pzw):
    s = 1 / math.sqrt(2)
    F = chart_pzw.frame
    assert np.allclose(F[0], [-s, 0, s, 0], atol=1e-14)
    assert np.allclose(F[1], [0, -s, 0, s], atol=1e-14)
    assert np.allclose(F[2], [s, 0, s, 0], atol=1e-14)
    assert np.allclose(F[3], [0, s, 0, s], atol=1e-14)


def test_frames_orthonormal(chart_pz4, chart_pzw, chart_v3, chart_nonholo):
    for chart in (chart_pz4, chart_pzw, chart_v3, chart_nonholo):
        frame = np.asarray(chart.frame)
        gram = frame @ frame.T
        assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_radial_field_rejected():
    radial = VectorFieldC2(mono(1, 0, 0, 0), mono(0, 0, 1, 0), 1)
    with pytest.raises(AssumptionError):
        build_chart(radial, PointC2(1, 0), chart_cfg(0.1))


def test_coords_at_base_are_zero(chart_pz4, chart_pzw):
    assert leaf_coords(chart_pz4, chart_pz4.base) == (0.0, 0.0)
    assert leaf_coords(chart_pzw, chart_pzw.base) == (0.0, 0.0)


def test_coords_pz4_closed_form(chart_pz4):
    # leaves are {z = const}; coordinates are (Re z - 1, Im z)
    u = leaf_coords(chart_pz4, PointC2(1.2, 0.3 - 0.1j))
    assert u[0] == pytest.approx(0.2, abs=1e-9)
    assert u[1] == pytest.approx(0.0, abs=1e-9)
    u = leaf_coords(chart_pz4, PointC2(1.1 + 0.25j, -0.2))
    assert u[0] == pytest.approx(0.1, abs=1e-9)
    assert u[1] == pytest.approx(0.25, abs=1e-9)


def test_coords_pzw_same_leaf_as_base(chart_pzw):
    u = leaf_coords(chart_pzw, PointC2(1.1, 1 / 1.1))
    assert math.hypot(*u) <= 1e-8


def test_coords_pzw_closed_form(chart_pzw):
    # on the transversal z = w the chart reads sqrt(2) * (sqrt(zw) - 1)
    u = leaf_coords(chart_pzw, PointC2(1.21, 1.0))
    assert u[0] == pytest.approx(math.sqrt(2) * 0.1, abs=1e-9)
    assert u[1] == pytest.approx(0.0, abs=1e-9)


def test_coords_agree_across_leaf_parametrizations(chart_v3, chart_nonholo):
    # the two fields span the same foliation, charts share base and frame,
    # so the coordinates must agree point by point
    for q in (PointC2(1.1, 0.95), PointC2(0.9 + 0.1j, 1.05), PointC2(1.2, 1.0)):
        u_a = leaf_coords(chart_v3, q)
        u_b = leaf_coords(chart_nonholo, q)
        assert abs(u_a[0] - u_b[0]) <= 1e-9
        assert abs(u_a[1] - u_b[1]) <= 1e-9


def test_in_chart_ball(chart_pz4):
    assert in_chart_ball(chart_pz4, chart_pz4.base)
    assert in_chart_ball(chart_pz4, PointC2(1.1, 0.1))
    assert not in_chart_ball(chart_pz4, PointC2(2, 0))


def test_chart_invariants_all_fixtures(chart_pz4, chart_pzw, chart_v3, chart_nonholo):
    for chart in (chart_pz4, chart_pzw, chart_v3, chart_nonholo):
        entries = check_chart(chart, n_samples=25, seed=0x5EED)
        assert all(e.passed for e in entries), [e for e in entries if not e.passed]


def test_projection_error_on_iteration_budget(chart_pzw, monkeypatch):
    monkeypatch.setattr(charts, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ProjectionError):
        leaf_coords(chart_pzw, PointC2(1.25, 0.8))


def test_chart_config_validation():
    with pytest.raises(ValueError):
        ChartConfig(radius_scale=1.5)
    with pytest.raises(ValueError):
        ChartConfig(newton_tol=0)


def test_build_respects_radius_floor(monkeypatch):
    # an impossible newton budget exhausts the radius halving and fails
    monkeypatch.setattr(charts, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ProjectionError, match="radius"):
        build_chart(make_field_v3(), PointC2(1, 1), chart_cfg(0.3))
