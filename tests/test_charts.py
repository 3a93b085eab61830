"""Leaf charts: frame construction, closed-form coordinates, invariants."""

import math
import re

import numpy as np
import pytest

from leafgauge import (
    AssumptionError,
    ChartConfig,
    NumericError,
    PointC2,
    ProjectionError,
    VectorFieldC2,
    WirtingerPoly,
    build_chart,
    check_chart,
    in_chart_ball,
    leaf_coords,
    transversality_check,
)
from leafgauge import charts
from conftest import chart_cfg, make_field_nonholo, make_field_v3


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


@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
def test_tangency_is_decided_before_any_projection(scale, monkeypatch):
    # the near-tangent points of test_tangency_guard_is_unit_free (sine
    # 6e-5) fail at the frame, before a radius probe projects anything; at
    # sine 2e-3 the eight probes run
    calls = []
    monkeypatch.setattr(charts, "_project", lambda chart, q: calls.append(q))
    V = make_field_v3()
    with pytest.raises(AssumptionError, match="tangent to leaf: .* sine 6.000e-05 against 0.0001"):
        build_chart(V, PointC2(scale, 3e-5 * scale), chart_cfg(0.05))
    assert calls == []
    build_chart(V, PointC2(scale, 1e-3 * scale), chart_cfg(0.05))
    assert len(calls) == 8


@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
@pytest.mark.parametrize("sine", [6e-9, 1e-8, 1e-6, 6e-5, 1e-4, 1.01e-4, 2e-4, 2e-3])
def test_transversality_verdict_is_the_builds(sine, scale, monkeypatch):
    # field_v3 = (-z, w) meets the ray through (s, t s) at the sine
    # 2t / (1 + t^2); transversality_check and build_chart decide alike
    monkeypatch.setattr(charts, "_probe", lambda chart: None)
    V, x = make_field_v3(), PointC2(scale, sine / 2 * scale)
    try:
        build_chart(V, x, chart_cfg(0.05))
        tangent = False
    except AssumptionError as exc:
        assert "tangent to leaf" in str(exc)
        tangent = True
    assert transversality_check(V, x).passed is not tangent
    assert tangent is (sine <= 1e-4)


def test_non_finite_base_field_value_is_numeric():
    # (-z zbar, zbar w) overflows a float at this finite point
    with pytest.raises(NumericError, match="overflows a float"):
        build_chart(make_field_nonholo(), PointC2(1e300, 1e300), chart_cfg(0.05))


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


def _budget_failure(chart, q) -> tuple[str, float, float]:
    with pytest.raises(ProjectionError) as info:
        leaf_coords(chart, q)
    msg = str(info.value)
    m = re.fullmatch(r"leaf projection failed: iteration budget exhausted at q = "
                     r"(\(.*\)), last residual (\S+) against tolerance (\S+)", msg)
    assert m, msg
    assert m[1] == repr(q.to_real4())
    return m[1], float(m[2]), float(m[3])


def test_iteration_budget_message_names_the_point_and_residual(chart_pzw, monkeypatch):
    # the message carries the query point as a real 4-vector and the last
    # residual norm against the projection tolerance newton_tol * |x|
    q = PointC2(1.25, 0.8)
    monkeypatch.setattr(charts, "NEWTON_MAX_ITER", 0)
    _, start, tol = _budget_failure(chart_pzw, q)
    assert tol == chart_pzw.newton_tol * chart_pzw.base_norm
    # with no iteration the last residual is that of q itself
    d = [a - b for a, b in zip(q.to_real4(), chart_pzw.base4)]
    want = math.hypot(*(sum(x * e for x, e in zip(d, row)) for row in chart_pzw.frame[:2]))
    assert start == pytest.approx(want, rel=1e-14)
    monkeypatch.setattr(charts, "NEWTON_MAX_ITER", 1)
    _, after, _ = _budget_failure(chart_pzw, q)
    assert tol < after < start


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
