"""Gauge construction: scaling velocity, mismatch, scale roots, values."""

import dataclasses
import math

import numpy as np
import pytest

from leafgauge import (
    AssumptionError,
    DegenerateRootError,
    GaugeFunction,
    NumericError,
    PointC2,
    RootSearchError,
    VectorFieldC2,
    WirtingerPoly,
    build_chart,
    build_gauge,
    gauge_eval,
    leaf_coords,
    radial_mismatch,
    scaling_velocity,
    solve_scale,
)
from leafgauge.gauge import gauge_grid_rows
from leafgauge.verify import sample_chart_ball
from conftest import X_PZW, chart_cfg, make_field_curved, make_field_nonholo, make_field_v3


def test_scaling_velocity_pz4(chart_pz4):
    # closed-form chart gives u(t*x) = (t - 1, 0)
    d = scaling_velocity(chart_pz4)
    assert d[0] == pytest.approx(1.0, abs=1e-8)
    assert d[1] == pytest.approx(0.0, abs=1e-8)


def test_scaling_velocity_pzw_golden(chart_pzw):
    # golden value sqrt(2): on the transversal z = w the scaled base point
    # stays put and u(t*x) = (sqrt(2)(t-1), 0)
    d = scaling_velocity(chart_pzw)
    assert d[0] == pytest.approx(math.sqrt(2), abs=1e-7)
    assert d[1] == pytest.approx(0.0, abs=1e-7)
    assert 0.1 <= math.hypot(*d) <= 10


def test_scaling_velocity_matches_across_parametrizations(chart_v3, chart_nonholo):
    d_a = scaling_velocity(chart_v3)
    d_b = scaling_velocity(chart_nonholo)
    assert d_a[0] == pytest.approx(d_b[0], abs=1e-8)
    assert d_a[1] == pytest.approx(d_b[1], abs=1e-8)


def _richardson_velocity(chart, step=1e-4):
    # the finite-difference oracle: Richardson-extrapolated central
    # difference of t -> leaf_coords(t*x) at t = 1
    x = chart.base

    def central(h):
        up, dn = leaf_coords(chart, x.scale(1.0 + h)), leaf_coords(chart, x.scale(1.0 - h))
        return ((up[0] - dn[0]) / (2.0 * h), (up[1] - dn[1]) / (2.0 * h))

    fine, coarse = central(step / 2), central(step)
    return ((4.0 * fine[0] - coarse[0]) / 3.0, (4.0 * fine[1] - coarse[1]) / 3.0)


X_GENERIC = PointC2(1 + 0.2j, 0.6 - 0.3j)


def _curved_chart(x=X_PZW):
    return build_chart(make_field_curved(), x, chart_cfg(0.22))


@pytest.mark.parametrize("name", ["chart_pz4", "chart_pzw", "chart_v3", "chart_nonholo",
                                  "curved", "curved_generic"])
def test_scaling_velocity_matches_difference_oracle(name, request):
    # on the fixture charts and at (1, 1) the velocity lies along n1; at the
    # generic point both of its components are nonzero
    if name.startswith("curved"):
        chart = _curved_chart(X_GENERIC if name == "curved_generic" else X_PZW)
    else:
        chart = request.getfixturevalue(name)
    d = scaling_velocity(chart)
    assert math.dist(d, _richardson_velocity(chart)) <= 1e-9 * math.hypot(*d)


def test_scaling_velocity_curved_closed_form():
    # n1 = (2, 0, 1, 0) / sqrt(5) at x = (1, 1), so n1.x = 3 / sqrt(5)
    d = scaling_velocity(_curved_chart())
    assert d[0] == pytest.approx(3 / math.sqrt(5), rel=1e-15)
    assert d[1] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("k", [-3, 5, 30])
@pytest.mark.parametrize("make", [make_field_v3, make_field_nonholo, make_field_curved])
def test_ray_velocity_scales_exactly_with_the_base_point(make, k):
    # x -> 2^k x scales the field views by a power of two, so the frame keeps
    # its bits and the ray velocity, the transversal part of x, scales by 2^k
    V, x = make(), X_GENERIC
    G = build_gauge(build_chart(V, x, chart_cfg(0.1)), 2)
    H = build_gauge(build_chart(V, x.scale(2.0 ** k), chart_cfg(0.1)), 2)
    assert H.chart.frame == G.chart.frame
    assert H.ray_velocity == tuple(2.0 ** k * c for c in G.ray_velocity)


def test_build_gauge_on_curved_field_takes_no_field_evaluations(field_evals):
    # the ray velocity needs no leaf projection
    chart = _curved_chart()
    field_evals[0] = 0
    build_gauge(chart, 3, bracket_halfwidth=0.35)
    assert field_evals[0] == 0


@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
def test_tangency_guard_is_unit_free(scale):
    # the angle between x and its leaf's tangent line decides, not |x|:
    # sin 6e-5 fails the 1e-4 guard at every scale, sin 2e-3 passes it
    V = make_field_v3()
    with pytest.raises(AssumptionError, match="tangent to leaf"):
        scaling_velocity(build_chart(V, PointC2(scale, 3e-5 * scale), chart_cfg(0.05)))
    d = scaling_velocity(build_chart(V, PointC2(scale, 1e-3 * scale), chart_cfg(0.05)))
    assert math.hypot(*d) == pytest.approx(2e-3 * scale, rel=1e-3)


def test_radial_mismatch_examples(gauge_pz4_n2):
    G = gauge_pz4_n2
    assert radial_mismatch(G, G.chart.base, 1.0) == 0.0
    assert radial_mismatch(G, PointC2(1.2, 0), 1.0) == pytest.approx(0.2, abs=1e-8)
    assert radial_mismatch(G, PointC2(1, 0), 1.1) == pytest.approx(0.1, abs=1e-8)


def test_solve_scale_examples(gauge_pz4_n2):
    G = gauge_pz4_n2
    assert solve_scale(G, G.chart.base) == 1.0
    assert solve_scale(G, PointC2(1.25, 0.4)) == pytest.approx(0.8, abs=1e-10)
    assert solve_scale(G, PointC2(1 + 0.1j, 0)) == pytest.approx(1.0, abs=1e-10)


def test_gauge_values_pz4(gauge_pz4_n2, gauge_pz4_n4):
    assert gauge_eval(gauge_pz4_n2, gauge_pz4_n2.chart.base) == 1.0
    # closed form (Re z)^n
    assert gauge_eval(gauge_pz4_n2, PointC2(1.25, 0.4)) == pytest.approx(1.5625, rel=1e-9)
    assert gauge_eval(gauge_pz4_n4, PointC2(1.2, 0.05j)) == pytest.approx(1.2 ** 4, rel=1e-9)


def test_gauge_value_pzw(gauge_pzw_n4):
    # rays with z*w real positive land on the base leaf at t = (zw)^(-1/2),
    # so g = (zw)^(n/2)
    assert gauge_eval(gauge_pzw_n4, PointC2(1.2, 1.0)) == pytest.approx(1.44, abs=1e-6)


def test_gauge_positive_dataclass_validation(chart_pz4):
    with pytest.raises(ValueError):
        build_gauge(chart_pz4, 0)
    with pytest.raises(ValueError):
        build_gauge(chart_pz4, 2, bracket_halfwidth=1.5)
    with pytest.raises(ValueError):
        build_gauge(chart_pz4, 2, root_tol=0)


def test_root_outside_bracket(chart_pz4):
    narrow = build_gauge(chart_pz4, 2, bracket_halfwidth=0.05)
    # true scale factor is 0.8, far outside (0.95, 1.05)
    with pytest.raises(RootSearchError, match="outside gauge domain"):
        solve_scale(narrow, PointC2(1.25, 0.1))


def test_degenerate_slope_detected(chart_pz4):
    # leaves {z = const}: along n2 = Im z neither the leaf directions nor
    # the ray through a point with real z move, so the Newton system on
    # the leaf is singular
    G = dataclasses.replace(build_gauge(chart_pz4, 2, bracket_halfwidth=0.3),
                            ray_velocity=(0.0, 1.0))
    with pytest.raises(DegenerateRootError):
        solve_scale(G, PointC2(1.1, 0.2))


def test_inhomogeneous_field_rejected():
    # (-z, w + w^2) declared of degree 1: its leaves do not scale with the
    # point, so no gauge may be built on them
    V = VectorFieldC2(WirtingerPoly.monomial(1, 0, 0, 0, -1),
                      WirtingerPoly.monomial(0, 0, 1, 0) + WirtingerPoly.monomial(0, 0, 2, 0), 1)
    chart = build_chart(V, X_PZW, chart_cfg(0.1))
    with pytest.raises(AssumptionError, match="homogeneous"):
        build_gauge(chart, 2)


def test_warm_start_does_not_change_result(gauge_pzw_n4):
    q = PointC2(1.15, 0.93 + 0.04j)
    cold = solve_scale(gauge_pzw_n4, q)
    warm = solve_scale(gauge_pzw_n4, q, t_guess=cold * (1 + 3e-7))
    assert warm == pytest.approx(cold, abs=5e-11)


def test_gauge_grid_rows(gauge_pz4_n2):
    pts = [PointC2(1.1, 0.0), PointC2(1.0, 0.2)]
    rows = gauge_grid_rows(gauge_pz4_n2, pts)
    assert len(rows) == 2
    re_z, im_z, re_w, im_w, scale, value = rows[0]
    assert (re_z, im_z, re_w, im_w) == (1.1, 0.0, 0.0, 0.0)
    assert scale == pytest.approx(1 / 1.1, rel=1e-9)
    assert value == pytest.approx(1.1 ** 2, rel=1e-9)


def test_gauge_is_one_at_the_base_point(gauge_pz4_n4, gauge_pzw_n4, gauge_v3_n2,
                                        gauge_nonholo_n2):
    # the base point solves its own Newton system at t = 1 exactly
    for G in (gauge_pz4_n4, gauge_pzw_n4, gauge_v3_n2, gauge_nonholo_n2):
        assert gauge_eval(G, G.chart.base) == 1.0


def test_large_degree_overflow_and_underflow(chart_pz4):
    # g = (Re z)^n on pz4: 1.1^10000 overflows a float, 0.9^10000 underflows
    G = build_gauge(chart_pz4, 10000, bracket_halfwidth=0.60)
    with pytest.raises(NumericError, match="overflows") as info:
        gauge_eval(G, PointC2(1.1, 0))
    assert not isinstance(info.value, RootSearchError)
    with pytest.raises(RootSearchError, match="underflows"):
        gauge_eval(G, PointC2(0.9, 0))
    with pytest.raises(NumericError, match="overflows"):
        gauge_grid_rows(G, [PointC2(1.1, 0)])


def test_gauge_immutable(gauge_pz4_n2):
    with pytest.raises(AttributeError):
        gauge_pz4_n2.degree = 3
    assert isinstance(gauge_pz4_n2, GaugeFunction)


def test_concurrent_evaluation_matches_serial(gauge_pzw_n4):
    # gauges are immutable after construction; concurrent queries must
    # reproduce the serial values exactly
    from concurrent.futures import ThreadPoolExecutor

    points = [PointC2(1 + 0.01 * k, 1 - 0.005 * k) for k in range(12)]
    serial = [gauge_eval(gauge_pzw_n4, q) for q in points]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda q: gauge_eval(gauge_pzw_n4, q), points))
    assert threaded == serial


def test_work_count_ceilings(gauge_pzw_n4, field_evals):
    # deterministic work per cold evaluation over the chart ball, counted
    # as field evaluations (mean 53.1, max 83 for gauge_eval; mean 51.2
    # for leaf_coords); catches solver regressions without timing noise
    calls = field_evals
    G = gauge_pzw_n4
    points = sample_chart_ball(G.chart, 100, np.random.default_rng(0x5EED), shrink=0.8)

    def work(fn) -> list[int]:
        counts = []
        for q in points:
            before = calls[0]
            fn(q)
            counts.append(calls[0] - before)
        return counts

    gauge = work(lambda q: gauge_eval(G, q))
    assert sum(gauge) / len(gauge) <= 130
    assert max(gauge) <= 250
    coords = work(lambda q: leaf_coords(G.chart, q))
    assert sum(coords) / len(coords) <= 130
