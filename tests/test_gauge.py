"""Gauge construction: scaling velocity, mismatch, scale roots, values."""

import dataclasses
import math

import numpy as np
import pytest

from leafgauge import (
    AssumptionError,
    DegenerateRootError,
    GaugeFunction,
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
from conftest import X_PZW, chart_cfg


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
