"""End-to-end pipelines: hypothesis gate, leaf harmonicity, full runs."""

import dataclasses
import inspect
import os
from fractions import Fraction

import pytest

from leafgauge import (
    AssumptionError,
    ChartConfig,
    FlowConfig,
    LeafChart,
    PipelineConfig,
    PointC2,
    VectorFieldC2,
    WirtingerPoly,
    annihilation_check,
    build_chart,
    complex_hessian,
    gauge_eval,
    involutivity_check,
    leaf_harmonicity_check,
    run_field_pipeline,
    run_pipeline,
    select_field,
    transversality_check,
    validate_hypotheses,
)
from conftest import (
    chart_cfg,
    make_ball,
    make_field_bad,
    make_field_v3,
    make_pz4,
    make_pzw,
)

CFG = PipelineConfig(chart_radius=0.30, bracket_halfwidth=0.45, n_samples=25)
CFG_PZ4 = PipelineConfig(chart_radius=0.30, bracket_halfwidth=0.60, n_samples=25)


def test_solver_settings_have_one_home():
    # the pipeline defaults are the chart and flow defaults, and each
    # one-value setting is a module constant rather than a field
    assert PipelineConfig().flow_cfg() == FlowConfig()
    assert PipelineConfig().chart_cfg() == ChartConfig()
    counts = {cls.__name__: len(dataclasses.fields(cls))
              for cls in (PipelineConfig, ChartConfig, FlowConfig, LeafChart)}
    assert counts == {"PipelineConfig": 9, "ChartConfig": 3, "FlowConfig": 2, "LeafChart": 6}
    assert list(inspect.signature(select_field).parameters) == ["P", "x"]
    assert list(inspect.signature(transversality_check).parameters) == ["V", "p"]


def _verdicts(checklist):
    return {c.name: c.passed for c in checklist.checks}


def test_hypotheses_pzw_all_pass():
    checklist = validate_hypotheses(make_pzw(), PointC2(1, 1))
    assert checklist.all_passed
    assert len(checklist.checks) == 5


def test_hypotheses_ball_fails_degree_and_levi():
    checklist = validate_hypotheses(make_ball(), PointC2(1, 0))
    v = _verdicts(checklist)
    assert not checklist.all_passed
    assert not v["homogeneous_even_degree"]
    assert not v["levi_determinant_zero"]
    assert v["real_valued"] and v["hessian_nonzero_at_base"] and v["base_off_harmonic_lines"]


def test_hypotheses_pz4_on_harmonic_line():
    checklist = validate_hypotheses(make_pz4(), PointC2(0, 1))
    v = _verdicts(checklist)
    assert not v["hessian_nonzero_at_base"]
    assert not v["base_off_harmonic_lines"]
    assert v["real_valued"] and v["homogeneous_even_degree"] and v["levi_determinant_zero"]


def test_leaf_harmonicity_pzw(chart_pzw):
    from leafgauge import select_field
    P = make_pzw()
    entries = leaf_harmonicity_check(P, select_field(P, PointC2(1, 1)), chart_pzw,
                                     n_samples=20, seed=0x5EED)
    by_name = {e.name: e for e in entries}
    assert by_name["leaf_levi_form"].passed
    assert by_name["leaf_levi_form"].residual <= 1e-9
    assert by_name["leaf_second_difference"].passed


def test_leaf_harmonicity_pz4(chart_pz4):
    # the Hessian annihilates the selected field symbolically, so the Levi
    # residual is pure rounding
    from leafgauge import select_field
    P = make_pz4()
    entries = leaf_harmonicity_check(P, select_field(P, PointC2(1, 0)), chart_pz4,
                                     n_samples=15, seed=0x5EED)
    by_name = {e.name: e for e in entries}
    assert by_name["leaf_levi_form"].residual <= 1e-12
    assert by_name["leaf_second_difference"].passed


def test_leaf_harmonicity_fails_for_ball():
    # constant field (0, 1) on the ball potential: the Levi form in the
    # field direction is identically 1
    P = make_ball()
    V = VectorFieldC2(WirtingerPoly.zero(), WirtingerPoly.constant(1), 0)
    chart = build_chart(V, PointC2(1, 0), chart_cfg(0.1))
    entries = leaf_harmonicity_check(P, V, chart, n_samples=10, seed=0x5EED)
    levi = next(e for e in entries if e.name == "leaf_levi_form")
    assert not levi.passed
    assert levi.residual == pytest.approx(1.0, abs=1e-9)


def test_run_pipeline_pzw():
    G, report = run_pipeline(make_pzw(), PointC2(1, 1), 4, CFG)
    assert report.overall_pass
    assert gauge_eval(G, PointC2(1.2, 1.0)) == pytest.approx(1.44, abs=1e-6)


def test_run_pipeline_pz4_default_degree():
    # degree defaults to the polynomial degree (4)
    G, report = run_pipeline(make_pz4(), PointC2(1, 0), None, CFG_PZ4)
    assert G.degree == 4
    assert report.overall_pass
    assert gauge_eval(G, PointC2(1.2, 0.03 - 0.05j)) == pytest.approx(1.2 ** 4, rel=1e-8)


def test_run_pipeline_ball_aborts():
    with pytest.raises(AssumptionError, match="hypothesis failed"):
        run_pipeline(make_ball(), PointC2(1, 0), 2, CFG)


def test_run_field_pipeline_v3():
    G, report = run_field_pipeline(make_field_v3(), PointC2(1, 1), 2, CFG)
    assert report.overall_pass
    # report includes the assumption entries
    names = {e.name for e in report.entries}
    assert "field_involutivity" in names and "base_transversality" in names


def test_run_field_pipeline_rejects_inhomogeneous():
    with pytest.raises(AssumptionError, match="homogeneous"):
        run_field_pipeline(make_field_bad(), PointC2(0, 1), 2, CFG)


def test_run_field_pipeline_rejects_vanishing_base():
    V = make_field_v3()
    with pytest.raises(AssumptionError):
        run_field_pipeline(V, PointC2(0, 0), 2, CFG)


def test_annihilation_holds_for_selected_fields():
    from leafgauge import annihilation_check, levi_determinant, select_field
    for P, x in ((make_pzw(), PointC2(1, 1)), (make_pz4(), PointC2(1, 0))):
        assert levi_determinant(P).is_zero
        assert annihilation_check(P, select_field(P, x))


def test_curved_leaf_geometry():
    # (-z, 2w) has first integral z^2 w; its leaf-space curves are genuinely
    # curved, unlike the other fixtures, so this exercises the machinery
    # away from the linear special cases
    import math

    import numpy as np

    from leafgauge import build_gauge, scaling_velocity
    from leafgauge.verify import assemble_report, run_standard_suite

    V = VectorFieldC2(WirtingerPoly.monomial(1, 0, 0, 0, -1),
                      WirtingerPoly.monomial(0, 0, 1, 0, 2), 1)
    x = PointC2(1, 1)
    cfg = PipelineConfig(chart_radius=0.22, bracket_halfwidth=0.35, n_samples=40)
    chart = build_chart(V, x, cfg.chart_cfg())

    # golden value: the transversal normal gives <x, n1> = 3 / sqrt(5)
    d = scaling_velocity(chart)
    assert d[0] == pytest.approx(3 / math.sqrt(5), abs=1e-8)
    assert d[1] == pytest.approx(0.0, abs=1e-8)

    G = build_gauge(chart, 3, bracket_halfwidth=cfg.bracket_halfwidth)
    # rays with z^2 w real positive cross the base leaf at t = (z^2 w)^(-1/3)
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = rng.uniform(0.85, 1.15)
        r = rng.uniform(0.95, 1.05)
        theta = rng.uniform(-0.05, 0.05)
        z = r * np.exp(1j * theta)
        q = PointC2(complex(z), complex(a / (z * z)))
        assert gauge_eval(G, q) == pytest.approx(a, rel=1e-8)

    report = assemble_report(run_standard_suite(G, n_samples=40, seed=0x5EED))
    assert report.overall_pass


def test_build_work_count_ceiling(field_evals):
    # deterministic work of one full build at the shipped field_v3 config
    # (60k field evaluations; 100k before long flows took the DOP853 step,
    # 362k when each Newton correction was flowed over unit time), so a
    # flow-layer regression shows without timing noise
    from leafgauge.fixtures import load_fixture, resolve_config
    from conftest import FIXTURE_DIR

    fx = load_fixture(FIXTURE_DIR / "field_v3.json")
    _, report = run_field_pipeline(fx.field, fx.point, fx.degree, resolve_config(fx.config))
    assert report.overall_pass
    assert field_evals[0] <= 150_000
    # and exactly, so that work done out of sight (a forked worker) fails it
    assert field_evals[0] == 60_326


def _fixture_build(name: str, seed: int):
    from leafgauge.fixtures import load_fixture, resolve_config
    from conftest import FIXTURE_DIR

    fx = load_fixture(FIXTURE_DIR / f"{name}.json")
    cfg = resolve_config(fx.config, seed=seed)
    if fx.field is not None:
        return run_field_pipeline(fx.field, fx.point, fx.degree, cfg)
    return run_pipeline(fx.polynomial, fx.point, fx.degree, cfg)


@pytest.mark.parametrize("name", ["pzw", "pz4", "field_v3", "field_nonholo"])
def test_reports_identical_with_and_without_worker(name, forks, monkeypatch):
    # the shipped configs at three seeds: the worker moves no sample and no byte
    from leafgauge import report_to_json
    from conftest import serial

    split = [report_to_json(_fixture_build(name, seed)[1]) for seed in (1, 7, 0x5EED)]
    assert forks[0] == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    serial(monkeypatch)
    assert [report_to_json(_fixture_build(name, seed)[1]) for seed in (1, 7, 0x5EED)] == split
    assert forks[0] == 3


def test_failed_build_leaves_no_worker(forks, monkeypatch):
    import leafgauge.verify as verify
    from leafgauge.errors import RootSearchError

    def boom(*args):
        raise RootSearchError("boom")

    monkeypatch.setattr(verify, "check_scaling_laws", boom)
    with pytest.raises(RootSearchError, match="^boom$"):
        run_pipeline(make_pz4(), PointC2(1, 0), None, CFG_PZ4)
    assert forks[0] == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- exact work of one admissibility verdict -----------------------------------

X_SQUARE = PointC2(0.9 + 0.3j, 0.6 - 0.5j)


def _square(k: int, m: int) -> WirtingerPoly:
    """|f|^2 for f = sum over j < m of c_j z^j w^(k-j), with non-dyadic c_j."""
    f = WirtingerPoly.zero()
    for j in range(m):
        f = f + WirtingerPoly.monomial(j, 0, k - j, 0, Fraction(j + 1, 3), Fraction(1, j + 2))
    return f * f.conjugate()


def _admit(P, x):
    """Hypotheses, then the selected field's annihilation, involutivity and
    transversality: the verdict of one admissibility check."""
    checklist = validate_hypotheses(P, x)
    if not checklist.all_passed:
        return tuple(checklist.failures)
    V = select_field(P, x)
    samples = [PointC2(x.z + 0.01 * 1j ** n, x.w - 0.01 * 1j ** n) for n in range(4)]
    return (annihilation_check(P, V), involutivity_check(V, samples).passed,
            transversality_check(V, x).passed)


@pytest.mark.parametrize("k, m", [(k, m) for k in (2, 3, 4) for m in range(2, k + 2)])
def test_admit_derives_one_hessian(k, m, poly_diffs):
    P = _square(k, m)
    poly_diffs[0] = 0
    assert _admit(P, X_SQUARE) == (True, True, True)
    # the complex Hessian once (6 derivatives) and the zbar- and
    # wbar-derivatives of the selected field (4); 14 with the eight real
    # first derivatives, 38 when each of its five users derived the Hessian
    assert poly_diffs[0] == 10
    assert complex_hessian(P) is complex_hessian(P)
    assert poly_diffs[0] == 10


@pytest.mark.parametrize("k, m", [(2, 2), (3, 4), (4, 5)])
def test_admit_generates_code_for_the_selected_field_only(k, m, code_generations):
    # the candidates are told apart by exact values; only the selected
    # field compiles (its values and its Jacobian), where both candidates
    # compiled before (3 per op)
    assert _admit(_square(k, m), X_SQUARE) == (True, True, True)
    assert code_generations[0] == 2


def test_admit_ball_control_derives_one_hessian(poly_diffs):
    verdict = _admit(make_ball(), PointC2(1, 1))
    assert verdict == ("homogeneous_even_degree", "levi_determinant_zero")
    assert poly_diffs[0] == 6           # 18 with one Hessian per user
