"""End-to-end pipelines: hypothesis gate, full runs, work counts."""

import dataclasses
import inspect
import math
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
    build_gauge,
    complex_hessian,
    derive_candidate_fields,
    gauge_eval,
    involutivity_check,
    run_field_pipeline,
    run_pipeline,
    select_field,
    transversality_check,
    validate_hypotheses,
)
from conftest import (
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
    # LeafChart holds its base point and frame in one record (point)
    assert counts == {"PipelineConfig": 9, "ChartConfig": 3, "FlowConfig": 2, "LeafChart": 5}
    assert list(inspect.signature(select_field).parameters) == ["P", "x"]
    assert list(inspect.signature(transversality_check).parameters) == ["V", "p"]


# each solver setting of PipelineConfig and the layer that uses it
_SOLVER_LAYERS = {
    "chart_radius": lambda v, chart: ChartConfig(radius_scale=v),
    "newton_tol": lambda v, chart: ChartConfig(newton_tol=v),
    "ode_tol": lambda v, chart: FlowConfig(tol=v),
    "max_step": lambda v, chart: FlowConfig(max_step=v),
    "bracket_halfwidth": lambda v, chart: build_gauge(chart, 2, bracket_halfwidth=v),
    "root_tol": lambda v, chart: build_gauge(chart, 2, root_tol=v),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(_SOLVER_LAYERS))
def test_pipeline_and_solver_layers_reject_the_same_values(name, value, chart_pz4):
    # one range check per setting: the pipeline config refuses what the
    # layer refuses, and the layer takes the pipeline's default
    layer = _SOLVER_LAYERS[name]
    layer(getattr(PipelineConfig(), name), chart_pz4)
    with pytest.raises(ValueError):
        PipelineConfig(**{name: value})
    with pytest.raises(ValueError):
        layer(value, chart_pz4)


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
    # report includes the involutivity entry; the base-point sine, which
    # build_chart's 1e-4 guard decides before any entry, has none
    names = {e.name for e in report.entries}
    assert "field_involutivity" in names and "base_transversality" not in names


def test_run_field_pipeline_rejects_inhomogeneous():
    with pytest.raises(AssumptionError, match="homogeneous"):
        run_field_pipeline(make_field_bad(), PointC2(0, 1), 2, CFG)


def test_run_field_pipeline_rejects_vanishing_base():
    V = make_field_v3()
    with pytest.raises(AssumptionError, match=r"field vanishes at the base point: \|V\(x\)\| = "
                                              r"0.000e\+00 against threshold 1.000e-08"):
        run_field_pipeline(V, PointC2(0, 0), 2, CFG)


def _base_verdicts(name: str, lam: float):
    """The three base-point verdicts at lam times a shipped fixture's point:
    the Hessian is nonzero (None for a field fixture), the field is alive
    and the ray is transversal to the leaf."""
    from leafgauge.fields import _live_candidate, field_eval, vanishes
    from leafgauge.fixtures import load_fixture
    from conftest import FIXTURE_DIR

    fx = load_fixture(FIXTURE_DIR / f"{name}.json")
    x, hessian, V = fx.point.scale(lam), None, fx.field
    if V is None:
        candidates = derive_candidate_fields(fx.polynomial)
        k, _ = _live_candidate(fx.polynomial, x, candidates[0].degree)
        hessian, V = k is not None, candidates[k or 0]
    return (hessian, not vanishes(field_eval(V, x).norm(), x, V.degree),
            transversality_check(V, x).passed)


@pytest.mark.parametrize("lam", [1e-2, 1.0, 1e2, pytest.param(1e-9, marks=pytest.mark.xfail(
    strict=True, reason="the nonvanishing threshold is absolute below |x| = 1"))])
@pytest.mark.parametrize("name", ["pzw", "pz4", "field_v3", "field_nonholo"])
def test_base_point_verdicts_keep_under_scaling(name, lam):
    # x -> lam x scales V(x) and the Hessian by lam^m and keeps every angle,
    # so no base-point verdict may move; at lam = 1e-9 the field and the
    # Hessian fall below 1e-8 (field_v3 at 1e-9,0,1e-9,0 exits 2 with
    # "field vanishes" while at 1e-4,0,1e-4,0 it builds)
    assert _base_verdicts(name, lam) == (None if name.startswith("field") else True, True, True)


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
    # (46,721 field evaluations: 4 fewer since one base-point record holds
    # V(x), where the pipeline, the chart and check_chart evaluated it 5
    # times; 46,725 before that, 20 fewer since each of the 20 involutivity
    # samples takes one field value for its views and its bracket, not two;
    # one fewer before that since build_chart stopped evaluating the field
    # for a determinant; 49.8k before a landed point's value came
    # from the FSAL stage of the flow that landed there, 60k when the Euler
    # identity took a 4-axis gradient, 100k before long flows took the
    # DOP853 step, 362k when each Newton correction was flowed over unit
    # time), so a flow-layer regression shows without timing noise
    from leafgauge.fixtures import load_fixture, resolve_config
    from conftest import FIXTURE_DIR

    fx = load_fixture(FIXTURE_DIR / "field_v3.json")
    _, report = run_field_pipeline(fx.field, fx.point, fx.degree, resolve_config(fx.config))
    assert report.overall_pass
    assert field_evals[0] <= 150_000
    # and exactly, so that work done out of sight (a forked worker) fails it
    assert field_evals[0] == 46_721


@pytest.mark.parametrize("name, evals", [("pzw", 62_411), ("pz4", 21_007)])
def test_polynomial_build_work_counts(name, evals, field_evals):
    # the polynomial path's build work at its shipped config, exactly: 4
    # fewer than 62,415 and 21,011, since V is evaluated at x once per build
    # (base_point) instead of 5 times; 2,650
    # fewer than that when each build also spot-checked P along the leaves (50
    # samples, each a field value and four two-leg flows); a build now runs
    # the field path's suite and no work on P beyond the hypotheses
    _, report = _fixture_build(name, 0x5EED)
    assert report.overall_pass
    assert field_evals[0] == evals


@pytest.mark.parametrize("name, dop853, rejected, dp5, evals", [
    ("pzw", 3_315, 440, 3_508, 62_411),
    ("pz4", 1_530, 0, 178, 21_007),
    ("field_v3", 2_308, 0, 2_907, 46_721),
    ("field_nonholo", 3_340, 439, 3_468, 62_471),
])
def test_build_flow_steps_by_pair(name, dop853, rejected, dp5, evals, flow_steps, field_evals):
    # each shipped build's generated flow steps at its shipped config and
    # the default seed 0x5EED: DOP853 steps (about 13% of them rejected on
    # pzw and field_nonholo, none on pz4 and field_v3) and DP5(4) steps,
    # none of them rejected.  At 12 and 6 evaluations a step, with 1,583
    # direct evaluations (1,579 on pz4), they make the field_evals pins, so
    # any change to the step-size control shows here by pair
    _, report = _fixture_build(name, 0x5EED)
    assert report.overall_pass
    assert flow_steps == {"dop853": [dop853, rejected], "dp5": [dp5, 0]}
    assert field_evals[0] == evals


@pytest.mark.parametrize("name, evals", [("pzw", 54_659), ("field_v3", 46_721)])
def test_tol_ode_reaches_the_flows(name, evals, field_evals):
    # a looser ODE tolerance moves no report past its check, so the work
    # count shows that it reaches the flows: at 1e-9 a pzw build takes
    # 54,659 field evaluations, 62,411 at the default 1e-12; field_v3's
    # steps are set by max_step, and it takes 46,721 at either
    _, report = _fixture_build(name, 0x5EED, tol_ode=1e-9)
    assert report.overall_pass
    assert field_evals[0] == evals


@pytest.mark.parametrize("name", ["pzw", "pz4", "field_v3", "field_nonholo", "curved"])
def test_base_transversality_is_the_ray_velocity_sine(name):
    # |det[x | V(x)]| / (|x| |V(x)|) and |(n1.x, n2.x)| / |x| are both the
    # sine of the angle between x and the complex line of V(x), so the gauge
    # block's ray_velocity records the base point's transversality margin.
    # The shipped base points are normal to their leaves (sine 1); the
    # curved field's is not (sine 3 / sqrt(10))
    from leafgauge import field_eval, scaling_velocity
    from leafgauge.fixtures import load_fixture, resolve_config
    from conftest import FIXTURE_DIR, make_field_curved

    if name == "curved":
        V, x, cfg = make_field_curved(), PointC2(1, 1), PipelineConfig()
    else:
        fx = load_fixture(FIXTURE_DIR / f"{name}.json")
        x, cfg = fx.point, resolve_config(fx.config)
        V = fx.field if fx.field is not None else select_field(fx.polynomial, x)
    det = transversality_check(V, x).residual
    sine = math.hypot(*scaling_velocity(build_chart(V, x, cfg.chart_cfg()))) / x.norm()
    assert det / (x.norm() * field_eval(V, x).norm()) == pytest.approx(sine, rel=1e-12, abs=0)


@pytest.mark.parametrize("name", ["pzw", "pz4", "field_v3", "field_nonholo"])
def test_build_evaluates_the_field_at_x_once(name, monkeypatch):
    # both paths decide the facts at x in one base-point record: the
    # pipeline's refusals, the chart frame, the ray velocity and
    # check_chart's orthogonality read one value of V there (5 before)
    from leafgauge.fixtures import load_fixture
    from conftest import FIXTURE_DIR, serial

    serial(monkeypatch)
    x = load_fixture(FIXTURE_DIR / f"{name}.json").point
    at_x = [0]
    evaluate = VectorFieldC2.eval_complex

    def counted(self, z, w):
        at_x[0] += (z, w) == (x.z, x.w)
        return evaluate(self, z, w)

    monkeypatch.setattr(VectorFieldC2, "eval_complex", counted)
    _, report = _fixture_build(name, 0x5EED)
    assert report.overall_pass
    assert at_x[0] == 1


def _fixture_build(name: str, seed: int, **overrides):
    from leafgauge.fixtures import load_fixture, resolve_config
    from conftest import FIXTURE_DIR

    fx = load_fixture(FIXTURE_DIR / f"{name}.json")
    cfg = resolve_config(fx.config, seed=seed, **overrides)
    if fx.field is not None:
        return run_field_pipeline(fx.field, fx.point, fx.degree, cfg)
    return run_pipeline(fx.polynomial, fx.point, fx.degree, cfg)


@pytest.mark.parametrize("name", ["pzw", "pz4", "field_v3"])
@pytest.mark.parametrize("eps, passes", [(0.0, True), (1e-7, False)])
def test_flow_drift_fails_the_report(name, eps, passes, monkeypatch):
    # every flow lands eps |s| |q| off its end point q along (conj w, -conj z)
    # / |q|, off the leaf; the standard suite must catch the drift (from
    # 3e-9 on pzw and field_v3, 3e-8 on pz4: gauge_root_consistency)
    import leafgauge.charts as charts
    import leafgauge.flows as flows

    flow = flows._flow

    def drifting(V, coeffs, s, z, w, cfg, v0):
        z, w, v = flow(V, coeffs, s, z, w, cfg, v0)
        return z + eps * abs(s) * w.conjugate(), w - eps * abs(s) * z.conjugate(), v

    if eps:
        monkeypatch.setattr(flows, "_flow", drifting)
        monkeypatch.setattr(charts, "_flow", drifting)
    assert _fixture_build(name, 0x5EED)[1].overall_pass is passes


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


@pytest.mark.parametrize("make, x", [(make_pzw, PointC2(1, 1)), (make_pz4, PointC2(1, 0))],
                         ids=["pzw", "pz4"])
def test_admit_decides_each_fact_once(make, x, poly_products, code_generations, field_evals,
                                      monkeypatch):
    from leafgauge import wirtinger

    P = make()
    counts = {"_lift": 0, "_substitute": 0}
    for name in counts:
        def counted(*args, name=name, run=getattr(wirtinger, name)):
            counts[name] += 1
            return run(*args)
        monkeypatch.setattr(wirtinger, name, counted)
    assert _admit(P, x) == (True, True, True)
    # the Levi determinant's two products, once; the annihilation verdict
    # of the selected candidate is that determinant's (6 with a matvec)
    assert poly_products[0] == 2
    # x lifted once for the four Hessian entries, which validate_hypotheses
    # and select_field share, and once for the harmonic-line test: five
    # substitution passes (seven with one lift per entry and candidate
    # values evaluated apart)
    assert counts == {"_lift": 2, "_substitute": 5}
    # the selected field's code and its Jacobian's; one field value for each
    # of the four involutivity samples and one for transversality
    assert code_generations[0] == 2
    assert field_evals[0] == 4 + 1


# -- bits of the admissibility residuals ---------------------------------------
#
# float.hex of the involutivity, bracket-span and transversality residuals
# and of the Hessian values, taken before the Hessian shared one lift of the
# point and involutivity one field value per sample.

BIT_GOLDENS = {
    'pzw': {
        'involutivity': [
            '0x1.d2c36d9a58cc9p-55', '0x1.ca8345c2cebe4p-61', '0x1.4960938c5daa5p-54',
            '0x1.c0288056d1853p-55', '0x1.f30985b39e07bp-55', '0x1.4960938c5daa5p-54',
        ],
        'span': [
            '0x1.1e3779b97f4a8p-52', '0x1.0000000000000p-56', '0x1.6bcd594fa2a9ap-52',
            '0x1.6fa6ea162d0f0p-52', '0x1.8154be2773526p-52',
        ],
        'transversality': '0x1.0000000000000p+1',
        'hessian': [
            '0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+0', '0x0.0p+0',
            '0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+0', '0x0.0p+0',
            '0x1.965e59f512d14p-1', '0x0.0p+0', '0x1.9671b082c3b99p-1', '0x1.63a7b752a3828p-2',
            '0x1.9671b082c3b99p-1', '-0x1.63a7b752a3828p-2', '0x1.e456593ecb361p-1', '0x0.0p+0',
        ],
    },
    'pz4': {
        'involutivity': [
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        ],
        'span': [
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        ],
        'transversality': '0x1.0000000000000p+2',
        'hessian': [
            '0x1.0000000000000p+2', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x1.e00ef3c7dc95bp+1', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        ],
    },
    'field_v3': {
        'involutivity': [
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        ],
        'span': [
            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        ],
        'transversality': '0x1.0000000000000p+1',
    },
    'field_nonholo': {
        'involutivity': [
            '0x1.505058337bf2dp-54', '0x1.4391a28cb2fcfp-54', '0x1.2d4e294cf6f2fp-54',
            '0x1.20b98b47a531cp-55', '0x1.a295e0938dfb8p-55', '0x1.505058337bf2dp-54',
        ],
        'span': [
            '0x1.01fe03f61bad0p-51', '0x1.208fdc11f4c7ep-51', '0x1.6a7af7d7fc881p-53',
            '0x1.07e0f66afed07p-52', '0x1.1e3779b97f4a8p-52',
        ],
        'transversality': '0x1.0000000000000p+1',
    },
    'field_bad': {
        'involutivity': [
            '0x1.f64971c6a6c64p-2', '0x1.ffc19d0113af7p-2', '0x1.f898826b376e6p-2',
            '0x1.fdca299a88a9cp-2', '0x1.fecb679a1230ap-2', '0x1.ffc19d0113af7p-2',
        ],
        'span': [
            '0x1.f1adc3ed98d29p+0', '0x1.ffa275f41a877p+0', '0x1.f509e4a197782p+0',
            '0x1.fcb29660cd83ap+0', '0x1.fe321a85ad9d4p+0',
        ],
        'transversality': '0x1.0000000000000p+0',
    },
    'k2m2': {
        'involutivity': [
            '0x1.a724a6e93ca56p-55', '0x1.607738037d5d6p-54', '0x1.9e1476aa958bbp-54',
            '0x1.fa1d3c7b22ee6p-54', '0x1.487e4e76ca6b9p-55', '0x1.fa1d3c7b22ee6p-54',
        ],
        'span': [
            '0x1.3988e1409212ep-54', '0x1.784156eb25d05p-52', '0x1.1f5c433b96876p-53',
            '0x1.16f8334644df9p-52', '0x1.07e0f66afed07p-55',
        ],
        'transversality': '0x1.09ca12a506e50p+0',
        'hessian': [
            '0x1.5b05b05b05b05p-2', '0x0.0p+0', '0x1.61d950c83fb73p-1', '0x1.3e02468acf135p-1',
            '0x1.61d950c83fb73p-1', '-0x1.3e02468acf135p-1', '0x1.461d950c83fb7p+1', '0x0.0p+0',
            '0x1.3caaa8c48b5fcp-2', '0x0.0p+0', '0x1.efe5bb149ec1dp-2', '0x1.5421043660f83p-1',
            '0x1.efe5bb149ec1dp-2', '-0x1.5421043660f83p-1', '0x1.17bc7a6920a23p+1', '0x0.0p+0',
        ],
    },
    'k2m3': {
        'involutivity': [
            '0x1.8594ab4f8569dp-54', '0x1.3854d5ef34c36p-55', '0x1.a88f6245aaf0ap-55',
            '0x1.20d8dd1109a8dp-54', '0x1.28ca88b459ffcp-54', '0x1.8594ab4f8569dp-54',
        ],
        'span': [
            '0x1.752e50db3a3a2p-48', '0x1.7bfa9c41ab040p-48', '0x1.07e0f66afed07p-49',
            '0x1.80e1135efb311p-48', '0x1.27757ebaf9368p-49',
        ],
        'transversality': '0x1.eaea93e28c450p+2',
        'hessian': [
            '0x1.703fb72ea61d9p+2', '0x0.0p+0', '0x1.e72ea61d950c8p+1', '0x1.aa1907f6e5d4cp-2',
            '0x1.e72ea61d950c8p+1', '-0x1.aa1907f6e5d4cp-2', '0x1.461d950c83fb7p+1', '0x0.0p+0',
            '0x1.5ceb3592609a9p+2', '0x0.0p+0', '0x1.b8f79490376adp+1', '-0x1.b8a50e0e1414cp-3',
            '0x1.b8f79490376adp+1', '0x1.b8a50e0e1414cp-3', '0x1.17bc7a6920a23p+1', '0x0.0p+0',
        ],
    },
    'k3m3': {
        'involutivity': [
            '0x1.843211e210169p-55', '0x1.8c6bca204d12bp-55', '0x1.7b3f27fec9b6dp-54',
            '0x1.06e3d870dcc53p-54', '0x1.f1e2ed80f2343p-53', '0x1.f1e2ed80f2343p-53',
        ],
        'span': [
            '0x1.6000000000000p-48', '0x1.10966cfe294b6p-46', '0x1.49d93405be849p-49',
            '0x1.bc8ee6b2865b9p-48', '0x1.4cf03d20e5ad0p-49',
        ],
        'transversality': '0x1.c1303d1321a06p+2',
        'hessian': [
            '0x1.c1437e33caa93p+1', '0x0.0p+0', '0x1.26b1c432ca57ap+2', '0x1.18bb52e0300f5p+1',
            '0x1.26b1c432ca57ap+2', '-0x1.18bb52e0300f5p+1', '0x1.da51eb851eb85p+2', '0x0.0p+0',
            '0x1.8471d84fa615ap+1', '0x0.0p+0', '0x1.906dfb2809657p+1', '0x1.ddb4588bf0205p+0',
            '0x1.906dfb2809657p+1', '-0x1.ddb4588bf0205p+0', '0x1.17d39751b854fp+2', '0x0.0p+0',
        ],
    },
    'k3m4': {
        'involutivity': [
            '0x1.1f0f45a19d09ap-56', '0x1.5e46f95b6d396p-58', '0x1.e1a7ccd0398e3p-57',
            '0x1.872114349a19fp-57', '0x1.5be4803b48c48p-56', '0x1.5be4803b48c48p-56',
        ],
        'span': [
            '0x1.21c5b70d9f824p-43', '0x1.2548eb9151e85p-42', '0x1.8000000000000p-46',
            '0x1.8154be2773526p-43', '0x1.8a85c24f70659p-45',
        ],
        'transversality': '0x1.a59539f687feap+4',
        'hessian': [
            '0x1.7024fef8b0dfep+4', '0x0.0p+0', '0x1.8fb5c7cd898b3p+3', '-0x1.e771e5673f1b1p+1',
            '0x1.8fb5c7cd898b3p+3', '0x1.e771e5673f1b1p+1', '0x1.da51eb851eb85p+2', '0x0.0p+0',
            '0x1.42e34e4417137p+4', '0x0.0p+0', '0x1.e14b5d2c1b981p+2', '-0x1.683b0c1e5c39cp+2',
            '0x1.e14b5d2c1b981p+2', '0x1.683b0c1e5c39cp+2', '0x1.17d39751b854fp+2', '0x0.0p+0',
        ],
    },
    'k4m4': {
        'involutivity': [
            '0x1.b219caa1e9734p-57', '0x1.147cf729a8e95p-57', '0x1.ea034adec84fbp-57',
            '0x1.78d0769d858b3p-57', '0x1.64912ee2f50a5p-53', '0x1.64912ee2f50a5p-53',
        ],
        'span': [
            '0x1.6fa6ea162d0f0p-44', '0x1.5e8add236a58fp-40', '0x1.6a09e667f3bcdp-47',
            '0x1.58a68a4a8d9f3p-43', '0x1.5b9be5d52a9dap-46',
        ],
        'transversality': '0x1.56e32f24ac0c8p+4',
        'hessian': [
            '0x1.c122e52529b4fp+3', '0x0.0p+0', '0x1.a4d0aac5b2561p+3', '0x1.bc0e20fb3a273p+0',
            '0x1.a4d0aac5b2561p+3', '-0x1.bc0e20fb3a273p+0', '0x1.9123be3f3b971p+3', '0x0.0p+0',
            '0x1.67770bf9fafebp+3', '0x0.0p+0', '0x1.8cfd4fdfe3b10p+2', '0x1.bdcbb617b6c6ap-1',
            '0x1.8cfd4fdfe3b10p+2', '-0x1.bdcbb617b6c6ap-1', '0x1.bf11d032093ddp+1', '0x0.0p+0',
        ],
    },
    'k4m5': {
        'involutivity': [
            '0x1.e4cc72626b370p-59', '0x1.162c2c5847148p-59', '0x1.2a3c08e004b71p-57',
            '0x1.474cb649c1deep-59', '0x1.1b5bb67beb6b3p-58', '0x1.2a3c08e004b71p-57',
        ],
        'span': [
            '0x1.35a374a9eec84p-41', '0x1.6b733bfd8c648p-38', '0x1.4000000000000p-44',
            '0x1.2000000000000p-40', '0x1.3988e1409212ep-43',
        ],
        'transversality': '0x1.bc6dcaffaf20dp+5',
        'hessian': [
            '0x1.ca907824bcef4p+5', '0x0.0p+0', '0x1.4aa3a8f5fe366p+4', '-0x1.112d747a9cae1p+4',
            '0x1.4aa3a8f5fe366p+4', '0x1.112d747a9cae1p+4', '0x1.9123be3f3b971p+3', '0x0.0p+0',
            '0x1.8af96bcb881f2p+5', '0x0.0p+0', '0x1.447b881f0a804p+2', '-0x1.83a1db7e5185dp+3',
            '0x1.447b881f0a804p+2', '0x1.83a1db7e5185dp+3', '0x1.bf11d032093ddp+1', '0x0.0p+0',
        ],
    },
}


def _bit_cases():
    from leafgauge.fixtures import load_fixture
    from conftest import FIXTURE_DIR

    for name in ("pzw", "pz4", "field_v3", "field_nonholo", "field_bad"):
        fx = load_fixture(FIXTURE_DIR / f"{name}.json")
        yield name, fx.polynomial, fx.field, fx.point
    for k, m in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5)):
        yield f"k{k}m{m}", _square(k, m), None, X_SQUARE


@pytest.mark.parametrize("name, P, V, x", list(_bit_cases()),
                         ids=[case[0] for case in _bit_cases()])
def test_admissibility_residuals_bit_for_bit(name, P, V, x):
    from leafgauge import bracket_span_residual, hessian_eval
    from leafgauge.verify import check_rng, sample_ball

    h = float.hex
    if V is None:
        V = select_field(P, x)
    samples = sample_ball(x.to_real4(), 0.3 * x.norm(), 5, check_rng(7, "involutivity"))
    got = {"involutivity": [h(involutivity_check(V, [p]).residual) for p in samples]
           + [h(involutivity_check(V, samples).residual)],
           "span": [h(bracket_span_residual(V, p)) for p in samples],
           "transversality": h(transversality_check(V, x).residual)}
    if P is not None:
        got["hessian"] = [h(part) for q in (x, samples[0]) for row in hessian_eval(P, q)
                          for v in row for part in (v.real, v.imag)]
    assert got == BIT_GOLDENS[name]
