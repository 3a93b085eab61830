"""Flow integration against closed forms, first integrals, and the error
control contract."""

import cmath
import math

import numpy as np
import pytest

from leafgauge import (
    FlowConfig,
    NumericError,
    PointC2,
    RankDropError,
    StepBudgetError,
    WirtingerPoly,
    VectorFieldC2,
    integrate_flow,
    leaf_flow_map,
    trace_leaf,
)
from conftest import FIXTURE_DIR, FLOW_TIGHT, make_field_nonholo, make_field_v3, make_pzw
from leafgauge import derive_candidate_fields, load_fixture, select_field
from leafgauge import flows
from leafgauge.flows import LONG_FLOW


def mono(a, b, c, d, re=1, im=0):
    return WirtingerPoly.monomial(a, b, c, d, re, im)


def _err(p: PointC2, q: PointC2) -> float:
    return math.sqrt(abs(p.z - q.z) ** 2 + abs(p.w - q.w) ** 2)


def test_linear_flow_closed_form():
    # q' = X1 of (-z, w): z(s) = e^-s, w(s) = e^s
    V = make_field_v3()
    for s in (0.3, -0.45, 1.0):
        got = integrate_flow(V, (1, 0), s, PointC2(1, 1), FLOW_TIGHT)
        want = PointC2(math.exp(-s), math.exp(s))
        assert _err(got, want) <= 1e-10


def test_zero_time_is_identity():
    q = PointC2(0.3 + 1j, -2)
    assert integrate_flow(make_field_v3(), (1, 0), 0.0, q) is q


def test_small_time_taylor_oracle():
    # residual against q + s*X1(q) is C*s^2; for (-z zbar, zbar w) at (1,1)
    # the acceleration is (2, 0), so C = 1
    V = make_field_nonholo()
    q = PointC2(1, 1)
    for s in (1e-2, 1e-3):
        got = integrate_flow(V, (1, 0), s, q, FLOW_TIGHT)
        taylor = PointC2(q.z + s * (-1), q.w + s * (1))
        ratio = _err(got, taylor) / s ** 2
        assert 0.9 <= ratio <= 1.1


def test_leaf_flow_map_zero_times():
    q = PointC2(1, 0.5)
    assert leaf_flow_map(make_field_v3(), q, 0.0, 0.0) is q


def test_leaf_flow_map_one_zero_time_is_one_flow():
    # a zero time is a no-op of integrate_flow itself, bit for bit
    V, q = make_field_nonholo(), PointC2(1 + 0.2j, 0.6 - 0.3j)
    assert leaf_flow_map(V, q, 0.3, 0.0, FLOW_TIGHT) == integrate_flow(V, (1, 0), 0.3, q,
                                                                        FLOW_TIGHT)
    assert leaf_flow_map(V, q, 0.0, -0.2, FLOW_TIGHT) == integrate_flow(V, (0, 1), -0.2, q,
                                                                         FLOW_TIGHT)


def _hex(*values: complex) -> tuple[str, ...]:
    return tuple(float.hex(x) for v in values for x in (v.real, v.imag))


def _recording_steps(V):
    """V with both generated steps wrapped so that each call records its
    start point; a rejected step leaves the next call at the same start."""
    starts = []
    for name in ("_dp5", "_dop853"):
        step = getattr(V, name)

        def recorded(z, w, *rest, step=step):
            starts.append(_hex(z, w))
            return step(z, w, *rest)

        V.__dict__[name] = recorded
    return starts


@pytest.mark.parametrize("make, coeffs, s, long", [
    (make_field_v3, (1, 0), 2e-3, False),
    (make_field_nonholo, (0.6, -0.8), -4e-3, False),
    (make_field_v3, (0.3, 0.4), 2.0, True),
    (make_field_nonholo, (0, 1), 0.7, True),
    (lambda: derive_candidate_fields(make_pzw())[0], (1, 1), 0.5, True)])
def test_flow_hands_back_the_field_value_at_its_end(make, coeffs, s, long):
    # the value that the last FSAL stage computed is the compiled
    # evaluation at the end point, bit for bit, on DP5(4) and DOP853 flows
    V, q = make(), PointC2(0.9 + 0.2j, 1.1 - 0.3j)
    k1 = abs(complex(*coeffs)) * math.hypot(*(abs(v) for v in V.eval_complex(q.z, q.w)))
    assert (abs(s) * k1 >= LONG_FLOW * q.norm()) == long
    z, w, v = flows._flow(V, coeffs, s, q.z, q.w, FLOW_TIGHT, None)
    assert _hex(*v) == _hex(*V.eval_complex(z, w))
    p = integrate_flow(V, coeffs, s, q, FLOW_TIGHT)
    assert _hex(z, w) == _hex(p.z, p.w)


def test_handed_back_value_survives_rejected_steps():
    # this quadratic field's mixed flow rejects DOP853 steps; the value
    # handed back is that of the last accepted step, the one that ends it
    V, q = derive_candidate_fields(make_pzw())[0], PointC2(0.9 + 0.2j, 1.1 - 0.3j)
    starts = _recording_steps(V)
    z, w, v = flows._flow(V, (1, 1), 0.5, q.z, q.w, FLOW_TIGHT, None)
    assert any(a == b for a, b in zip(starts, starts[1:]))
    assert _hex(*v) == _hex(*V.eval_complex(z, w))


@pytest.mark.parametrize("coeffs, s", [((1, 0), 0.0), ((0, 0), 0.3)])
def test_idle_flow_hands_back_v0(coeffs, s):
    V, q = make_field_v3(), PointC2(0.9 + 0.2j, 1.1 - 0.3j)
    v0 = V.eval_complex(q.z, q.w)
    z, w, v = flows._flow(V, coeffs, s, q.z, q.w, FLOW_TIGHT, v0)
    assert z is q.z and w is q.w and v is v0


@pytest.mark.parametrize("make", [make_field_v3, make_field_nonholo,
                                  lambda: derive_candidate_fields(make_pzw())[0]])
@pytest.mark.parametrize("s1, s2", [(0.3, -0.2), (-0.05, 0.004), (0.002, 0.6)])
def test_leaf_flow_map_is_its_two_legs(make, s1, s2):
    # the second leg starts from the field value that ends the first, in
    # place of an evaluation there, and changes no bit
    V, q = make(), PointC2(0.9 + 0.2j, 1.1 - 0.3j)
    legs = integrate_flow(V, (0, 1), s2, integrate_flow(V, (1, 0), s1, q, FLOW_TIGHT),
                          FLOW_TIGHT)
    got = leaf_flow_map(make(), q, s1, s2, FLOW_TIGHT)
    assert tuple(map(float.hex, got.to_real4())) == tuple(map(float.hex, legs.to_real4()))


def test_leaf_flow_keeps_z_for_w_directed_field():
    V = VectorFieldC2(WirtingerPoly.zero(), mono(1, 1, 0, 0, 4), 2)
    q = PointC2(1, 0.3)
    for s1, s2 in ((0.2, 0.0), (0.1, -0.3), (-0.25, 0.25)):
        p = leaf_flow_map(V, q, s1, s2, FLOW_TIGHT)
        assert abs(p.z - 1) <= 1e-10


def test_leaf_flow_linear_first_integral():
    V = make_field_v3()
    for t in (0.2, -0.6):
        p = leaf_flow_map(V, PointC2(1, 1), t, 0.0, FLOW_TIGHT)
        assert abs(p.z - math.exp(-t)) <= 1e-10
        assert abs(p.z * p.w - 1) <= 1e-10


def test_trace_leaf_singleton_grid():
    q = PointC2(1, 1)
    assert trace_leaf(make_field_v3(), q, [(0.0, 0.0)]) == [q]


def test_trace_leaf_pzw_first_integral():
    # z*w is a first integral of the span of (-z wbar, w wbar)
    V1, _ = derive_candidate_fields(make_pzw())
    grid = [(s1, s2) for s1 in np.linspace(-0.1, 0.1, 5)
            for s2 in np.linspace(-0.1, 0.1, 5)]
    pts = trace_leaf(V1, PointC2(1, 1), grid, FLOW_TIGHT)
    assert len(pts) == 25
    assert max(abs(p.z * p.w - 1) for p in pts) <= 1e-8


def test_trace_leaf_z_constant_leaves():
    V = VectorFieldC2(WirtingerPoly.zero(), mono(1, 1, 0, 0, 4), 2)
    grid = [(s1, s2) for s1 in (-0.1, 0.0, 0.1) for s2 in (-0.1, 0.0, 0.1)]
    pts = trace_leaf(V, PointC2(1, 0), grid, FLOW_TIGHT)
    assert max(abs(p.z - 1) for p in pts) <= 1e-10


def test_flow_composition():
    # flowing s then t equals flowing s + t, residual <= 10 * tol
    V1, _ = derive_candidate_fields(make_pzw())
    cfg = FlowConfig(tol=1e-10)
    q = PointC2(1, 1)
    one = integrate_flow(V1, (1, 0), 0.25, q, cfg)
    two = integrate_flow(V1, (1, 0), 0.1, integrate_flow(V1, (1, 0), 0.15, q, cfg), cfg)
    assert _err(one, two) <= 10 * cfg.tol


def test_tolerance_monotonicity():
    # halving the tolerances does not increase the error on the linear field
    V = make_field_v3()
    q = PointC2(1, 1)
    want = PointC2(math.exp(-0.8), math.exp(0.8))
    errs = []
    for tol in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
        cfg = FlowConfig(tol=tol)
        errs.append(_err(integrate_flow(V, (1, 0), 0.8, q, cfg), want))
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= coarse + 1e-15


def test_step_budget_error(monkeypatch):
    monkeypatch.setattr(flows, "MAX_STEPS", 3)
    cfg = FlowConfig(max_step=0.01)
    with pytest.raises(StepBudgetError):
        integrate_flow(make_field_v3(), (1, 0), 5.0, PointC2(1, 1), cfg)


def test_rank_drop_detected():
    # (-z, 0) shrinks z to zero; the field norm crosses the threshold
    V = VectorFieldC2(mono(1, 0, 0, 0, -1), WirtingerPoly.zero(), 1)
    with pytest.raises(RankDropError):
        integrate_flow(V, (1, 0), 25.0, PointC2(1, 1), FLOW_TIGHT)


def test_given_first_stage_is_monitored():
    # a first stage handed in by the caller passes the same rank-drop
    # monitor as an evaluated one
    V = make_field_v3()
    with pytest.raises(RankDropError):
        flows._flow(V, (1, 0), 0.1, 1, 1, FLOW_TIGHT, (1e-9, -1e-9j))


def test_single_step_work_count(field_evals):
    # one DP5(4) step evaluates the field 7 times (FSAL stage included),
    # and 6 when the caller hands in the first stage (taken here from the
    # compiled evaluator, which the fixture does not count)
    V, q = make_field_v3(), PointC2(1, 1)
    integrate_flow(V, (1, 0), 1e-4, q, FLOW_TIGHT)
    assert field_evals[0] == 7
    flows._flow(V, (1, 0), 1e-4, q.z, q.w, FLOW_TIGHT, V._eval(q.z, q.w))
    assert field_evals[0] == 7 + 6


def test_long_flow_selection_boundary(field_evals, code_generations, code_compiles):
    # on (-z, w) a unit-coefficient flow has first-stage displacement
    # |s| |q0|: just below LONG_FLOW |q0| it takes one DP5(4) step (7
    # evaluations), from there on DOP853 steps (the first stage, then 12
    # per step).  Two DP5(4) steps also cost 13, so each case also names
    # the step that a fresh field built: a flow instantiates the field's
    # evaluator, its first stage and one step.  All five fields have one
    # shape, so each of the four is compiled once
    q = PointC2(0.9 + 0.2j, 1.1 - 0.3j)

    def cost(s):
        V, before = make_field_v3(), (field_evals[0], code_generations[0])
        integrate_flow(V, (1, 0), s, q, FLOW_TIGHT)
        built = [name for name in ("_dp5", "_dop853") if name in vars(V)]
        return field_evals[0] - before[0], code_generations[0] - before[1], built

    assert cost(LONG_FLOW * (1 - 1e-9)) == (7, 3, ["_dp5"])
    assert cost(-LONG_FLOW * (1 - 1e-9)) == (7, 3, ["_dp5"])
    assert cost(LONG_FLOW * (1 + 1e-9)) == (1 + 12, 3, ["_dop853"])
    assert cost(-LONG_FLOW * (1 + 1e-9)) == (1 + 12, 3, ["_dop853"])
    many, generated, built = cost(1.0)  # max_step 0.1: at least ten steps
    assert many > 1 + 12 * 9 and (many - 1) % 12 == 0 and (generated, built) == (3, ["_dop853"])
    assert code_compiles[0] == 4


@pytest.mark.parametrize("coeffs, s", [((1, 0), 0.4), ((0.6, -0.8), -0.7),
                                       ((0, 1), 1.5), ((0.3, 0.4), 2.0)])
def test_long_flow_closed_form(coeffs, s):
    # (-z, w) flows as (z0 e^(-mu s), w0 e^(mu s)), mu = a + ib; these flows
    # take the DOP853 step
    V, q = make_field_v3(), PointC2(0.9 + 0.2j, 1.1 - 0.3j)
    mu = complex(*coeffs)
    got = integrate_flow(V, coeffs, s, q, FLOW_TIGHT)
    want = PointC2(q.z * cmath.exp(-mu * s), q.w * cmath.exp(mu * s))
    assert _err(got, want) <= 1e-11 * want.norm()


def test_given_first_stage_is_monitored_on_long_flows():
    # a vanishing first stage long enough for the DOP853 step fails the
    # same monitor (the rank-drop and blow-up tests above flow on DOP853
    # steps too, so its later stages are monitored as well)
    V = make_field_v3()
    with pytest.raises(RankDropError):
        flows._flow(V, (1, 0), 1e8, 1, 1, FLOW_TIGHT, (1e-9, -1e-9j))


@pytest.mark.parametrize("s, coeffs", [(math.inf, (1, 0)), (-math.inf, (1, 0)),
                                       (math.nan, (1, 0)), (0.1, (math.nan, 0.0)),
                                       (0.1, (1.0, math.inf))])
def test_non_finite_flow_is_numeric_error(s, coeffs):
    # a non-finite time returned q0 unchanged, and a NaN coefficient ran
    # the whole step budget before failing
    with pytest.raises(NumericError, match="not finite"):
        integrate_flow(make_field_v3(), coeffs, s, PointC2(1, 1), FLOW_TIGHT)


def test_blow_up_is_numeric_error():
    # the first pzw candidate field is quadratic, and this mixed flow
    # escapes to infinity before unit time
    V = derive_candidate_fields(make_pzw())[0]
    with pytest.raises(NumericError, match="blew up"):
        integrate_flow(V, (1, 1), 1.0, PointC2(0.9 + 0.2j, 1.1 - 0.3j), FLOW_TIGHT)


@pytest.mark.parametrize("coeffs", [(1, 0), (-1, 0)])
def test_linear_blow_up_is_numeric_error(coeffs):
    # on the linear (-z, w) the state reaches inf without an OverflowError
    # (inf ** 1 is inf) and then fails the monitor, which names the blow-up
    # rather than a vanishing field
    with pytest.raises(NumericError, match="blew up") as exc:
        integrate_flow(make_field_v3(), coeffs, 800.0, PointC2(1, 1), FlowConfig(max_step=1e6))
    assert type(exc.value) is NumericError


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(tol=-1)
    with pytest.raises(ValueError):
        FlowConfig(max_step=0)


# -- bit-for-bit pins -----------------------------------------------------------

# integrate_flow(V, coeffs, s, q0, FLOW_TIGHT) as float.hex of the real view,
# keyed by (fixture, q0.to_real4(), coeffs, s); V is the fixture's field, or
# the candidate selected at its base point.  Any change to the arithmetic of
# the stepper or of the field evaluation shows up here as a diff.
#
# Short flows, first-stage displacement |s| |V(q0)| of 1e-4, 1e-3 and 5e-3
# |q0|: below LONG_FLOW, so they take the DP5(4) step.  Pinned before the
# DOP853 step existed, so they show that the DP5(4) path kept every bit.
SHORT_FLOW_GOLDENS = {
    ('pzw', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), 0.0001):
        ('0x1.fff2e48e8a71ep-1', '0x0.0p+0', '0x1.00068de3aefe5p+0', '0x0.0p+0'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), -0.001):
        ('0x1.004189374bc6ap+0', '0x0.0p+0', '0x1.ff7d0f16c2e09p-1', '0x0.0p+0'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), 0.005):
        ('0x1.fd70a3d70a3d6p-1', '0x0.0p+0', '0x1.0149539e3b2d1p+0', '0x0.0p+0'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 0.0001):
        ('0x1.ffffffaa19c48p-1', '-0x1.a36e2e82da999p-14', '0x1.0000000000000p+0', '0x1.a36e2ec938ff8p-14'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), -0.001):
        ('0x1.ffffde72117a4p-1', '0x1.0624d1bb12d62p-10', '0x1.0000000000000p+0', '-0x1.0624e2e91ebe3p-10'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 0.005):
        ('0x1.fffcb9256cbd5p-1', '-0x1.47acae915e807p-8', '0x1.0000000000000p+0', '0x1.47aec7705297ap-8'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), 0.0001):
        ('0x1.fff82284f37b2p-1', '0x1.4f86310c38fbbp-14', '0x1.0003eeb180496p+0', '-0x1.4f90801876b05p-14'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), -0.001):
        ('0x1.002747967fe62p+0', '-0x1.a3ae8fa31df21p-11', '0x1.ffb16768ab32fp-1', '0x1.a32dd1c4459c6p-11'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), 0.005):
        ('0x1.fe74b0e8e16c8p-1', '0x1.055ad29997e1ep-8', '0x1.00c5335e0a733p+0', '-0x1.06ef280deeec5p-8'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 8.77e-05):
        ('0x1.ccc21c076ee0cp-1', '0x1.998312264b9a4p-3', '0x1.19a1128e1081ap+0', '-0x1.3333333333333p-2'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), -0.000877):
        ('0x1.cd37b055d59cdp-1', '0x1.9a7b03c870b03p-3', '0x1.194ef4548f315p+0', '-0x1.3333333333333p-2'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 0.00439):
        ('0x1.cab54d38225f1p-1', '0x1.95349fdb2dc4ap-3', '0x1.1b116dd612facp+0', '-0x1.3333333333333p-2'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 8.77e-05):
        ('0x1.ccd26e78783e2p-1', '0x1.996ed61c8defep-3', '0x1.199999999999ap+0', '-0x1.33155051d6f5ep-2'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), -0.000877):
        ('0x1.cc945f0fc6d21p-1', '0x1.9b44ff363c7fap-3', '0x1.199999999999ap+0', '-0x1.345e262cc564ap-2'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 0.00439):
        ('0x1.cde4291585778p-1', '0x1.9137ad3401daep-3', '0x1.199999999999ap+0', '-0x1.2d5d19adc0edfp-2'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 8.77e-05):
        ('0x1.ccc1e1219706dp-1', '0x1.99ae49d0ee674p-3', '0x1.199e155a53267p+0', '-0x1.334b1c8c66223p-2'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), -0.000877):
        ('0x1.cd39f889e0285p-1', '0x1.98ca6bf042870p-3', '0x1.196cce070cb09p+0', '-0x1.32444ad043ad8p-2'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 0.00439):
        ('0x1.caa95f394458dp-1', '0x1.9d9e9aee3ca18p-3', '0x1.1a7ae63470cb8p+0', '-0x1.37e4cbc259929p-2'),
    ('pz4', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), 3.54e-05):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.000947a75e7e4p+0', '0x0.0p+0'),
    ('pz4', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), -0.000354):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.ff4666ec9e237p-1', '0x0.0p+0'),
    ('pz4', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), 0.00177):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.01cffeb074a77p+0', '0x0.0p+0'),
    ('pz4', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 3.54e-05):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+0', '0x1.28f4ebcfc7530p-13'),
    ('pz4', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), -0.000354):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+0', '-0x1.733226c3b927cp-10'),
    ('pz4', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 0.00177):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+0', '0x1.cffeb074a771bp-8'),
    ('pz4', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), 3.54e-05):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.000591646be55p+0', '-0x1.db21794c721e8p-14'),
    ('pz4', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), -0.000354):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.ff90a42792154p-1', '0x1.28f4ebcfc7531p-10'),
    ('pz4', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), 0.00177):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.0116659d12caep+0', '-0x1.733226c3b927ep-8'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 4.31e-05):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.19a334221b88dp+0', '-0x1.3333333333333p-2'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), -0.000431):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.193990448641dp+0', '-0x1.3333333333333p-2'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 0.00216):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.1b7ae5796bfcbp+0', '-0x1.3333333333333p-2'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 4.31e-05):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.199999999999ap+0', '-0x1.330cc9112b768p-2'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), -0.000431):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.199999999999ap+0', '-0x1.34b3588780926p-2'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 0.00216):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.199999999999ap+0', '-0x1.2bae03b3e9a6fp-2'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 4.31e-05):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.199f5cb84df5fp+0', '-0x1.3351ee819fca3p-2'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), -0.000431):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.195ffa668dfe9p+0', '-0x1.31ffe222f54d7p-2'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 0.00216):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.1aba60b97e3b7p+0', '-0x1.39375932a13d0p-2'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), 0.0001):
        ('0x1.fff2e4b97d31dp-1', '0x0.0p+0', '0x1.00068dce3484ep+0', '0x0.0p+0'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), -0.001):
        ('0x1.0041919b7ee34p+0', '0x0.0p+0', '0x1.ff7cfe56f1a9ep-1', '0x0.0p+0'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), 0.005):
        ('0x1.fd7246927d28bp-1', '0x0.0p+0', '0x1.0148802529619p+0', '0x0.0p+0'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 0.0001):
        ('0x1.ffffffd50ce24p-1', '-0x1.a36e2ea609cc7p-14', '0x1.ffffffd50ce24p-1', '0x1.a36e2ea609cc7p-14'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), -0.001):
        ('0x1.ffffef390876cp-1', '0x1.0624da5218a62p-10', '0x1.ffffef390876cp-1', '-0x1.0624da5218a62p-10'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 0.005):
        ('0x1.fffe5c920a926p-1', '-0x1.47adbb006a986p-8', '0x1.fffe5c920a926p-1', '0x1.47adbb006a986p-8'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), 0.0001):
        ('0x1.fff822afe660ap-1', '0x1.4f8631285e993p-14', '0x1.0003ee9c062dcp+0', '-0x1.4f907ffc50356p-14'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), -0.001):
        ('0x1.00274ffa6979bp+0', '-0x1.a3ae9d6241e5cp-11', '0x1.ffb156a5fe622p-1', '0x1.a32dc40959a3fp-11'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), 0.005):
        ('0x1.fe7653eac49eep-1', '0x1.055ba92205455p-8', '0x1.00c46099a8023p+0', '-0x1.06ee503a4d04ap-8'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 0.0001):
        ('0x1.ccc1010d57134p-1', '0x1.998f1d6130f4bp-3', '0x1.19a0cf2fa02bcp+0', '-0x1.333b10910bd2ap-2'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), -0.001):
        ('0x1.cd42d2e4b132ap-1', '0x1.9a028292649edp-3', '0x1.19518be304ea4p+0', '-0x1.32e4989a90ff8p-2'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 0.005):
        ('0x1.ca8072b70a3e4p-1', '0x1.978e9edb9753cp-3', '0x1.1b02f35c13eb6p+0', '-0x1.34bd6692fe752p-2'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 0.0001):
        ('0x1.cccf6bbcd63bbp-1', '0x1.996a69decad3fp-3', '0x1.199b90d2ff108p+0', '-0x1.33165d1fd2b71p-2'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), -0.001):
        ('0x1.ccb286d0b29bap-1', '0x1.9b71681d00f1dp-3', '0x1.1985e73564e5ep+0', '-0x1.345384df2c2f2p-2'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 0.005):
        ('0x1.cd4e659b09ae6p-1', '0x1.906100cc0575ap-3', '0x1.19fb00a205f08p+0', '-0x1.2d906e540482dp-2'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 0.0001):
        ('0x1.ccc39ffacd7ccp-1', '0x1.99b90e0bd9a4cp-3', '0x1.199c5a316d36dp+0', '-0x1.334efd10d3f60p-2'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), -0.001):
        ('0x1.cd288be435f7fp-1', '0x1.985ec93636ba9p-3', '0x1.197e0e2c3f763p+0', '-0x1.321d746af9e33p-2'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 0.005):
        ('0x1.cb01f3a93cf34p-1', '0x1.9fb870b0c571ep-3', '0x1.1a22bc5dc0eb5p+0', '-0x1.38a3bfb2fd557p-2'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), 0.0001):
        ('0x1.fff2e4e46e7a8p-1', '0x0.0p+0', '0x1.00068db8bac71p+0', '0x0.0p+0'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), -0.001):
        ('0x1.00419a0290042p+0', '0x0.0p+0', '0x1.ff7ced916872bp-1', '0x0.0p+0'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), 0.005):
        ('0x1.fd73e68701462p-1', '0x0.0p+0', '0x1.0147ae147ae14p+0', '0x0.0p+0'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 0.0001):
        ('0x1.0000000000000p+0', '-0x1.a36e2ec938ff8p-14', '0x1.ffffffaa19c48p-1', '0x1.a36e2e82da999p-14'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), -0.001):
        ('0x1.0000000000000p+0', '0x1.0624e2e91ebe3p-10', '0x1.ffffde72117a4p-1', '-0x1.0624d1bb12d62p-10'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 0.005):
        ('0x1.0000000000000p+0', '-0x1.47aec7705297ap-8', '0x1.fffcb9256cbd5p-1', '0x1.47acae915e807p-8'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), 0.0001):
        ('0x1.fff822dad864fp-1', '0x1.4f86314483a33p-14', '0x1.0003ee868c82cp+0', '-0x1.4f907fe02a4e2p-14'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), -0.001):
        ('0x1.002758600b653p+0', '-0x1.a3aeab24374f3p-11', '0x1.ffb145dfe3091p-1', '0x1.a32db64b9df9ep-11'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), 0.005):
        ('0x1.fe77f541c82b4p-1', '0x1.055c7ecfe32e7p-8', '0x1.00c38ead56d95p+0', '-0x1.06ed7943ec36fp-8'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 0.000108):
        ('0x1.ccc0c4cd71cc7p-1', '0x1.999999999999ap-3', '0x1.19a02eaf34a38p+0', '-0x1.334112bf26132p-2'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), -0.00108):
        ('0x1.cd453dbd199a1p-1', '0x1.999999999999ap-3', '0x1.1957c4a5a2eb0p+0', '-0x1.32a887bfe3da0p-2'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 0.00542):
        ('0x1.ca73e1e0d6421p-1', '0x1.999999999999ap-3', '0x1.1ae3c0781242fp+0', '-0x1.35ecd576fbd39p-2'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 0.000108):
        ('0x1.ccccccccccccdp-1', '0x1.996978adbcd6bp-3', '0x1.199d1149564c7p+0', '-0x1.3318de70c7a14p-2'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), -0.00108):
        ('0x1.ccccccccccccdp-1', '0x1.9b7b0021f495bp-3', '0x1.1976dab943508p+0', '-0x1.343a5cc7eb9f2p-2'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 0.00542):
        ('0x1.ccccccccccccdp-1', '0x1.902ccd306be0ap-3', '0x1.1a46094ec7e9bp+0', '-0x1.2e06763cfbb02p-2'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 0.000108):
        ('0x1.ccc594b29e340p-1', '0x1.99c01a253cc8ap-3', '0x1.199ac63617d6dp+0', '-0x1.3350967b2faebp-2'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), -0.00108):
        ('0x1.cd15062c9c1d6p-1', '0x1.9818679a9d416p-3', '0x1.198dc8b845e02p+0', '-0x1.320d5e6f660acp-2'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 0.00542):
        ('0x1.cb633ba37490ep-1', '0x1.a121f520c5840p-3', '0x1.19d2e276332fdp+0', '-0x1.38f710a8e46f8p-2')
}

# Long flows, s = 0.4 and -0.35: they take the DOP853 step.
FLOW_GOLDENS = {
    ('pzw', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), 0.4):
        ('0x1.3333333333ac2p-1', '0x0.0p+0', '0x1.aaaaaaaaaa20ap+0', '0x0.0p+0'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), -0.35):
        ('0x1.59999999998bbp+0', '0x0.0p+0', '0x1.7b425ed097bf3p-1', '0x0.0p+0'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 0.4):
        ('0x1.b25b5ef38cc22p-1', '-0x1.6f494c2bffe92p-2', '0x1.0000000000000p+0', '0x1.b0f0b49dce0abp-2'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), -0.35):
        ('0x1.c3ccb294fce8ep-1', '0x1.49d6e694619d4p-2', '0x1.0000000000000p+0', '-0x1.75ca079d9e9dep-2'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), 0.4):
        ('0x1.5aaccc18e53b6p-1', '0x1.cb89a50101e34p-3', '0x1.54abccc3e54cep+0', '-0x1.c3944414c6ef7p-2'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), -0.35):
        ('0x1.1f71499824fd7p+0', '-0x1.4a9f12268e5dfp-2', '0x1.a52b1c73f8123p-1', '0x1.e46f68402a495p-3'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 0.4):
        ('0x1.042cb5b3b58e6p-1', '0x1.9c13a062ae21fp-5', '0x1.04af8b845066bp+1', '-0x1.3333333333333p-2'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), -0.35):
        ('0x1.34861d50f63abp+0', '0x1.9dff55751de8ap-2', '0x1.8a8ccd0c476cbp-1', '-0x1.3333333333333p-2'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 0.4):
        ('0x1.d628982f706e7p-1', '-0x1.a72cf00359de7p-3', '0x1.199999999999ap+0', '0x1.8b680370f86dfp-3'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), -0.35):
        ('0x1.405c629ffee28p-1', '0x1.b9cd135770f32p-2', '0x1.199999999999ap+0', '-0x1.ad42c6f66f15fp-1'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 0.4):
        ('0x1.f63a019b41113p-2', '0x1.11801169e5790p-2', '0x1.9bbdfba1c8d12p+0', '-0x1.f4a549af6cd84p-1'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), -0.35):
        ('0x1.2e78dc8b1ba29p+0', '-0x1.fdd70d8ba66bcp-6', '0x1.c741e8c5498b1p-1', '-0x1.35a6cb8c41d6cp-6'),
    ('pz4', (1.0, 0.0, 0.0, 0.0), (1.0, 0.0), 0.4):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.999999999999dp+0', '0x0.0p+0'),
    ('pz4', (1.0, 0.0, 0.0, 0.0), (1.0, 0.0), -0.35):
        ('0x1.0000000000000p+0', '0x0.0p+0', '-0x1.6666666666668p+0', '0x0.0p+0'),
    ('pz4', (1.0, 0.0, 0.0, 0.0), (0.0, 1.0), 0.4):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x1.999999999999dp+0'),
    ('pz4', (1.0, 0.0, 0.0, 0.0), (0.0, 1.0), -0.35):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '-0x1.6666666666668p+0'),
    ('pz4', (1.0, 0.0, 0.0, 0.0), (0.6, -0.8), 0.4):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.eb851eb851eb8p-1', '-0x1.47ae147ae1480p+0'),
    ('pz4', (1.0, 0.0, 0.0, 0.0), (0.6, -0.8), -0.35):
        ('0x1.0000000000000p+0', '0x0.0p+0', '-0x1.ae147ae147ae0p-1', '0x1.1eb851eb851efp+0'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 0.4):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.3ae147ae147adp+1', '-0x1.3333333333333p-2'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), -0.35):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '-0x1.70a3d70a3d6dap-4', '-0x1.3333333333333p-2'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 0.4):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.199999999999ap+0', '0x1.0f5c28f5c28f4p+0'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), -0.35):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.199999999999ap+0', '-0x1.7d70a3d70a3d4p+0'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 0.4):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.ea7ef9db22d0ep+0', '-0x1.6353f7ced916cp+0'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), -0.35):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.8b43958106253p-2', '0x1.4dd2f1a9fbe7bp-1'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), 0.4):
        ('0x1.57343067270f0p-1', '0x0.0p+0', '0x1.7de8392fbbfdep+0', '0x0.0p+0'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), -0.35):
        ('0x1.6b4802c805debp+0', '0x0.0p+0', '0x1.68cce09671f74p-1', '0x0.0p+0'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 0.4):
        ('0x1.d7954e7dba2f9p-1', '-0x1.8ec3ae92b6764p-2', '0x1.d7954e7dba2f9p-1', '0x1.8ec3ae92b6764p-2'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), -0.35):
        ('0x1.e0f575d0de5b8p-1', '0x1.5f209a5390a84p-2', '0x1.e0f575d0de5b8p-1', '-0x1.5f209a5390a84p-2'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), 0.4):
        ('0x1.7e4ecf7e73047p-1', '0x1.fac56614a33bcp-3', '0x1.34eb417c629d2p+0', '-0x1.997d699422c30p-2'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), -0.35):
        ('0x1.2f85a5153170bp+0', '-0x1.5d1dc6c0e5758p-2', '0x1.8edb3cbf2fa77p-1', '0x1.cac582d6e9d2fp-3'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 0.4):
        ('0x1.34e22b90098d8p-1', '0x1.129026b8ec0bfp-3', '0x1.a4190bb481fdap+0', '-0x1.ca49de3947fd5p-2'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), -0.35):
        ('0x1.46f40280d2154p+0', '0x1.22a002399e4bcp-2', '0x1.8ce15d724a298p-1', '-0x1.b0f5da4e225bdp-3'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 0.4):
        ('0x1.d04d24e639d03p-1', '-0x1.548261d6b37b4p-3', '0x1.214731dcf4164p+0', '0x1.3761bb78b1feap-3'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), -0.35):
        ('0x1.8dc00dcd39a7fp-1', '0x1.fc65ed385b22ap-2', '0x1.dc62b73f9ee51p-1', '-0x1.51685e9fd244dp-1'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 0.4):
        ('0x1.3ebd0f3d928dbp-1', '0x1.7cf85a88aaa93p-2', '0x1.3519601db6ab1p+0', '-0x1.9a92215c1b166p-1'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), -0.35):
        ('0x1.22a02b4feb2b5p+0', '-0x1.1d8c54d9023dcp-4', '0x1.d9265fd59f8e6p-1', '0x1.a0560a094d260p-7'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), 0.4):
        ('0x1.6db6db6db6e69p-1', '0x0.0p+0', '0x1.6666666666574p+0', '0x0.0p+0'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), -0.35):
        ('0x1.89d89d89d8380p+0', '0x0.0p+0', '0x1.4ccccccccd360p-1', '0x0.0p+0'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 0.4):
        ('0x1.0000000000000p+0', '-0x1.b0f0b49dce0abp-2', '0x1.b25b5ef38cc22p-1', '0x1.6f494c2bffe92p-2'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), -0.35):
        ('0x1.0000000000000p+0', '0x1.75ca079d9e9dep-2', '0x1.c3ccb294fce8ep-1', '-0x1.49d6e694619d4p-2'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), 0.4):
        ('0x1.9a140b5061cc9p-1', '0x1.0fca8c7efb33bp-2', '0x1.1fffbfbbed127p+0', '-0x1.7dc2612762196p-2'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), -0.35):
        ('0x1.4664367c25184p+0', '-0x1.776bcd40c5d64p-2', '0x1.72e8d8d20dfa9p-1', '0x1.aaa06854243bap-3'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 0.4):
        ('0x1.4c994be3f2382p-1', '0x1.999999999999ap-3', '0x1.746bb133cda68p+0', '-0x1.0cbaa11fc29e5p-1'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), -0.35):
        ('0x1.55d92ac8ea06ep+0', '0x1.999999999999ap-3', '0x1.86f38b9e37985p-1', '-0x1.36e6d8da5fb64p-3'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 0.4):
        ('0x1.ccccccccccccdp-1', '-0x1.063ff4c68f470p-3', '0x1.26b9553257dc4p+0', '0x1.bb603ce610cc6p-4'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), -0.35):
        ('0x1.ccccccccccccdp-1', '0x1.10443a09d9941p-1', '0x1.ae4d9dd752836p-1', '-0x1.1ab1150b232c1p-1'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 0.4):
        ('0x1.6f0c259ffb3b8p-1', '0x1.c6ce8a99a6503p-2', '0x1.06f52ab03f389p+0', '-0x1.698a1b2a80509p-1'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), -0.35):
        ('0x1.1cedb1b48d94fp+0', '-0x1.5813135010ac7p-4', '0x1.e20221e418e91p-1', '0x1.ac1a06e70e0f2p-6')
}

# FLOW_GOLDENS as the DP5(4) step computed them, before long flows took the
# DOP853 step: an independent reference for the accuracy of the new pins.
FLOW_GOLDENS_DP5 = {
    ('pzw', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), 0.4):
        ('0x1.33333333325b9p-1', '0x0.0p+0', '0x1.aaaaaaaaab676p+0', '0x0.0p+0'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), -0.35):
        ('0x1.5999999999514p+0', '0x0.0p+0', '0x1.7b425ed098177p-1', '0x0.0p+0'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 0.4):
        ('0x1.b25b5ef38cb8ep-1', '-0x1.6f494c2bff766p-2', '0x1.0000000000000p+0', '0x1.b0f0b49dcdb5fp-2'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), -0.35):
        ('0x1.c3ccb294fcde5p-1', '0x1.49d6e694612d8p-2', '0x1.0000000000000p+0', '-0x1.75ca079d9e71dp-2'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), 0.4):
        ('0x1.5aaccc18e43a9p-1', '0x1.cb89a5010186dp-3', '0x1.54abccc3e54afp+0', '-0x1.c3944414c6e54p-2'),
    ('pzw', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), -0.35):
        ('0x1.1f71499824e0dp+0', '-0x1.4a9f12268de4fp-2', '0x1.a52b1c73f812cp-1', '0x1.e46f68402a46dp-3'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 0.4):
        ('0x1.042cb5b3b4423p-1', '0x1.9c13a062abfdfp-5', '0x1.04af8b8451421p+1', '-0x1.3333333333333p-2'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), -0.35):
        ('0x1.34861d50f5f87p+0', '0x1.9dff55751dae5p-2', '0x1.8a8ccd0c47c8cp-1', '-0x1.3333333333333p-2'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 0.4):
        ('0x1.d628982f702eap-1', '-0x1.a72cf003596a3p-3', '0x1.199999999999ap+0', '0x1.8b680370f7dffp-3'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), -0.35):
        ('0x1.405c629ffe9f9p-1', '0x1.b9cd135770d76p-2', '0x1.199999999999ap+0', '-0x1.ad42c6f66e64ep-1'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 0.4):
        ('0x1.f63a019b3f0e8p-2', '0x1.11801169e4911p-2', '0x1.9bbdfba1c936ap+0', '-0x1.f4a549af6de73p-1'),
    ('pzw', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), -0.35):
        ('0x1.2e78dc8b1b488p+0', '-0x1.fdd70d8ba028ep-6', '0x1.c741e8c549a68p-1', '-0x1.35a6cb8c4663dp-6'),
    ('pz4', (1.0, 0.0, 0.0, 0.0), (1.0, 0.0), 0.4):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.9999999999998p+0', '0x0.0p+0'),
    ('pz4', (1.0, 0.0, 0.0, 0.0), (1.0, 0.0), -0.35):
        ('0x1.0000000000000p+0', '0x0.0p+0', '-0x1.6666666666665p+0', '0x0.0p+0'),
    ('pz4', (1.0, 0.0, 0.0, 0.0), (0.0, 1.0), 0.4):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x1.9999999999998p+0'),
    ('pz4', (1.0, 0.0, 0.0, 0.0), (0.0, 1.0), -0.35):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '-0x1.6666666666665p+0'),
    ('pz4', (1.0, 0.0, 0.0, 0.0), (0.6, -0.8), 0.4):
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.eb851eb851eb6p-1', '-0x1.47ae147ae147bp+0'),
    ('pz4', (1.0, 0.0, 0.0, 0.0), (0.6, -0.8), -0.35):
        ('0x1.0000000000000p+0', '0x0.0p+0', '-0x1.ae147ae147adfp-1', '0x1.1eb851eb851ecp+0'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 0.4):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.3ae147ae147aep+1', '-0x1.3333333333333p-2'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), -0.35):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '-0x1.70a3d70a3d710p-4', '-0x1.3333333333333p-2'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 0.4):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.199999999999ap+0', '0x1.0f5c28f5c28f7p+0'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), -0.35):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.199999999999ap+0', '-0x1.7d70a3d70a3d7p+0'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 0.4):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.ea7ef9db22d0ep+0', '-0x1.6353f7ced9169p+0'),
    ('pz4', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), -0.35):
        ('0x1.ccccccccccccdp-1', '0x1.999999999999ap-3', '0x1.8b43958106253p-2', '0x1.4dd2f1a9fbe78p-1'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), 0.4):
        ('0x1.5734306727652p-1', '0x0.0p+0', '0x1.7de8392fbc583p+0', '0x0.0p+0'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), -0.35):
        ('0x1.6b4802c806289p+0', '0x0.0p+0', '0x1.68cce0967244fp-1', '0x0.0p+0'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 0.4):
        ('0x1.d7954e7db9ea3p-1', '-0x1.8ec3ae92b640ap-2', '0x1.d7954e7db9ea3p-1', '0x1.8ec3ae92b640ap-2'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), -0.35):
        ('0x1.e0f575d0de1fbp-1', '0x1.5f209a539080ep-2', '0x1.e0f575d0de1fbp-1', '-0x1.5f209a539080ep-2'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), 0.4):
        ('0x1.7e4ecf7e73221p-1', '0x1.fac56614a3fd1p-3', '0x1.34eb417c62c5bp+0', '-0x1.997d6994227aap-2'),
    ('field_v3', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), -0.35):
        ('0x1.2f85a5153191bp+0', '-0x1.5d1dc6c0e533fp-2', '0x1.8edb3cbf2fc34p-1', '0x1.cac582d6ea790p-3'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 0.4):
        ('0x1.34e22b9009d3bp-1', '0x1.129026b8ec4a7p-3', '0x1.a4190bb48257bp+0', '-0x1.ca49de39485fep-2'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), -0.35):
        ('0x1.46f40280d2534p+0', '0x1.22a002399e82ep-2', '0x1.8ce15d724a796p-1', '-0x1.b0f5da4e22b2dp-3'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 0.4):
        ('0x1.d04d24e63991cp-1', '-0x1.548261d6b355ep-3', '0x1.214731dcf3ef6p+0', '0x1.3761bb78b1de6p-3'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), -0.35):
        ('0x1.8dc00dcd396b6p-1', '0x1.fc65ed385ada7p-2', '0x1.dc62b73f9e9c9p-1', '-0x1.51685e9fd214ep-1'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 0.4):
        ('0x1.3ebd0f3d92a2dp-1', '0x1.7cf85a88ab21bp-2', '0x1.3519601db6e78p+0', '-0x1.9a92215c1b032p-1'),
    ('field_v3', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), -0.35):
        ('0x1.22a02b4feb454p+0', '-0x1.1d8c54d900ed4p-4', '0x1.d9265fd59fb93p-1', '0x1.a0560a09565a7p-7'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), 0.4):
        ('0x1.6db6db6db7458p-1', '0x0.0p+0', '0x1.666666666613cp+0', '0x0.0p+0'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (1.0, 0.0), -0.35):
        ('0x1.89d89d89d9294p+0', '0x0.0p+0', '0x1.4ccccccccc0e5p-1', '0x0.0p+0'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 0.4):
        ('0x1.0000000000000p+0', '-0x1.b0f0b49dcdb62p-2', '0x1.b25b5ef38cb90p-1', '0x1.6f494c2bff768p-2'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), -0.35):
        ('0x1.0000000000000p+0', '0x1.75ca079d9e71fp-2', '0x1.c3ccb294fcde7p-1', '-0x1.49d6e694612dap-2'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), 0.4):
        ('0x1.9a140b5061cd4p-1', '0x1.0fca8c7efb321p-2', '0x1.1fffbfbbecf4ap+0', '-0x1.7dc2612761971p-2'),
    ('field_nonholo', (1.0, 0.0, 1.0, 0.0), (0.6, -0.8), -0.35):
        ('0x1.4664367c2511cp+0', '-0x1.776bcd40c5b44p-2', '0x1.72e8d8d20d1d7p-1', '0x1.aaa0685424208p-3'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), 0.4):
        ('0x1.4c994be3f27d2p-1', '0x1.999999999999ap-3', '0x1.746bb133cd63ep+0', '-0x1.0cbaa11fc27edp-1'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (1.0, 0.0), -0.35):
        ('0x1.55d92ac8eaabap+0', '0x1.999999999999ap-3', '0x1.86f38b9e36765p-1', '-0x1.36e6d8da5ecbdp-3'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), 0.4):
        ('0x1.ccccccccccccdp-1', '-0x1.063ff4c68f2d6p-3', '0x1.26b9553257bd1p+0', '0x1.bb603ce6108f0p-4'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (0.0, 1.0), -0.35):
        ('0x1.ccccccccccccdp-1', '0x1.10443a09d967cp-1', '0x1.ae4d9dd7527d9p-1', '-0x1.1ab1150b23164p-1'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), 0.4):
        ('0x1.6f0c259ffb3cbp-1', '0x1.c6ce8a99a64d0p-2', '0x1.06f52ab03f25cp+0', '-0x1.698a1b2a8044ap-1'),
    ('field_nonholo', (0.9, 0.2, 1.1, -0.3), (0.6, -0.8), -0.35):
        ('0x1.1cedb1b48d7eap+0', '-0x1.581313500ecfdp-4', '0x1.e20221e418827p-1', '0x1.ac1a06e7130f9p-6')
}


def _fixture_field(name):
    fx = load_fixture(FIXTURE_DIR / f"{name}.json")
    return fx.field if fx.field is not None else select_field(fx.polynomial, fx.point)


@pytest.mark.parametrize("name", ["pzw", "pz4", "field_v3", "field_nonholo"])
def test_flow_goldens_bit_for_bit(name):
    V = _fixture_field(name)
    for goldens, count in ((SHORT_FLOW_GOLDENS, 18), (FLOW_GOLDENS, 12)):
        cases = {key[1:]: want for key, want in goldens.items() if key[0] == name}
        assert len(cases) == count
        for (q4, coeffs, s), want in cases.items():
            q0 = PointC2.from_real4(q4)
            got = integrate_flow(V, coeffs, s, q0, FLOW_TIGHT)
            assert tuple(float.hex(v) for v in got.to_real4()) == want, (q4, coeffs, s)
            # the field value at q0, when the caller holds it, is the first
            # stage in place of an evaluation and changes no bit
            z, w, _ = flows._flow(V, coeffs, s, q0.z, q0.w, FLOW_TIGHT,
                                  V.eval_complex(q0.z, q0.w))
            given = (z.real, z.imag, w.real, w.imag)
            assert tuple(float.hex(v) for v in given) == want, (q4, coeffs, s)


def test_long_flow_goldens_match_dp5_reference():
    # the two steps agree far inside the 1e-12 tolerances of the flows
    assert FLOW_GOLDENS.keys() == FLOW_GOLDENS_DP5.keys()
    for key, want in FLOW_GOLDENS_DP5.items():
        ref = [float.fromhex(v) for v in want]
        got = [float.fromhex(v) for v in FLOW_GOLDENS[key]]
        assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-11 * math.hypot(*ref), key
