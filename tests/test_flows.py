"""Flow integration against closed forms, first integrals, and the error
control contract."""

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
    # flowing s then t equals flowing s + t, residual <= 10 * abs_tol
    V1, _ = derive_candidate_fields(make_pzw())
    cfg = FlowConfig(abs_tol=1e-10, rel_tol=1e-10)
    q = PointC2(1, 1)
    one = integrate_flow(V1, (1, 0), 0.25, q, cfg)
    two = integrate_flow(V1, (1, 0), 0.1, integrate_flow(V1, (1, 0), 0.15, q, cfg), cfg)
    assert _err(one, two) <= 10 * cfg.abs_tol


def test_tolerance_monotonicity():
    # halving the tolerances does not increase the error on the linear field
    V = make_field_v3()
    q = PointC2(1, 1)
    want = PointC2(math.exp(-0.8), math.exp(0.8))
    errs = []
    for tol in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
        cfg = FlowConfig(abs_tol=tol, rel_tol=tol)
        errs.append(_err(integrate_flow(V, (1, 0), 0.8, q, cfg), want))
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= coarse + 1e-15


def test_step_budget_error():
    cfg = FlowConfig(abs_tol=1e-12, rel_tol=1e-12, max_step=0.01, max_steps=3)
    with pytest.raises(StepBudgetError):
        integrate_flow(make_field_v3(), (1, 0), 5.0, PointC2(1, 1), cfg)


def test_rank_drop_detected():
    # (-z, 0) shrinks z to zero; the field norm crosses the threshold
    V = VectorFieldC2(mono(1, 0, 0, 0, -1), WirtingerPoly.zero(), 1)
    with pytest.raises(RankDropError):
        integrate_flow(V, (1, 0), 25.0, PointC2(1, 1), FLOW_TIGHT)


def test_blow_up_is_numeric_error():
    # the first pzw candidate field is quadratic, and this mixed flow
    # escapes to infinity before unit time
    V = derive_candidate_fields(make_pzw())[0]
    with pytest.raises(NumericError, match="blew up"):
        integrate_flow(V, (1, 1), 1.0, PointC2(0.9 + 0.2j, 1.1 - 0.3j), FLOW_TIGHT)


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(abs_tol=-1)
    with pytest.raises(ValueError):
        FlowConfig(max_steps=0)


# -- bit-for-bit pins -----------------------------------------------------------

# integrate_flow(V, coeffs, s, q0, FLOW_TIGHT) as float.hex of the real view,
# keyed by (fixture, q0.to_real4(), coeffs, s); V is the fixture's field, or
# the candidate selected at its base point.  Any change to the arithmetic of
# the stepper or of the field evaluation shows up here as a diff.
FLOW_GOLDENS = {
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
    cases = {key[1:]: want for key, want in FLOW_GOLDENS.items() if key[0] == name}
    assert len(cases) == 12
    for (q4, coeffs, s), want in cases.items():
        got = integrate_flow(V, coeffs, s, PointC2.from_real4(q4), FLOW_TIGHT)
        assert tuple(float.hex(v) for v in got.to_real4()) == want, (q4, coeffs, s)
