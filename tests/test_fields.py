"""Vector fields: candidate derivation, selection, and the admissibility
checks (annihilation, bracket, involutivity, transversality, homogeneity)."""

import dis
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leafgauge import (
    AssumptionError,
    NumericError,
    PointC2,
    VectorFieldC2,
    WirtingerPoly,
    annihilation_check,
    bracket_span_residual,
    complex_hessian,
    derive_candidate_fields,
    field_eval,
    homogeneity_check_field,
    involutivity_check,
    levi_determinant,
    lie_bracket_real,
    poly_diff,
    poly_eval,
    select_field,
    transversality_check,
)
from leafgauge import fields
from leafgauge.fields import real_views
from conftest import make_ball, make_field_bad, make_field_nonholo, make_field_v3, make_pz4, make_pzw


def mono(a, b, c, d, re=1, im=0):
    return WirtingerPoly.monomial(a, b, c, d, re, im)


def test_point_real4_round_trip():
    q = PointC2(0.1 - 0.7j, -2.5 + 1e-9j)
    assert PointC2.from_real4(q.to_real4()) == q


def test_field_eval_pzw_candidate():
    V1, _ = derive_candidate_fields(make_pzw())
    v = field_eval(V1, PointC2(1, 1))
    assert (v.z, v.w) == (-1, 1)


def test_field_eval_pz4_candidate():
    V1, _ = derive_candidate_fields(make_pz4())
    v = field_eval(V1, PointC2(1, 0))
    assert (v.z, v.w) == (0, 4)


def test_field_eval_origin_vanishes():
    for V in (make_field_v3(), make_field_nonholo()):
        v = field_eval(V, PointC2(0, 0))
        assert (v.z, v.w) == (0, 0)


# -- candidate derivation -----------------------------------------------------

def test_candidates_pzw():
    V1, V2 = derive_candidate_fields(make_pzw())
    assert V1.comp_z == mono(1, 0, 0, 1, -1) and V1.comp_w == mono(0, 0, 1, 1)
    assert V2.comp_z == mono(1, 1, 0, 0, -1) and V2.comp_w == mono(0, 1, 1, 0)
    assert V1.degree == V2.degree == 2


def test_candidates_pz4():
    V1, V2 = derive_candidate_fields(make_pz4())
    assert V1.comp_z.is_zero and V1.comp_w == mono(1, 1, 0, 0, 4)
    assert V2.comp_z.is_zero and V2.comp_w.is_zero


def test_candidates_ball():
    V1, V2 = derive_candidate_fields(make_ball())
    assert V1.comp_z.is_zero and V1.comp_w == WirtingerPoly.constant(1)
    assert V2.comp_z == WirtingerPoly.constant(-1) and V2.comp_w.is_zero
    assert V1.degree == 0


@pytest.mark.parametrize("P, match", [
    (mono(2, 1, 0, 0), "real-valued"),                        # z^2 zbar
    (mono(2, 2, 0, 0) + mono(0, 0, 1, 1), "homogeneous"),     # |z|^4 + |w|^2
    (WirtingerPoly.zero(), "homogeneous"),
    (mono(1, 0, 0, 0) + mono(0, 1, 0, 0), "homogeneous"),     # z + zbar, degree 1
])
def test_candidates_need_a_real_homogeneous_polynomial(P, match):
    # a hypothesis on the input, as check-poly reports it, not a ValueError
    with pytest.raises(AssumptionError, match=match):
        derive_candidate_fields(P)


def test_annihilation_needs_a_real_polynomial():
    with pytest.raises(AssumptionError, match="real-valued"):
        annihilation_check(mono(2, 1, 0, 0), make_field_v3())


# -- selection -----------------------------------------------------------------

def test_select_pz4_takes_first():
    V = select_field(make_pz4(), PointC2(1, 0))
    assert V.comp_w == mono(1, 1, 0, 0, 4)


def test_select_pzw_tie_break_prefers_first():
    V = select_field(make_pzw(), PointC2(1, 1))
    assert V.comp_z == mono(1, 0, 0, 1, -1)


def test_select_fails_where_hessian_vanishes():
    with pytest.raises(AssumptionError, match="Hessian vanishes at base point: larger candidate "
                                              "norm 0.000e[+]00, threshold 1.000e-08"):
        select_field(make_pz4(), PointC2(0, 1))


# -- annihilation --------------------------------------------------------------

def test_annihilation_pzw():
    V1, _ = derive_candidate_fields(make_pzw())
    assert annihilation_check(make_pzw(), V1)


def test_annihilation_pz4():
    V = VectorFieldC2(WirtingerPoly.zero(), mono(1, 1, 0, 0, 4), 2)
    assert annihilation_check(make_pz4(), V)


def test_annihilation_fails_for_ball():
    V = VectorFieldC2(WirtingerPoly.zero(), WirtingerPoly.constant(1), 0)
    assert not annihilation_check(make_ball(), V)


small = st.fractions(-3, 3, max_denominator=6)


@st.composite
def real_homogeneous_polys(draw):
    """Real P homogeneous of degree 2k: |f|^2 for a holomorphic f of degree
    k (Levi determinant zero), or (|z|^2 + |w|^2)^k + p + conj(p) for a
    random p (Levi determinant mostly nonzero)."""
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        f = WirtingerPoly([((j, 0, k - j, 0), (draw(small), draw(small)))
                           for j in range(k + 1)])
        P = f * f.conjugate()
    else:
        terms = []
        for _ in range(draw(st.integers(0, 3))):
            a, b, c = (draw(st.integers(0, 2 * k)) for _ in range(3))
            assume(a + b + c <= 2 * k)
            terms.append(((a, b, c, 2 * k - a - b - c), (draw(small), draw(small))))
        ball = make_ball()
        for _ in range(k - 1):
            ball = ball * make_ball()
        p = WirtingerPoly(terms)
        P = ball + p + p.conjugate()
    assume(not P.is_zero)
    return P


def _matvec_verdict(P, V):
    # the full exact product H.V, formed here term by term
    (h00, h01), (h10, h11) = complex_hessian(P).entries
    return (h00 * V.comp_z + h01 * V.comp_w).is_zero and \
        (h10 * V.comp_z + h11 * V.comp_w).is_zero


@given(real_homogeneous_polys(), small, small)
@example(make_ball(), Fraction(1), Fraction(0))
@settings(max_examples=60, deadline=None)
def test_annihilation_of_a_candidate_is_the_levi_verdict(P, re, im):
    # H.V1 = (0, det H) and H.V2 = (-det H, 0) term by term, so a
    # candidate annihilates the Hessian exactly when det H is zero.  Every
    # verdict is also that of the full product: for the candidates, for
    # their multiples, a combination and a swap, which are no candidates.
    # The ball is Levi-nondegenerate: each of its verdicts is False
    V1, V2 = derive_candidate_fields(P)
    swapped = VectorFieldC2(V1.comp_w, V1.comp_z, V1.degree)
    others = [VectorFieldC2(V.comp_z.scale(2), V.comp_w.scale(2), V.degree) for V in (V1, V2)]
    others += [VectorFieldC2(V1.comp_z + V2.comp_z.scale(re, im),
                             V1.comp_w + V2.comp_w.scale(re, im), V1.degree), swapped]
    verdicts = [annihilation_check(P, V) for V in (V1, V2, *others)]
    assert verdicts[:2] == [levi_determinant(P).is_zero] * 2
    assert verdicts == [_matvec_verdict(P, V) for V in (V1, V2, *others)]
    if P == make_ball():
        assert verdicts == [False] * 6


# -- Lie bracket ---------------------------------------------------------------

def test_bracket_vanishes_pz4_field():
    V = VectorFieldC2(WirtingerPoly.zero(), mono(1, 1, 0, 0, 4), 2)
    br = lie_bracket_real(V, PointC2(1, 0.2))
    assert np.allclose(br, 0, atol=1e-14)


def test_bracket_vanishes_linear_field():
    # the real matrices of (-z, w) and i(-z, w) commute
    br = lie_bracket_real(make_field_v3(), PointC2(1, 1))
    assert np.allclose(br, 0, atol=1e-14)


def test_bracket_constant_zbar_field():
    br = lie_bracket_real(make_field_bad(), PointC2(0, 1))
    assert np.allclose(br, [0, 0, 0, 2], atol=1e-14)


def _fd_jacobians(V, p, h=1e-6):
    p4 = np.array(p.to_real4())
    DX1 = np.zeros((4, 4))
    DX2 = np.zeros((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        up1, up2 = np.asarray(real_views(V, PointC2.from_real4(p4 + e)))
        dn1, dn2 = np.asarray(real_views(V, PointC2.from_real4(p4 - e)))
        DX1[:, j] = (up1 - dn1) / (2 * h)
        DX2[:, j] = (up2 - dn2) / (2 * h)
    return DX1, DX2


def test_bracket_matches_fd_oracle():
    # independent oracle: Jacobians by central differences instead of
    # symbolic differentiation
    rng = np.random.default_rng(11)
    V = make_field_nonholo()
    for _ in range(5):
        p = PointC2(complex(*(1 + 0.2 * rng.standard_normal(2))),
                    complex(*(1 + 0.2 * rng.standard_normal(2))))
        X1, X2 = real_views(V, p)
        DX1, DX2 = _fd_jacobians(V, p)
        fd = DX2 @ X1 - DX1 @ X2
        assert np.allclose(lie_bracket_real(V, p), fd, atol=5e-6)


def test_bracket_antisymmetric_under_swap():
    # [X2, X1] built from the same Jacobian data is the exact negation
    V = make_field_nonholo()
    p = PointC2(1.1 + 0.2j, 0.9 - 0.1j)
    X1, X2 = real_views(V, p)
    DX1, DX2 = _fd_jacobians(V, p)
    forward = DX2 @ X1 - DX1 @ X2
    swapped = DX1 @ X2 - DX2 @ X1
    assert np.array_equal(swapped, -forward)


# -- involutivity ----------------------------------------------------------------

def _near(base, n=20, seed=3, spread=0.1):
    rng = np.random.default_rng(seed)
    base4 = np.array(base.to_real4())
    return [PointC2.from_real4(base4 + spread * rng.standard_normal(4))
            for _ in range(n)]


def test_involutivity_pzw_field_passes():
    V1, _ = derive_candidate_fields(make_pzw())
    res = involutivity_check(V1, _near(PointC2(1, 1)), 1e-8)
    assert res.passed and res.residual <= 1e-10


def test_involutivity_pz4_field_passes():
    V = VectorFieldC2(WirtingerPoly.zero(), mono(1, 1, 0, 0, 4), 2)
    res = involutivity_check(V, _near(PointC2(1, 0.3)), 1e-8)
    assert res.passed


def test_involutivity_bad_field_fails():
    res = involutivity_check(make_field_bad(), [PointC2(0, 1)], 1e-8)
    assert not res.passed
    # the bracket sticks out of the span with norm exactly 2
    assert bracket_span_residual(make_field_bad(), PointC2(0, 1)) == pytest.approx(2, abs=1e-9)


def _svd_ratio_and_residual(V, p):
    """numpy's reference for one sample: the singular value ratio of
    [X1 | X2 | br] and the norm of br off the QR span of X1, X2."""
    X1, X2 = np.asarray(real_views(V, p))
    br = np.asarray(lie_bracket_real(V, p))
    sv = np.linalg.svd(np.column_stack([X1, X2, br]), compute_uv=False)
    Q, _ = np.linalg.qr(np.column_stack([X1, X2]))
    return sv[-1] / sv[0], np.linalg.norm(br - Q @ (Q.T @ br))


def _random_field(rng, degree=2):
    """A random non-holomorphic polynomial field with small rational
    coefficients, generically not involutive."""
    def comp():
        terms = {}
        for _ in range(3):
            a, b, c = (int(v) for v in rng.integers(0, degree + 1, 3))
            if a + b + c <= degree:
                terms[(a, b, c, degree - a - b - c)] = (Fraction(int(rng.integers(-3, 4)), 2),
                                                        Fraction(int(rng.integers(-3, 4)), 3))
        return WirtingerPoly(terms)
    return VectorFieldC2(comp(), comp(), degree)


def test_closed_form_singular_values_match_numpy():
    # non-involutive 4x3 cases: the closed-form ratio and bracket residual
    # agree with numpy's SVD and QR to 1e-12 relative
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(40):
        V = _random_field(rng)
        for p in _near(PointC2(0.8 + 0.3j, -0.6 + 0.7j), n=5, seed=int(rng.integers(99))):
            if np.linalg.norm(real_views(V, p)[0]) < 1e-3:
                continue
            ratio, resid = _svd_ratio_and_residual(V, p)
            if ratio < 1e-6:
                continue
            assert involutivity_check(V, [p]).residual == pytest.approx(ratio, rel=1e-12)
            assert bracket_span_residual(V, p) == pytest.approx(resid, rel=1e-12)
            checked += 1
    assert checked >= 100


def test_bracket_span_residual_at_a_zero_of_the_field():
    # X1 = X2 = 0 there, so the bracket vanishes too: a residual of 0, not
    # a division by |X1|^2 = 0
    V = VectorFieldC2(mono(1, 0, 0, 0), mono(0, 0, 2, 0), 2)
    assert bracket_span_residual(V, PointC2(0, 0)) == 0.0


def test_closed_form_singular_values_stay_at_noise_on_involutive_fields():
    V1, _ = derive_candidate_fields(make_pzw())
    for V, base in ((V1, PointC2(1, 1)), (make_field_v3(), PointC2(1, 1)),
                    (make_field_nonholo(), PointC2(1, 1)), (make_field_v3(), PointC2(1e3, 2e3))):
        for p in _near(base, spread=0.1 * base.norm()):
            ratio, _ = _svd_ratio_and_residual(V, p)
            assert involutivity_check(V, [p]).residual <= 1e-14
            assert ratio <= 1e-14


@pytest.mark.parametrize("make", [lambda: derive_candidate_fields(make_pzw())[0],
                                  make_field_nonholo], ids=["pzw", "field_nonholo"])
def test_involutivity_overflow_is_numeric_error(make):
    # the rank test overflows at 1e44 (1, 1): a numeric failure, not a
    # failed rank test with the ratio inf
    with pytest.raises(NumericError, match="overflows a float"):
        involutivity_check(make(), [PointC2(1e44, 1e44)])


# -- transversality ---------------------------------------------------------------

def test_transversality_overflow_is_numeric_error():
    # det[p | V(p)] = 2zw overflows; inf > inf would read as a false failure
    with pytest.raises(NumericError, match="overflows a float"):
        transversality_check(make_field_v3(), PointC2(1e300, 1e300))


def test_transversality_pz4():
    V = VectorFieldC2(WirtingerPoly.zero(), mono(1, 1, 0, 0, 4), 2)
    res = transversality_check(V, PointC2(1, 0))
    assert res.passed and res.residual == pytest.approx(4, abs=1e-12)


def test_transversality_pzw():
    V1, _ = derive_candidate_fields(make_pzw())
    res = transversality_check(V1, PointC2(1, 1))
    assert res.passed and res.residual == pytest.approx(2, abs=1e-12)


def test_transversality_radial_fails():
    radial = VectorFieldC2(mono(1, 0, 0, 0), mono(0, 0, 1, 0), 1)
    res = transversality_check(radial, PointC2(0.3 - 1j, 2))
    assert not res.passed and res.residual <= 1e-14


# -- homogeneity -------------------------------------------------------------------

def test_homogeneity_check_examples():
    assert homogeneity_check_field(VectorFieldC2(mono(1, 0, 0, 1, -1), mono(0, 0, 1, 1), 2))
    assert homogeneity_check_field(make_field_v3())
    assert not homogeneity_check_field(
        VectorFieldC2(mono(1, 0, 0, 0), WirtingerPoly.constant(1), 1))


def test_field_scaling_law():
    # field_eval(t q) = t^m field_eval(q), relative error <= 1e-12
    rng = np.random.default_rng(5)
    for V in (make_field_v3(), make_field_nonholo()):
        for _ in range(100):
            q = PointC2(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
            vq = field_eval(V, q)
            for t in (0.5, 2.0, -1.0):
                vt = field_eval(V, q.scale(t))
                scale = t ** V.degree
                assert abs(vt.z - scale * vq.z) <= 1e-12 * max(1, abs(scale * vq.z))
                assert abs(vt.w - scale * vq.w) <= 1e-12 * max(1, abs(scale * vq.w))


# -- compiled evaluator against the exact reference ---------------------------------

def _random_field(rng) -> VectorFieldC2:
    # homogeneous of degree 0..6, 0..6 terms per component (an empty
    # component included), complex rational coefficients
    deg = int(rng.integers(0, 7))
    comps = []
    for _ in range(2):
        terms = []
        for _ in range(int(rng.integers(0, 7))):
            cuts = sorted(int(c) for c in rng.integers(0, deg + 1, 3))
            exp = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], deg - cuts[2])
            coeff = tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                          for _ in range(2))
            terms.append((exp, coeff))
        comps.append(WirtingerPoly(terms))
    return VectorFieldC2(comps[0], comps[1], deg)


def _field_family():
    rng = np.random.default_rng(2024)
    family = [derive_candidate_fields(make_pz4())[0]]   # comp_z is empty
    family += [_random_field(rng) for _ in range(60)]
    points = [PointC2(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
              for _ in range(8)]
    return family, points


def _magnitude(poly, q) -> float:
    # sum of |term| at q: the scale of the rounding error of any evaluation
    return sum(abs(complex(float(re), float(im))) * abs(q.z) ** (a + b) * abs(q.w) ** (c + d)
               for (a, b, c, d), (re, im) in poly.items())


def _real_derivatives(poly):
    # d/dx_j of poly for x = (Re z, Im z, Re w, Im w): d/dx1 = d_z + d_zbar,
    # d/dx2 = i(d_z - d_zbar), and likewise in w
    out = []
    for hol, anti in (("z", "zbar"), ("w", "wbar")):
        ph, pa = poly_diff(poly, hol), poly_diff(poly, anti)
        out += [ph + pa, (ph - pa).scale(0, 1)]
    return out


def _ddbar(V):
    # the zbar- and wbar-derivatives of comp_z, then of comp_w
    return [poly_diff(c, var) for c in (V.comp_z, V.comp_w) for var in ("zbar", "wbar")]


def _exact_bracket(V, q):
    # the bracket assembled from exact values of the field and of its eight
    # real first derivatives, in the matrix form of the definition
    vz, vw = poly_eval(V.comp_z, q), poly_eval(V.comp_w, q)
    X1 = np.array([vz.real, vz.imag, vw.real, vw.imag])
    X2 = np.array([-vz.imag, vz.real, -vw.imag, vw.real])
    dz, dw = ([poly_eval(p, q) for p in _real_derivatives(c)] for c in (V.comp_z, V.comp_w))
    DX1 = np.array([[v.real for v in dz], [v.imag for v in dz],
                    [v.real for v in dw], [v.imag for v in dw]])
    DX2 = np.array([[-v.imag for v in dz], [v.real for v in dz],
                    [-v.imag for v in dw], [v.real for v in dw]])
    return DX2 @ X1 - DX1 @ X2


def test_compiled_field_and_jacobian_match_exact():
    family, points = _field_family()
    assert any(V.comp_z.is_zero or V.comp_w.is_zero for V in family)
    assert {V.degree for V in family} == set(range(7))
    for V in family:
        derivs = _ddbar(V)
        for q in points:
            got = V.eval_complex(q.z, q.w)
            for value, poly in zip(got, (V.comp_z, V.comp_w)):
                assert abs(value - poly_eval(poly, q)) <= 1e-13 * _magnitude(poly, q)
            assert field_eval(V, q) == PointC2(*got)
            jac = V._jacobian(q.z, q.w)
            assert len(jac) == 4
            for value, poly in zip(jac, derivs):
                assert abs(value - poly_eval(poly, q)) <= 1e-13 * _magnitude(poly, q)


def test_compiled_bracket_matches_exact_bracket():
    family, points = _field_family()
    for V in family:
        derivs = _real_derivatives(V.comp_z) + _real_derivatives(V.comp_w)
        for q in points:
            scale = (sum(_magnitude(p, q) for p in derivs)
                     * (_magnitude(V.comp_z, q) + _magnitude(V.comp_w, q)))
            err = np.abs(lie_bracket_real(V, q) - _exact_bracket(V, q)).max()
            assert err <= 1e-13 * scale


def _real_parts(c):
    # Re c = (c + conj c)/2 and Im c = (c - conj c)/(2i), as polynomials
    cc = c.conjugate()
    return [(c + cc).scale(Fraction(1, 2)), (c - cc).scale(0, Fraction(-1, 2))]


def test_closed_form_bracket_is_an_exact_identity():
    # DX2 X1 - DX1 X2 as exact polynomials against the closed form
    # view(2i (V_zbar conj(V^z) + V_wbar conj(V^w))) of lie_bracket_real:
    # their difference is the zero polynomial on the whole family
    family, _ = _field_family()
    nonzero = 0
    for V in family:
        X1 = _real_parts(V.comp_z) + _real_parts(V.comp_w)
        X2 = [-X1[1], X1[0], -X1[3], X1[2]]
        DX1, DX2 = ([_real_derivatives(c) for c in X] for X in (X1, X2))
        definition = []
        for i in range(4):
            acc = WirtingerPoly.zero()
            for j in range(4):
                acc = acc + DX2[i][j] * X1[j] - DX1[i][j] * X2[j]
            definition.append(acc)
        cz, cw = (c.conjugate().scale(0, 2) for c in (V.comp_z, V.comp_w))
        z_zb, z_wb, w_zb, w_wb = _ddbar(V)
        closed = _real_parts(z_zb * cz + z_wb * cw) + _real_parts(w_zb * cz + w_wb * cw)
        assert all((d - c).is_zero for d, c in zip(definition, closed))
        nonzero += any(not c.is_zero for c in closed)
    assert nonzero > 0


@pytest.mark.parametrize("code", ["field", "dp5", "dop853"])
def test_compiled_evaluator_handles_high_degree(code):
    # one term of degree 4000, deeper than the compiler accepts as a single
    # expression: the flat statements still compile, and the product
    # matches one formed with complex powers
    V = VectorFieldC2(mono(1500, 1000, 900, 600, 1, -1), WirtingerPoly.zero(), 4000)
    z, w = 0.999 + 0.01j, 1.0005 - 0.02j
    if code == "field":
        got, zero = V.eval_complex(z, w)
    else:
        # a degree-4000 monomial is always below the relative nonvanishing
        # threshold, so switch the step's monitor off; a zero step puts
        # every stage at (z, w), and the step hands back V(z, w) after the
        # update (z, w)
        step = getattr(V, "_" + code)
        step.__globals__.update(deg=0, thr_sq=-1.0)
        got, zero = step(z, w, 0.0, 1 + 0j, 0j, 0j, 1e-12)[2:4]
    want = (1 - 1j) * z ** 1500 * z.conjugate() ** 1000 * w ** 900 * w.conjugate() ** 600
    assert zero == 0
    assert abs(got - want) <= 1e-11 * abs(want)


def _tableau_weights(tableau):
    return {complex(a) for row in (*tableau.rows, tableau.weights, *tableau.errors)
            for a in row if a}


# the non-complex constants each kind may hold besides its messages: the
# field sums none; first and the steps the monitor's 1.0 and the exponent 2
# of their squared sums; each step its error norm's floats
_CONSTS = {"field": {None}, "first": {None, 1.0, 2}, "dp5": {None, 1.0, 2, 4.0},
           "dop853": {None, 1.0, 2, 0.01, 4.0, 0.0}}


@pytest.mark.parametrize("code", ["field", "first", "dp5", "dop853"])
def test_compiled_code_hygiene(code):
    V = make_field_nonholo()
    fn = getattr(V, "_eval" if code == "field" else "_" + code)
    # the field's value, first stage and both steps share one namespace:
    # its coefficients and the names that the monitor and the error norms
    # read; no weight is bound by name
    assert fn.__globals__ is V._namespace[1]
    assert sorted(k for k in fn.__globals__ if not k.startswith("__")) == sorted(
        ["c0", "c1", "NumericError", "RankDropError", "deg", "sqrt", "thr_sq"])
    # the function is not held by its own namespace (no reference cycle)
    assert fn not in fn.__globals__.values()
    # coefficients are never baked into the code; besides the 0j of the
    # field sums and the constants of _CONSTS, a step holds every nonzero
    # weight of its tableau and nothing else, each as a complex literal, so
    # no float x complex product dispatches through float first
    consts = [c for c in fn.__code__.co_consts if not isinstance(c, str)]
    weights = {c for c in consts if type(c) is complex} - {0j}
    assert {c for c in consts if type(c) is not complex} <= _CONSTS[code]
    if code in ("field", "first"):
        assert weights == set()
    else:
        tableau = getattr(fields, "_" + code.upper())
        assert weights == _tableau_weights(tableau)
        # 11 stage rows of DOP853, 8 weights and 8 per error row, with 69
        # distinct values; 26 distinct weights of DP5(4)
        assert len(weights) == {"dp5": 26, "dop853": 69}[code]


@pytest.mark.parametrize("kind, stages", [("dp5", 6), ("dop853", 12)])
@pytest.mark.parametrize("make", [lambda: select_field(make_pzw(), PointC2(1, 1)),
                                  make_field_v3], ids=["pzw", "field_v3"])
def test_every_stage_runs_the_monitor_once(kind, stages, make):
    # first monitors the value it is handed, and step each of its stages
    # 2 to s + 1 right after the inlined field code of that stage
    V = make()
    step = fields._step_lines(fields._TABLEAUS[kind], fields._bind((V.comp_z, V.comp_w), {}))
    assert [i.argval for i in dis.get_instructions(V._first)].count("RankDropError") == 1
    raises = [i for i, line in enumerate(step) if "raise RankDropError" in line]
    assert len(raises) == stages
    fields_at = [i for i, line in enumerate(step) if line == "r0 = 0j"]
    assert len(fields_at) == stages
    assert all(a < b for a, b in zip(fields_at, raises))
    assert all(b < a for a, b in zip(fields_at[1:], raises))


_THR_SQ = fields.NONVANISH_THRESHOLD ** 2


def _fsum_verdict(V, z, w, v):
    """True when v = V(z, w) is below the relative nonvanishing threshold,
    from correctly rounded sums; None within 1e-12 of the threshold."""
    nv = math.fsum(x * x for c in v for x in (c.real, c.imag))
    r = math.fsum(x * x for c in (z, w) for x in (c.real, c.imag))
    bound = _THR_SQ * max(1.0, r) ** V.degree
    if abs(nv - bound) <= 1e-12 * bound:
        return None
    return nv <= bound


def _monitor_raises(fn, *args) -> bool:
    try:
        fn(*args)
    except fields.RankDropError:
        return True
    return False


@settings(max_examples=60, deadline=None)
@given(make=st.sampled_from([make_field_v3, make_field_nonholo,
                             lambda: select_field(make_pzw(), PointC2(1, 1))]),
       parts=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
       offset=st.one_of(st.floats(-1e-6, 1e-6),
                        st.integers(3, 14).map(lambda k: 10.0 ** -k),
                        st.integers(3, 14).map(lambda k: -(10.0 ** -k))))
def test_generated_monitor_matches_fsum_verdict(make, parts, offset):
    # the field scaled by an exact factor that puts its squared norm at
    # (1 + offset) times the threshold bound at (z, w); the generated
    # monitor, on a handed-in value (first) and on the inlined field code
    # of every stage of a zero step, gives the verdict of correctly
    # rounded sums wherever that verdict is not within 1e-12 of the bound
    V = make()
    z, w = complex(parts[0], parts[1]), complex(parts[2], parts[3])
    nv = math.fsum(abs(c) ** 2 for c in V.eval_complex(z, w))
    assume(nv > 1e-200)
    r = math.fsum(x * x for x in parts)
    c = math.sqrt(_THR_SQ * max(1.0, r) ** V.degree * (1 + offset) / nv)
    cV = VectorFieldC2(V.comp_z.scale(Fraction(c)), V.comp_w.scale(Fraction(c)), V.degree)
    v = cV.eval_complex(z, w)
    want = _fsum_verdict(cV, z, w, v)
    assume(want is not None)
    assert _monitor_raises(cV._first, z, w, v[0], v[1], 1 + 0j) == want
    for step in (cV._dp5, cV._dop853):
        assert _monitor_raises(step, z, w, 0.0, 1 + 0j, 0j, 0j, 1e-12) == want


# -- the code cache: one compile per (kind, shape), coefficients per field --

def _twin_fields():
    # one shape, (1 + 3 z zbar w) and (w^2 + w wbar), with different coefficients
    def field(a, b, c, d):
        return VectorFieldC2(mono(0, 0, 0, 0, a) + mono(1, 1, 1, 0, b),
                             mono(0, 0, 2, 0, c) + mono(0, 0, 1, 1, 0, d), 3)
    return field(1, 3, 1, 1), field(Fraction(-2, 7), 5, Fraction(1, 3), -4)


_POINTS = [(0.3 - 0.8j, 1.1 + 0.2j), (-1.7 + 0.1j, 0.05 - 2.2j), (1e3 + 1j, -1e-3j)]


def test_one_shape_compiles_once(code_compiles):
    A, B = _twin_fields()
    A.eval_complex(1, 1)
    B.eval_complex(1, 1)
    assert code_compiles[0] == 1
    A._jacobian(1, 1)
    B._jacobian(1, 1)
    assert code_compiles[0] == 2


def test_cached_code_matches_a_fresh_compile(code_compiles):
    # B runs code compiled for A; its values and Jacobian values are the bits
    # of a compile made for B alone
    A, B = _twin_fields()
    A.eval_complex(1, 1), A._jacobian(1, 1)
    got = [(B.eval_complex(z, w), B._jacobian(z, w)) for z, w in _POINTS]
    assert code_compiles[0] == 2
    fields._code.cache_clear()
    _, fresh = _twin_fields()
    assert got == [(fresh.eval_complex(z, w), fresh._jacobian(z, w)) for z, w in _POINTS]
    assert code_compiles[0] == 4


def test_overflowing_coefficient_on_a_cache_hit(code_compiles):
    A, _ = _twin_fields()
    A.eval_complex(1, 1)
    huge = VectorFieldC2(mono(0, 0, 0, 0, 10 ** 400) + mono(1, 1, 1, 0),
                         A.comp_w, 3)
    with pytest.raises(NumericError, match="overflows a float"):
        huge.eval_complex(1, 1)
    assert code_compiles[0] == 1


def test_code_cache_is_bounded():
    fields._code.cache_clear()
    assert fields.CODE_CACHE_SIZE == 256
    assert fields._code.cache_parameters()["maxsize"] == fields.CODE_CACHE_SIZE


def test_cache_holds_no_field(code_compiles):
    V, _ = _twin_fields()
    V.eval_complex(1, 1), V._jacobian(1, 1), V._first, V._dp5, V._dop853
    assert code_compiles[0] == 5
    ref = weakref.ref(V)
    del V
    assert ref() is None


def test_a_field_binds_its_coefficients_once(code_compiles, monkeypatch):
    # the value, the first stage and both steps of a field read one
    # namespace, bound once; its Jacobian binds its own polynomials
    binds = [0]
    bind = fields._bind

    def counted(polys, ns):
        binds[0] += 1
        return bind(polys, ns)

    monkeypatch.setattr(fields, "_bind", counted)
    V = make_field_nonholo()
    V.eval_complex(1, 1), V._first, V._dp5, V._dop853
    assert binds[0] == 1
    V._jacobian(1, 1)
    assert binds[0] == 2
    # a new shape costs four compiles: its value, its Jacobian and its two
    # steps; the code of first reads no field term and serves every shape
    assert code_compiles[0] == 5
    W = make_field_v3()
    W.eval_complex(1, 1), W._jacobian(1, 1), W._first, W._dp5, W._dop853
    assert code_compiles[0] == 5 + 4
    assert binds[0] == 4


def test_scaled_field_reuses_its_flow_steps(code_compiles):
    V = make_field_nonholo()
    V._dp5, V._dop853
    assert code_compiles[0] == 2
    cV = VectorFieldC2(V.comp_z.scale(3, -1), V.comp_w.scale(3, -1), V.degree)
    steps = cV._dp5, cV._dop853
    assert code_compiles[0] == 2
    # a step returns (zn, wn, vz, vw, kz, kw, err): with h = 0 every
    # stage sits at (z, w), so the field value handed back is cV(z, w) and,
    # with mix = 1, so is the FSAL stage; each step reads the coefficients
    # of cV, not those of V
    z, w = 0.7 + 0.2j, 0.4 - 0.9j
    for step in steps:
        out = step(z, w, 0.0, 1 + 0j, 0j, 0j, 1e-12)
        assert out[2:4] == out[4:6] == cV.eval_complex(z, w)
    assert cV.eval_complex(z, w) != V.eval_complex(z, w)


# Nodes c_i of the DOP853 stages 1-12 in closed form (Hairer's dop853.f)
_R6 = 6 ** 0.5
_DOP853_C = (0.0, (12 - 2 * _R6) / 135, (6 - _R6) / 45, (6 - _R6) / 30, (6 + _R6) / 30,
             1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0)


@pytest.mark.parametrize("tableau, order", [("_DP5", 5), ("_DOP853", 8)])
def test_tableau_order_conditions(tableau, order):
    # rows sum to the nodes, and the weights integrate c^(k-1) exactly for
    # k up to the order (the nodes of DP5(4) are the row sums themselves)
    pair = getattr(fields, tableau)
    rows, weights, errors = pair.rows, pair.weights, pair.errors
    c = [0.0] + [sum(row) for row in rows]
    if tableau == "_DOP853":
        assert len(c) == len(weights) == 12
        for got, want in zip(c, _DOP853_C):
            assert abs(got - want) <= 1e-14
        c = _DOP853_C
    for k in range(1, order + 1):
        assert abs(sum(b * ci ** (k - 1) for b, ci in zip(weights, c)) - 1 / k) <= 1e-14
    # each error row is a difference of two consistent weight sets
    for row in errors:
        assert abs(sum(row)) <= 1e-14


def test_dop853_coefficients_match_scipy():
    coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    rows, weights, (e5, e3) = fields._DOP853.rows, fields._DOP853.weights, fields._DOP853.errors
    for k, row in enumerate(rows, 1):
        assert list(row) == list(coeffs.A[k, :len(row)])
        assert not coeffs.A[k, len(row):].any()
    assert list(weights) == list(coeffs.B)
    assert list(e5) == list(coeffs.E5[:12]) and coeffs.E5[12] == 0
    assert list(e3) == list(coeffs.E3[:12]) and coeffs.E3[12] == 0
