"""Vector fields: candidate derivation, selection, and the admissibility
checks (annihilation, bracket, involutivity, transversality, homogeneity)."""

from fractions import Fraction

import numpy as np
import pytest

from leafgauge import (
    AssumptionError,
    NumericError,
    PointC2,
    VectorFieldC2,
    WirtingerPoly,
    annihilation_check,
    bracket_span_residual,
    derive_candidate_fields,
    field_eval,
    homogeneity_check_field,
    involutivity_check,
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


# -- selection -----------------------------------------------------------------

def test_select_pz4_takes_first():
    V = select_field(make_pz4(), PointC2(1, 0))
    assert V.comp_w == mono(1, 1, 0, 0, 4)


def test_select_pzw_tie_break_prefers_first():
    V = select_field(make_pzw(), PointC2(1, 1))
    assert V.comp_z == mono(1, 0, 0, 1, -1)


def test_select_fails_where_hessian_vanishes():
    with pytest.raises(AssumptionError, match="Hessian vanishes"):
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
        # every stage at (z, w), and the FSAL stage with mix = 1 is V(z, w)
        _, step = getattr(V, "_" + code)
        step.__globals__.update(deg=0, thr_sq=-1.0)
        got, zero = step(z, w, 0.0, 1 + 0j, 0j, 0j, 1e-12)[2:4]
    want = (1 - 1j) * z ** 1500 * z.conjugate() ** 1000 * w ** 900 * w.conjugate() ** 600
    assert zero == 0
    assert abs(got - want) <= 1e-11 * abs(want)


def _tableau_names(tableau):
    rows, weights, errors = tableau
    return ([f"A{k}{j}" for k, row in enumerate(rows, 2) for j, a in enumerate(row, 1) if a]
            + [f"B{j}" for j, b in enumerate(weights, 1) if b]
            + [f"{p}{j}" for p, row in zip("EF", errors) for j, e in enumerate(row, 1) if e])


@pytest.mark.parametrize("code", ["field", "dp5", "dop853"])
def test_compiled_code_hygiene(code):
    V = make_field_nonholo()
    fns = (V._eval,) if code == "field" else getattr(V, "_" + code)
    names = ["c0", "c1"]
    if code == "dp5":
        names += ["A21", "A31", "A32", "A41", "A42", "A43", "A51", "A52", "A53", "A54",
                  "A61", "A62", "A63", "A64", "A65", "B1", "B3", "B4", "B5", "B6",
                  "E1", "E3", "E4", "E5", "E6", "E7"]
        assert names[2:] == _tableau_names(fields._DP5)
    elif code == "dop853":
        # 11 stage rows, 8 weights and 8 per error row, all distinct names
        names += _tableau_names(fields._DOP853)
        assert len(set(names)) == len(names) == 2 + 50 + 8 + 8 + 8
    if code != "field":
        names += ["NumericError", "RankDropError", "deg", "thr_sq"]
    for fn in fns:
        # the function is not held by its own namespace (no reference cycle)
        assert fn not in fn.__globals__.values()
        # coefficients and tableau weights are bound as names, never baked
        # into the code; the step keeps only its monitor's 1.0, the
        # exponent 2 of its error norm and its two messages
        consts = {c for c in fn.__code__.co_consts if not isinstance(c, str)}
        assert consts <= ({None, 0j} if code == "field" else {None, 0j, 1.0, 2})
        assert sorted(k for k in fn.__globals__ if not k.startswith("__")) == sorted(names)


# Nodes c_i of the DOP853 stages 1-12 in closed form (Hairer's dop853.f)
_R6 = 6 ** 0.5
_DOP853_C = (0.0, (12 - 2 * _R6) / 135, (6 - _R6) / 45, (6 - _R6) / 30, (6 + _R6) / 30,
             1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0)


@pytest.mark.parametrize("tableau, order", [("_DP5", 5), ("_DOP853", 8)])
def test_tableau_order_conditions(tableau, order):
    # rows sum to the nodes, and the weights integrate c^(k-1) exactly for
    # k up to the order (the nodes of DP5(4) are the row sums themselves)
    rows, weights, errors = getattr(fields, tableau)
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
    rows, weights, (e5, e3) = fields._DOP853
    for k, row in enumerate(rows, 1):
        assert list(row) == list(coeffs.A[k, :len(row)])
        assert not coeffs.A[k, len(row):].any()
    assert list(weights) == list(coeffs.B)
    assert list(e5) == list(coeffs.E5[:12]) and coeffs.E5[12] == 0
    assert list(e3) == list(coeffs.E3[:12]) and coeffs.E3[12] == 0
