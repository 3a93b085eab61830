"""Exact polynomial algebra: worked examples and algebraic invariants."""

import json
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafgauge import (
    AssumptionError,
    NumericError,
    PointC2,
    WirtingerPoly,
    complex_hessian,
    hessian_eval,
    homogeneity_degree,
    is_on_harmonic_line,
    levi_determinant,
    load_fixture,
    poly_diff,
    poly_eval,
    poly_from_records,
    poly_is_real,
    poly_to_records,
)
from conftest import FIXTURE_DIR, make_ball, make_pz4, make_pzw


def mono(a, b, c, d, re=1, im=0):
    return WirtingerPoly.monomial(a, b, c, d, re, im)


# -- evaluation --------------------------------------------------------------

def test_eval_unit_point():
    assert poly_eval(make_pzw(), PointC2(1, 1)) == 1


def test_eval_pure_imaginary():
    # |2i|^4 = 16 by hand
    assert poly_eval(make_pz4(), PointC2(2j, 0)) == pytest.approx(16, abs=1e-12)


def test_eval_mixed_point():
    # |1+i|^2 * |1|^2 = 2 by hand
    assert poly_eval(make_pzw(), PointC2(1 + 1j, 1)) == pytest.approx(2, abs=1e-12)


def test_eval_real_poly_has_exact_zero_imag():
    # exact rational accumulation folds an exactly real sum to float
    val = poly_eval(make_pzw(), PointC2(0.3 - 0.7j, 1.1 + 0.2j))
    assert val.imag == 0.0


def test_eval_takes_a_z_w_pair():
    # (2+i) |z|^2 w at (1+i, 2) is (2+i) * 2 * 2 by hand; a (z, w) pair is
    # the point PointC2(z, w)
    p = mono(1, 1, 1, 0, 2, 1)
    assert poly_eval(p, (1 + 1j, 2)) == 8 + 4j
    pt = (0.3 - 0.7j, 1.1 + 0.2j)
    assert poly_eval(p, pt) == poly_eval(p, PointC2(*pt))


# -- differentiation ---------------------------------------------------------

def test_diff_single_monomial():
    assert poly_diff(make_pzw(), "zbar") == mono(1, 0, 1, 1)


def test_diff_constant():
    assert poly_diff(WirtingerPoly.constant(5), "z").is_zero


def test_diff_two_step():
    # d/dwbar d/dw (z zbar w wbar) = z zbar by hand
    assert poly_diff(poly_diff(make_pzw(), "w"), "wbar") == mono(1, 1, 0, 0)


# -- realness ----------------------------------------------------------------

def test_is_real_zzbar():
    assert poly_is_real(mono(1, 1, 0, 0))


def test_is_real_missing_partner():
    assert not poly_is_real(mono(1, 0, 0, 1))


def test_is_real_conjugate_pair():
    assert poly_is_real(mono(1, 0, 0, 1) + mono(0, 1, 1, 0))


# -- homogeneity degree ------------------------------------------------------

def test_degree_single_term():
    assert homogeneity_degree(make_pzw()) == 4


def test_degree_inhomogeneous():
    assert homogeneity_degree(mono(1, 0, 0, 0) + mono(1, 1, 0, 0)) is None


def test_degree_power():
    assert homogeneity_degree(mono(2, 2, 0, 0)) == 4


def test_degree_zero_poly_raises():
    with pytest.raises(ValueError, match="degree undefined"):
        homogeneity_degree(WirtingerPoly.zero())


# -- complex Hessian ---------------------------------------------------------

def test_hessian_ball_is_identity():
    H = complex_hessian(make_ball())
    assert H.entries[0][0] == WirtingerPoly.constant(1)
    assert H.entries[1][1] == WirtingerPoly.constant(1)
    assert H.entries[0][1].is_zero and H.entries[1][0].is_zero


def test_hessian_pz4():
    H = complex_hessian(make_pz4())
    assert H.entries[0][0] == mono(1, 1, 0, 0, 4)
    assert H.entries[0][1].is_zero
    assert H.entries[1][0].is_zero
    assert H.entries[1][1].is_zero


def test_hessian_pzw():
    H = complex_hessian(make_pzw())
    assert H.entries[0][0] == mono(0, 0, 1, 1)
    assert H.entries[0][1] == mono(1, 0, 0, 1)
    assert H.entries[1][0] == mono(0, 1, 1, 0)
    assert H.entries[1][1] == mono(1, 1, 0, 0)


def test_hessian_rejects_nonreal():
    with pytest.raises(AssumptionError):
        complex_hessian(mono(1, 0, 0, 0))


# -- Levi determinant --------------------------------------------------------

def test_levi_pzw_vanishes():
    # w wbar z zbar - (z wbar)(zbar w) expands to zero
    assert levi_determinant(make_pzw()).is_zero


def test_levi_pz4_vanishes():
    assert levi_determinant(make_pz4()).is_zero


def test_levi_ball_is_one():
    assert levi_determinant(make_ball()) == WirtingerPoly.constant(1)


# -- line restriction / harmonic lines ----------------------------------------
#
# ref_line_restriction (below) is the Fraction oracle: hessian(s*x) . x as
# exact polynomials in (s, sbar), all zero exactly on a harmonic line.

def test_line_restriction_pz4_w_axis():
    assert ref_line_restriction(make_pz4(), PointC2(0, 1)) == [{}, {}]
    assert is_on_harmonic_line(make_pz4(), PointC2(0, 1))


def test_line_restriction_pz4_z_axis():
    four = (Fraction(4), Fraction(0))
    assert ref_line_restriction(make_pz4(), PointC2(1, 0)) == [{(1, 1, 0, 0): four}, {}]
    assert not is_on_harmonic_line(make_pz4(), PointC2(1, 0))


def test_line_restriction_pzw_diagonal():
    # row sums of the Hessian at (s, s): 2 s sbar in both rows
    two = {(1, 1, 0, 0): (Fraction(2), Fraction(0))}
    assert ref_line_restriction(make_pzw(), PointC2(1, 1)) == [two, two]
    assert not is_on_harmonic_line(make_pzw(), PointC2(1, 1))


def test_harmonic_line_membership():
    assert is_on_harmonic_line(make_pz4(), PointC2(0, 1))
    assert not is_on_harmonic_line(make_pz4(), PointC2(1, 0))
    assert not is_on_harmonic_line(make_pzw(), PointC2(1, 1))
    with pytest.raises(ValueError, match="nonzero"):
        is_on_harmonic_line(make_pzw(), PointC2(0, 0))


def test_vanishing_on_a_line_is_not_harmonicity():
    # |z|^4 - |w|^4 vanishes on the line z = w, but its Hessian
    # diag(4|z|^2, -4|w|^2) does not annihilate (1, 1) there
    P = mono(2, 2, 0, 0) - mono(0, 0, 2, 2)
    x = PointC2(1, 1)
    assert all(poly_eval(P, x.scale(s)) == 0 for s in (0.5, 1.0, 3.0))
    assert not is_on_harmonic_line(P, x)
    assert not ref_on_harmonic_line(P, x)


# -- serialization -----------------------------------------------------------

def test_records_round_trip():
    p = mono(1, 0, 0, 1, Fraction(1, 3), -2) + mono(0, 2, 1, 0, "0.25")
    assert poly_from_records(poly_to_records(p)) == p


def test_str_of_imaginary_and_mixed_sign_coefficients():
    # a pure-imaginary coefficient prints as "{im}i", any other complex one
    # as "(re±imi)"
    assert str(mono(1, 0, 0, 0, 0, Fraction(3, 2))) == "3/2i*z"
    assert str(mono(0, 0, 0, 0, 0, -1)) == "-1i"
    assert str(mono(0, 1, 2, 0, 1, -2)) == "(1-2i)*zbar*w^2"
    assert str(mono(0, 0, 0, 1, Fraction(-1, 3), 1) + mono(1, 0, 0, 0, 0, 2)) == \
        "(-1/3+1i)*wbar + 2i*z"


# -- algebraic invariants (property-based) -------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
exponent = st.tuples(st.integers(0, 3), st.integers(0, 3),
                     st.integers(0, 3), st.integers(0, 3))
coeff = st.tuples(rationals, rationals)
term_maps = st.dictionaries(exponent, coeff, max_size=4)
polys = term_maps.map(WirtingerPoly)
scalars = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)
points = st.tuples(scalars, scalars).map(lambda zw: PointC2(*zw))


@given(polys, polys, points)
@settings(max_examples=60, deadline=None)
def test_eval_is_multiplicative(p, q, pt):
    lhs = poly_eval(p * q, pt)
    rhs = poly_eval(p, pt) * poly_eval(q, pt)
    scale = (1 + abs(poly_eval(p, pt))) * (1 + abs(poly_eval(q, pt)))
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(polys, polys, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_diff_is_linear_exactly(p, q, alpha, beta):
    combo = p.scale(alpha) + q.scale(beta)
    for var in ("z", "zbar", "w", "wbar"):
        lhs = poly_diff(combo, var)
        rhs = poly_diff(p, var).scale(alpha) + poly_diff(q, var).scale(beta)
        assert lhs == rhs


@given(polys, points)
@settings(max_examples=60, deadline=None)
def test_real_part_sum_evaluates_real(p, pt):
    real_poly = p + p.conjugate()
    assert poly_is_real(real_poly)
    assert poly_eval(real_poly, pt).imag == 0.0


def test_real_eval_bulk():
    # imaginary part below 1e-12 across 1000 random points (it is exactly
    # zero: the accumulation is rational and folds once)
    rng = np.random.default_rng(17)
    p = make_pzw() + make_pz4() + mono(1, 0, 0, 1, 2, 3) + mono(0, 1, 1, 0, 2, -3)
    assert poly_is_real(p)
    for _ in range(1000):
        v = rng.standard_normal(4)
        val = poly_eval(p, PointC2(complex(v[0], v[1]), complex(v[2], v[3])))
        assert abs(val.imag) <= 1e-12


@st.composite
def homogeneous_polys(draw):
    d = draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(0, d))
        b = draw(st.integers(0, d - a))
        c = draw(st.integers(0, d - a - b))
        terms.append(((a, b, c, d - a - b - c), draw(coeff)))
    return d, WirtingerPoly(terms)


@given(homogeneous_polys())
@settings(max_examples=60, deadline=None)
def test_euler_identity_exact(dp):
    d, p = dp
    euler = (mono(1, 0, 0, 0) * poly_diff(p, "z")
             + mono(0, 1, 0, 0) * poly_diff(p, "zbar")
             + mono(0, 0, 1, 0) * poly_diff(p, "w")
             + mono(0, 0, 0, 1) * poly_diff(p, "wbar"))
    assert euler == p.scale(d)


@given(polys)
@settings(max_examples=60, deadline=None)
def test_hessian_hermitian_symmetry_exact(p):
    real_poly = p + p.conjugate()
    H = complex_hessian(real_poly)
    assert H.entries[0][1] == H.entries[1][0].conjugate()
    assert H.entries[0][0] == H.entries[0][0].conjugate()


# -- the integer kernel against a Fraction reference ---------------------------
#
# A direct transcription of the ring on Fraction pairs, one coefficient
# operation at a time: the oracle for the integer kernel, which must give
# the same exact polynomials and the same correctly rounded floats.

def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_collect(pairs):
    out = {}
    for key, (re, im) in pairs:
        r0, i0 = out.get(key, (Fraction(0), Fraction(0)))
        out[key] = (r0 + re, i0 + im)
    return {key: cf for key, cf in out.items() if cf != (0, 0)}


def ref_product(p, q):
    return _ref_collect((tuple(a + b for a, b in zip(ea, eb)), _ref_mul(ca, cb))
                        for ea, ca in p.terms.items() for eb, cb in q.terms.items())


def ref_combination(p, q, sign):
    return _ref_collect([*p.terms.items(),
                         *((exp, (sign * re, sign * im)) for exp, (re, im) in q.terms.items())])


def ref_diff(terms, k):
    return {exp[:k] + (exp[k] - 1,) + exp[k + 1:]: (re * exp[k], im * exp[k])
            for exp, (re, im) in terms.items() if exp[k]}


def ref_hessian(p):
    # rows: d/dzbar, d/dwbar; columns: d/dz, d/dw
    return [[ref_diff(ref_diff(p.terms, bar), col) for col in (0, 2)] for bar in (1, 3)]


def ref_substitute(terms, q, key):
    z, w = complex(q.z), complex(q.w)
    values = [(Fraction(v.real), Fraction(v.imag)) for v in (z, z.conjugate(), w, w.conjugate())]

    def term(exp, cf):
        for value, n in zip(values, exp):
            for _ in range(n):
                cf = _ref_mul(cf, value)
        return cf

    return _ref_collect((key(exp), term(exp, cf)) for exp, cf in terms.items())


def ref_eval(terms, q):
    re, im = ref_substitute(terms, q, lambda exp: 0).get(0, (Fraction(0), Fraction(0)))
    return complex(float(re), float(im))


def ref_line_restriction(p, direction):
    d = [(Fraction(v.real), Fraction(v.imag)) for v in (direction.z, direction.w)]
    return [_ref_collect((exp, _ref_mul(cf, d[col]))
                         for col in (0, 1)
                         for exp, cf in ref_substitute(
                             row[col], direction,
                             lambda e: (e[0] + e[2], e[1] + e[3], 0, 0)).items())
            for row in ref_hessian(p)]


def ref_on_harmonic_line(p, x):
    return not any(ref_line_restriction(p, x))


def _hex(c: complex):
    return (c.real.hex(), c.imag.hex())


@given(polys, polys)
@settings(max_examples=80, deadline=None)
def test_ring_matches_fraction_reference(p, q):
    assert (p * q).terms == ref_product(p, q)
    assert (p + q).terms == ref_combination(p, q, 1)
    assert (p - q).terms == ref_combination(p, q, -1)
    # exact cancellation leaves the zero polynomial, with no zero terms
    assert (p - p).is_zero and (p * q - q * p).is_zero
    assert ((p + q) - q) == p


def test_non_dyadic_coefficients_match_reference():
    p = mono(1, 0, 0, 1, Fraction(1, 3), Fraction(-2, 7)) + mono(0, 1, 1, 0, Fraction(5, 6))
    q = mono(2, 0, 0, 0, Fraction(-1, 9), Fraction(1, 3)) + mono(0, 1, 1, 0, Fraction(-5, 6))
    assert (p * q).terms == ref_product(p, q)
    assert (p + q).terms == ref_combination(p, q, 1)
    assert (0, 1, 1, 0) not in (p + q).terms
    real = p * p.conjugate()
    x = PointC2(0.1 + 0.3j, -0.7 + 1 / 3)
    assert _hex(poly_eval(real, x)) == _hex(ref_eval(real.terms, x))
    assert is_on_harmonic_line(real, x) == ref_on_harmonic_line(real, x)


@given(polys, points)
@settings(max_examples=80, deadline=None)
def test_eval_matches_fraction_reference_bit_for_bit(p, pt):
    assert _hex(poly_eval(p, pt)) == _hex(ref_eval(p.terms, pt))


@given(polys, points)
@settings(max_examples=60, deadline=None)
def test_hessian_and_line_restriction_match_fraction_reference(p, pt):
    real = p + p.conjugate()
    H = complex_hessian(real)
    ref = ref_hessian(real)
    assert [[e.terms for e in row] for row in H.entries] == ref
    assert [_hex(v) for v in np.asarray(hessian_eval(real, pt)).ravel()] == \
        [_hex(ref_eval(e, pt)) for row in ref for e in row]
    if pt.z != 0 or pt.w != 0:
        assert is_on_harmonic_line(real, pt) == ref_on_harmonic_line(real, pt)


gaussian = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda ab: complex(*ab))


@given(gaussian, gaussian, st.integers(0, 3), st.lists(coeff, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_harmonic_line_of_a_square_matches_fraction_reference(a, b, k, cg):
    # P = |l g|^2 with l = a z + b w is harmonic along the line l = 0,
    # through (-b, a): a generated family of positives
    if a == 0 and b == 0:
        a = 1
    line = mono(1, 0, 0, 0, *map(Fraction, (a.real, a.imag))) + \
        mono(0, 0, 1, 0, *map(Fraction, (b.real, b.imag)))
    g = WirtingerPoly([((j, 0, k - j, 0), c) for j, c in zip(range(k + 1), cg)])
    f = line * g
    P = f * f.conjugate()
    on = PointC2(-b, a)
    assert is_on_harmonic_line(P, on) and ref_on_harmonic_line(P, on)
    off = PointC2(a.conjugate(), b.conjugate())      # l(off) = |a|^2 + |b|^2
    assert is_on_harmonic_line(P, off) == ref_on_harmonic_line(P, off)


def test_eval_overflow_is_numeric_error():
    with pytest.raises(NumericError, match="overflows"):
        poly_eval(make_pzw(), PointC2(1e300, 1e300))


def test_hessian_is_derived_once():
    p = make_pzw()
    assert complex_hessian(p) is complex_hessian(p)
    with pytest.raises(AssumptionError):      # a non-real polynomial raises every time
        complex_hessian(mono(1, 0, 0, 0))
    with pytest.raises(AssumptionError):
        complex_hessian(mono(1, 0, 0, 0))


# -- the integer store -------------------------------------------------------------
#
# Numerators over the least common denominator: one canonical store per
# polynomial, whatever route built it.

def _assert_canonical(p):
    nums = [x for cf in p._nums.values() for x in cf]
    assert p._den > 0 and gcd(p._den, *nums) == 1
    assert all(re or im for re, im in p._nums.values())
    assert p._den == lcm(*(x.denominator for cf in p.terms.values() for x in cf))
    assert p._den == 1 or not p.is_zero


@given(polys, polys, polys, points)
@settings(max_examples=80, deadline=None)
def test_integer_store_is_canonical(p, q, r, pt):
    real = p * p.conjugate()
    built = [p, p + q, p - q, p * q, -p, p.conjugate(), poly_diff(p, "zbar"),
             p.scale(Fraction(3, 7), Fraction(-1, 6)), p - p, levi_determinant(real + q + q.conjugate())]
    for x in built:
        _assert_canonical(x)
    assert (p - p)._den == 1 and WirtingerPoly.zero()._den == 1
    for a, b in [((p * q) * r, p * (q * r)), ((p + q) - q, p),
                 (p * (q + r), p * q + p * r),
                 (p.scale(Fraction(1, 3)).scale(3), p), (p.conjugate().conjugate(), p)]:
        assert a == b and hash(a) == hash(b)
        assert (a._den, a._nums) == (b._den, b._nums)


@given(term_maps)
@settings(max_examples=80, deadline=None)
def test_terms_are_the_reduced_fractions_of_the_records(terms):
    p = WirtingerPoly(terms)
    back = poly_from_records(poly_to_records(p))
    assert back == p
    assert p.terms == back.terms == {exp: cf for exp, cf in terms.items() if cf != (0, 0)}
    assert [(x.numerator, x.denominator) for _, cf in p.items() for x in cf] == \
        [(x.numerator, x.denominator) for _, cf in back.items() for x in cf]


# poly_to_records of each fixture polynomial (both components of a field),
# and of one Hessian entry of |f|^2 with non-dyadic coefficients, as the
# Fraction store wrote them
_RECORD_PINS = {
    "ball": ['[{"dz": 0, "dzbar": 0, "dw": 1, "dwbar": 1, "re": "1", "im": "0"}, '
             '{"dz": 1, "dzbar": 1, "dw": 0, "dwbar": 0, "re": "1", "im": "0"}]'],
    "field_bad": ['[{"dz": 0, "dzbar": 0, "dw": 0, "dwbar": 0, "re": "1", "im": "0"}]',
                  '[{"dz": 0, "dzbar": 1, "dw": 0, "dwbar": 0, "re": "1", "im": "0"}]'],
    "field_nonholo": ['[{"dz": 1, "dzbar": 1, "dw": 0, "dwbar": 0, "re": "-1", "im": "0"}]',
                      '[{"dz": 0, "dzbar": 1, "dw": 1, "dwbar": 0, "re": "1", "im": "0"}]'],
    "field_v3": ['[{"dz": 1, "dzbar": 0, "dw": 0, "dwbar": 0, "re": "-1", "im": "0"}]',
                 '[{"dz": 0, "dzbar": 0, "dw": 1, "dwbar": 0, "re": "1", "im": "0"}]'],
    "pz4": ['[{"dz": 2, "dzbar": 2, "dw": 0, "dwbar": 0, "re": "1", "im": "0"}]'],
    "pzw": ['[{"dz": 1, "dzbar": 1, "dw": 1, "dwbar": 1, "re": "1", "im": "0"}]'],
}
_HESSIAN_PIN = (
    '[{"dz": 0, "dzbar": 0, "dw": 1, "dwbar": 1, "re": "-5/4", "im": "5/3"}, '
    '{"dz": 0, "dzbar": 1, "dw": 1, "dwbar": 0, "re": "-15/7", "im": "10/21"}, '
    '{"dz": 1, "dzbar": 0, "dw": 0, "dwbar": 1, "re": "25/36", "im": "0"}, '
    '{"dz": 1, "dzbar": 1, "dw": 0, "dwbar": 0, "re": "5/9", "im": "10/21"}]')


@pytest.mark.parametrize("name", sorted(_RECORD_PINS))
def test_fixture_records_are_unchanged(name):
    fx = load_fixture(FIXTURE_DIR / f"{name}.json")
    found = [fx.polynomial] if fx.polynomial is not None else [fx.field.comp_z, fx.field.comp_w]
    assert [json.dumps(poly_to_records(p)) for p in found] == _RECORD_PINS[name]


def test_non_dyadic_records_are_unchanged():
    f = (mono(2, 0, 0, 0, Fraction(1, 3), Fraction(-2, 7)) + mono(1, 0, 1, 0, Fraction(5, 6))
         + mono(0, 0, 2, 0, Fraction(-3, 4), 1))
    H = complex_hessian(f * f.conjugate())
    assert json.dumps(poly_to_records(H.entries[0][1])) == _HESSIAN_PIN
