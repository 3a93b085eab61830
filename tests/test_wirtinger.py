"""Exact polynomial algebra: worked examples and algebraic invariants."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafgauge import (
    NumericError,
    PointC2,
    WirtingerPoly,
    complex_hessian,
    hessian_eval,
    homogeneity_degree,
    is_on_harmonic_line,
    levi_determinant,
    line_hessian_restriction,
    poly_diff,
    poly_eval,
    poly_from_records,
    poly_is_real,
    poly_to_records,
    psh_sample_check,
)
from conftest import make_ball, make_pz4, make_pzw


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
    with pytest.raises(ValueError):
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

def test_line_restriction_pz4_w_axis():
    c0, c1 = line_hessian_restriction(make_pz4(), PointC2(0, 1))
    assert c0.is_zero and c1.is_zero


def test_line_restriction_pz4_z_axis():
    c0, c1 = line_hessian_restriction(make_pz4(), PointC2(1, 0))
    assert c0 == mono(1, 1, 0, 0, 4)  # 4 s sbar
    assert c1.is_zero


def test_line_restriction_pzw_diagonal():
    c0, c1 = line_hessian_restriction(make_pzw(), PointC2(1, 1))
    assert c0 == mono(1, 1, 0, 0, 2)  # row sums of the Hessian at (s, s)
    assert c1 == mono(1, 1, 0, 0, 2)


def test_harmonic_line_membership():
    assert is_on_harmonic_line(make_pz4(), PointC2(0, 1))
    assert not is_on_harmonic_line(make_pz4(), PointC2(1, 0))
    assert not is_on_harmonic_line(make_pzw(), PointC2(1, 1))


# -- psh sampling check ------------------------------------------------------

def _sphere_samples(n=50, seed=7):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        pts.append(PointC2(complex(v[0], v[1]), complex(v[2], v[3])))
    return pts


def test_psh_ball_passes():
    ok, worst = psh_sample_check(make_ball(), _sphere_samples(), 1e-12)
    assert ok and worst >= 1 - 1e-12


def test_psh_pzw_passes():
    # trace >= 0 and det = 0: positive semidefinite on the sphere
    ok, worst = psh_sample_check(make_pzw(), _sphere_samples(), 1e-9)
    assert ok and worst >= -1e-9


def test_psh_negative_example_fails():
    ok, worst = psh_sample_check(mono(1, 1, 0, 0, -1), [PointC2(1, 0)], 1e-9)
    assert not ok
    assert worst == pytest.approx(-1.0, abs=1e-12)


# -- serialization -----------------------------------------------------------

def test_records_round_trip():
    p = mono(1, 0, 0, 1, Fraction(1, 3), -2) + mono(0, 2, 1, 0, "0.25")
    assert poly_from_records(poly_to_records(p)) == p


# -- algebraic invariants (property-based) -------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
exponent = st.tuples(st.integers(0, 3), st.integers(0, 3),
                     st.integers(0, 3), st.integers(0, 3))
coeff = st.tuples(rationals, rationals)
polys = st.dictionaries(exponent, coeff, max_size=4).map(WirtingerPoly)
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
    assert [c.terms for c in line_hessian_restriction(real, x)] == ref_line_restriction(real, x)


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
    assert [_hex(v) for v in hessian_eval(real, pt).ravel()] == \
        [_hex(ref_eval(e, pt)) for row in ref for e in row]
    if pt.z != 0 or pt.w != 0:
        assert [c.terms for c in line_hessian_restriction(real, pt)] == \
            ref_line_restriction(real, pt)


def test_eval_overflow_is_numeric_error():
    with pytest.raises(NumericError, match="overflows"):
        poly_eval(make_pzw(), PointC2(1e300, 1e300))


def test_hessian_is_derived_once():
    p = make_pzw()
    assert complex_hessian(p) is complex_hessian(p)
    with pytest.raises(ValueError):      # a non-real polynomial raises every time
        complex_hessian(mono(1, 0, 0, 0))
    with pytest.raises(ValueError):
        complex_hessian(mono(1, 0, 0, 0))
