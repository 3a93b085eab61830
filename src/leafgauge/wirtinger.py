"""Exact polynomial algebra in two complex variables and their conjugates.

A polynomial in (z, zbar, w, wbar) is stored as a sparse map from exponent
quadruples (a, b, c, d), standing for z^a zbar^b w^c wbar^d, to
Gaussian-integer numerators (re, im) over one positive common denominator
den: the term's coefficient is (re + i*im) / den.  Every ring operation
(sum, product, formal derivative, conjugate) works on these integers and
is exact, so identity tests such as "this determinant is the zero
polynomial" are decided by an empty term map, never by a floating-point
tolerance.

Canonical form: no zero numerators, at most one entry per quadruple, and
den the least common denominator (gcd(den, every numerator) = 1; the zero
polynomial has den 1), so equal polynomials have equal stores.  Terms are
ordered lexicographically on (a, b, c, d) wherever order matters
(printing, serialization, hashing).  Coefficients become reduced Fractions
only at the boundary: `terms`, `items`, printing and serialization.  A
float point is dyadic, so it lifts to integers exactly.  Rounding happens
only when a polynomial is evaluated at a numeric point, and then once, in
a correctly rounded integer division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

from .errors import AssumptionError, NumericError

__all__ = [
    "WirtingerPoly",
    "PolyMatrix2",
    "VARIABLES",
    "poly_eval",
    "poly_diff",
    "poly_is_real",
    "homogeneity_degree",
    "complex_hessian",
    "hessian_eval",
    "levi_determinant",
    "is_on_harmonic_line",
    "poly_from_records",
    "poly_to_records",
]

VARIABLES = ("z", "zbar", "w", "wbar")
_VAR_INDEX = {name: k for k, name in enumerate(VARIABLES)}

Exponent = tuple[int, int, int, int]
Coeff = tuple[Fraction, Fraction]
Rational = Union[int, Fraction, str]


def _coeff(re: Rational, im: Rational = 0) -> Coeff:
    return (Fraction(re), Fraction(im))


class WirtingerPoly:
    """Sparse polynomial in (z, zbar, w, wbar) with exact complex-rational
    coefficients.  Instances are immutable; all arithmetic returns new
    polynomials in canonical form."""

    # _derivs, _levi and _at cache the Hessian's derivatives, its
    # determinant and its value at the last point (see _dbar)
    __slots__ = ("_nums", "_den", "_derivs", "_levi", "_at")

    def __init__(self, terms: Union[Mapping[Exponent, Coeff], Iterable] = ()):
        coeffs: dict[Exponent, Coeff] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != 4 or not all(type(e) is int and e >= 0 for e in exp):
                raise ValueError(f"bad exponent quadruple {exp!r}")
            re, im = _coeff(coeff[0], coeff[1])
            r0, i0 = coeffs.get(exp, (0, 0))
            coeffs[exp] = (r0 + re, i0 + im)
        d = lcm(*(x.denominator for cf in coeffs.values() for x in cf))
        canon = _from_ints({exp: (re.numerator * (d // re.denominator),
                                  im.numerator * (d // im.denominator))
                            for exp, (re, im) in coeffs.items()}, d)
        self._nums, self._den = canon._nums, canon._den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "WirtingerPoly":
        return cls()

    @classmethod
    def constant(cls, re: Rational, im: Rational = 0) -> "WirtingerPoly":
        return cls([((0, 0, 0, 0), _coeff(re, im))])

    @classmethod
    def monomial(cls, a: int, b: int, c: int, d: int,
                 re: Rational = 1, im: Rational = 0) -> "WirtingerPoly":
        """The single term (re + i*im) * z^a zbar^b w^c wbar^d."""
        return cls([((a, b, c, d), _coeff(re, im))])

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Coeff]:
        """The term map with reduced Fraction coefficients (a new dict)."""
        d = self._den
        return {exp: (Fraction(re, d), Fraction(im, d)) for exp, (re, im) in self._nums.items()}

    def items(self):
        """Terms in lexicographic exponent order."""
        return sorted(self.terms.items())

    def int_items(self) -> tuple[list, int]:
        """The numerators (exponent, (re, im)) in lexicographic exponent
        order, and their common denominator."""
        return sorted(self._nums.items()), self._den

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WirtingerPoly):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, tuple(sorted(self._nums.items()))))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "WirtingerPoly") -> "WirtingerPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "WirtingerPoly") -> "WirtingerPoly":
        return self._combine(other, -1)

    def _combine(self, other, sign: int):
        # self + sign * other, over the lcm of the two denominators
        if not isinstance(other, WirtingerPoly):
            return NotImplemented
        da, db = self._den, other._den
        d = lcm(da, db)
        sa, sb = d // da, sign * (d // db)
        out = {exp: (re * sa, im * sa) for exp, (re, im) in self._nums.items()}
        for exp, (re, im) in other._nums.items():
            r0, i0 = out.get(exp, (0, 0))
            out[exp] = (r0 + re * sb, i0 + im * sb)
        return _from_ints(out, d)

    def __neg__(self) -> "WirtingerPoly":
        return _from_ints({exp: (-re, -im) for exp, (re, im) in self._nums.items()}, self._den)

    def __mul__(self, other: "WirtingerPoly") -> "WirtingerPoly":
        if not isinstance(other, WirtingerPoly):
            return NotImplemented
        out: dict = {}
        for ea, (ar, ai) in self._nums.items():
            for eb, (br, bi) in other._nums.items():
                exp = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
                r0, i0 = out.get(exp, (0, 0))
                out[exp] = (r0 + ar * br - ai * bi, i0 + ar * bi + ai * br)
        return _from_ints(out, self._den * other._den)

    def scale(self, re: Rational, im: Rational = 0) -> "WirtingerPoly":
        """Multiply by the exact complex scalar re + i*im."""
        return self * WirtingerPoly.constant(re, im)

    def conjugate(self) -> "WirtingerPoly":
        """The polynomial representing q -> conj(p(q)): exponents are swapped
        (a,b,c,d) -> (b,a,d,c) and coefficients conjugated."""
        return _from_ints({(b, a, d, c): (re, -im)
                           for (a, b, c, d), (re, im) in self._nums.items()}, self._den)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        return " + ".join(_term_str(exp, cf) for exp, cf in self.items())

    def __repr__(self) -> str:
        return f"WirtingerPoly({self!s})"


def _from_ints(nums: dict, d: int) -> WirtingerPoly:
    """The polynomial with Gaussian-integer numerators nums over the
    positive d, brought to canonical form by one gcd."""
    nums = {exp: cf for exp, cf in nums.items() if cf[0] or cf[1]}
    g = gcd(d, *(x for cf in nums.values() for x in cf))
    if g != 1:
        nums = {exp: (re // g, im // g) for exp, (re, im) in nums.items()}
    p = WirtingerPoly.__new__(WirtingerPoly)
    p._nums, p._den = nums, d // g
    return p


def _term_str(exp: Exponent, cf: Coeff) -> str:
    re, im = cf
    if im == 0:
        coeff = str(re)
    elif re == 0:
        coeff = f"{im}i"
    else:
        sign = "+" if im > 0 else "-"
        coeff = f"({re}{sign}{abs(im)}i)"
    factors = [f"{name}^{e}" if e > 1 else name
               for name, e in zip(VARIABLES, exp) if e > 0]
    if not factors:
        return coeff
    body = "*".join(factors)
    if coeff == "1":
        return body
    if coeff == "-1":
        return f"-{body}"
    return f"{coeff}*{body}"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _zw(q) -> tuple[complex, complex]:
    """(z, w) of a PointC2."""
    return complex(q.z), complex(q.w)


def _gpowers(re: int, im: int, n: int) -> list[tuple[int, int]]:
    out = [(1, 0)]
    for _ in range(n):
        a, b = out[-1]
        out.append((a * re - b * im, a * im + b * re))
    return out


def _lift(q, top: int) -> tuple[int, list]:
    """The float point q lifted exactly: each float is dyadic, so z, zbar, w
    and wbar times 2**e are Gaussian integers.  Returns e and their power
    tables up to the power top."""
    z, w = _zw(q)
    ratios = [x.as_integer_ratio() for x in (z.real, z.imag, w.real, w.imag)]
    e = max(den for _, den in ratios).bit_length() - 1
    zr, zi, wr, wi = (num << (e - den.bit_length() + 1) for num, den in ratios)
    return e, [_gpowers(zr, zi, top), _gpowers(zr, -zi, top),
               _gpowers(wr, wi, top), _gpowers(wr, -wi, top)]


def _top(p: WirtingerPoly) -> int:
    return max((sum(exp) for exp in p._nums), default=0)


def _substitute(p: WirtingerPoly, lift, key) -> tuple[dict, int]:
    """Substitute the lifted point (_lift) into the terms of p and sum them
    by key(exponent).  Returns the sums as Gaussian-integer numerators over
    one positive common denominator.

    With the tables up to the power top, a term of degree n gets the factor
    2**(e*(top - n)) that brings it over the common 2**(e*top)."""
    e, pows = lift
    top = len(pows[0]) - 1
    out: dict = {}
    for exp, (re, im) in p._nums.items():
        for table, n in zip(pows, exp):
            if n:
                a, b = table[n]
                re, im = re * a - im * b, re * b + im * a
        shift = e * (top - sum(exp))
        k = key(exp)
        r0, i0 = out.get(k, (0, 0))
        out[k] = (r0 + (re << shift), i0 + (im << shift))
    return out, p._den << (e * top)


def _value(p: WirtingerPoly, lift, q) -> complex:
    # p at the lifted point q, rounded once; raises NumericError on overflow
    sums, d = _substitute(p, lift, lambda exp: 0)
    re, im = sums.get(0, (0, 0))
    try:
        return complex(re / d, im / d)
    except OverflowError as exc:
        raise NumericError(f"polynomial value at {_zw(q)} overflows a float") from exc


def poly_eval(p: WirtingerPoly, q) -> complex:
    """Evaluate p at the conjugate-consistent point q (zbar = conj z,
    wbar = conj w).

    The float components of q are lifted to exact dyadic rationals, the
    whole sum is accumulated on integers, and the result is rounded to a
    complex float in one correctly rounded integer division.  Raises
    NumericError when a part of the value overflows a float.
    """
    return _value(p, _lift(q, _top(p)), q)


def poly_diff(p: WirtingerPoly, var: str) -> WirtingerPoly:
    """Formal partial derivative treating z, zbar, w, wbar as independent."""
    k = _VAR_INDEX[var]
    out = {}
    for exp, (re, im) in p._nums.items():
        e = exp[k]
        if e:
            out[exp[:k] + (e - 1,) + exp[k + 1:]] = (re * e, im * e)
    return _from_ints(out, p._den)


def poly_is_real(p: WirtingerPoly) -> bool:
    """Exact test that p takes real values on conjugate-consistent points:
    the coefficient of (a,b,c,d) must equal the conjugate of the
    coefficient of (b,a,d,c) for every term."""
    return p == p.conjugate()


def homogeneity_degree(p: WirtingerPoly):
    """Common total degree a+b+c+d of all terms, or None when the terms
    disagree (inhomogeneous).  The zero polynomial has no degree."""
    if p.is_zero:
        raise ValueError("degree undefined for the zero polynomial")
    degrees = {sum(exp) for exp in p._nums}
    if len(degrees) == 1:
        return degrees.pop()
    return None


# ---------------------------------------------------------------------------
# complex Hessian and derived objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyMatrix2:
    """2x2 matrix of WirtingerPoly entries (row-major)."""

    entries: tuple[tuple[WirtingerPoly, WirtingerPoly],
                   tuple[WirtingerPoly, WirtingerPoly]]

    def det(self) -> WirtingerPoly:
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    def matvec(self, vz: WirtingerPoly, vw: WirtingerPoly):
        e = self.entries
        return (e[0][0] * vz + e[0][1] * vw,
                e[1][0] * vz + e[1][1] * vw)


def _dbar(p: WirtingerPoly):
    # ((p_zbar, p_wbar), complex Hessian) of real-valued p, derived once and
    # kept on it
    try:
        return p._derivs
    except AttributeError:
        pass
    if not poly_is_real(p):
        raise AssumptionError("complex Hessian requires a real-valued polynomial")
    p_zbar = poly_diff(p, "zbar")
    p_wbar = poly_diff(p, "wbar")
    p._derivs = (p_zbar, p_wbar), PolyMatrix2((
        (poly_diff(p_zbar, "z"), poly_diff(p_zbar, "w")),
        (poly_diff(p_wbar, "z"), poly_diff(p_wbar, "w")),
    ))
    return p._derivs


def complex_hessian(p: WirtingerPoly) -> PolyMatrix2:
    """Matrix of mixed second derivatives
    [[p_z_zbar, p_w_zbar], [p_z_wbar, p_w_wbar]] for real-valued p, derived
    once per polynomial and kept on it.  Raises AssumptionError when p is
    not real: this is the realness check of every user of the Hessian."""
    return _dbar(p)[1]


def hessian_eval(p: WirtingerPoly, q) -> tuple[tuple[complex, complex],
                                                tuple[complex, complex]]:
    """Numeric 2x2 complex Hessian of p at q, as its rows, each entry its
    exact value rounded once (the bits of poly_eval).  The point is lifted
    once for all four entries, and the value at the last point is kept on p
    beside its derivatives: the base-point checks and the field selection
    read one evaluation.  Raises AssumptionError when p is not real."""
    rows = complex_hessian(p).entries
    key = _zw(q)
    at = getattr(p, "_at", None)
    if at is None or at[0] != key:
        lift = _lift(q, max(_top(e) for row in rows for e in row))
        p._at = key, tuple(tuple(_value(e, lift, q) for e in row) for row in rows)
    return p._at[1]


def levi_determinant(p: WirtingerPoly) -> WirtingerPoly:
    """det of the complex Hessian, as an exact polynomial, formed once per
    polynomial (two exact products) and kept on it.  Identical vanishing is
    the exact test `levi_determinant(p).is_zero`; by H.V1 = (0, det H) and
    H.V2 = (-det H, 0) it is also the annihilation verdict of both candidate
    fields.  Raises AssumptionError when p is not real."""
    try:
        return p._levi
    except AttributeError:
        p._levi = complex_hessian(p).det()
    return p._levi


def is_on_harmonic_line(p: WirtingerPoly, x) -> bool:
    """True iff p is harmonic along the complex line through 0 and x, i.e.
    hessian(s*x) . x vanishes identically in s.

    By the chain rule row r of hessian(s*x) . x is the s-derivative of
    F_r(s) = p_zbar(s*x) (r = 0) or p_wbar(s*x) (r = 1), so it vanishes
    identically iff neither restriction, a polynomial in (s, sbar), has a
    term with a positive power of s.  The float components of x are lifted
    exactly, so the test is decided on integers."""
    z, w = _zw(x)
    if z == 0 and w == 0:
        raise ValueError("direction must be nonzero")
    firsts = _dbar(p)[0]
    lift = _lift(x, max(map(_top, firsts)))
    for f in firsts:
        sums, _ = _substitute(f, lift, lambda e: (e[0] + e[2], e[1] + e[3]))
        if any(j and (re or im) for (j, _), (re, im) in sums.items()):
            return False
    return True


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def poly_to_records(p: WirtingerPoly) -> list[dict]:
    """Term records with exact rational coefficients rendered as strings."""
    return [
        {"dz": a, "dzbar": b, "dw": c, "dwbar": d,
         "re": str(re), "im": str(im)}
        for (a, b, c, d), (re, im) in p.items()
    ]


def poly_from_records(records: Iterable[Mapping]) -> WirtingerPoly:
    """Inverse of poly_to_records: int exponents, and coefficients that
    WirtingerPoly takes (ints, Fractions, or strings like "0.25" and "1/3");
    im may be left out.  JSON input is read by leafgauge.fixtures first."""
    return WirtingerPoly(((r["dz"], r["dzbar"], r["dw"], r["dwbar"]), (r["re"], r.get("im", 0)))
                         for r in records)
