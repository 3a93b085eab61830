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
from math import gcd, hypot, inf, lcm
from typing import Iterable, Mapping, Sequence, Union

from .errors import NumericError

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
    "line_hessian_restriction",
    "is_on_harmonic_line",
    "psh_sample_check",
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


def as_int(value) -> int:
    """value as an int.  Unlike int(), a value with a fractional part (2.5,
    "2.5") raises ValueError instead of being truncated; 4.0 is 4."""
    if type(value) is int:
        return value
    q = Fraction(value)  # exact for a float; OverflowError for an infinity
    if q.denominator != 1:
        raise ValueError(f"{value!r} is not an integer")
    return q.numerator


class WirtingerPoly:
    """Sparse polynomial in (z, zbar, w, wbar) with exact complex-rational
    coefficients.  Instances are immutable; all arithmetic returns new
    polynomials in canonical form."""

    __slots__ = ("_nums", "_den", "_hessian")

    def __init__(self, terms: Union[Mapping[Exponent, Coeff], Iterable] = ()):
        coeffs: dict[Exponent, Coeff] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            exp = tuple(map(as_int, exp))
            if len(exp) != 4 or any(e < 0 for e in exp):
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
        parts = []
        for exp, cf in self.items():
            parts.append(_term_str(exp, cf))
        return " + ".join(parts)

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
    """Accept a PointC2-like object (attributes .z/.w) or a (z, w) pair."""
    if hasattr(q, "z") and hasattr(q, "w"):
        return complex(q.z), complex(q.w)
    z, w = q
    return complex(z), complex(w)


def _gpowers(re: int, im: int, n: int) -> list[tuple[int, int]]:
    out = [(1, 0)]
    for _ in range(n):
        a, b = out[-1]
        out.append((a * re - b * im, a * im + b * re))
    return out


def _substitute(p: WirtingerPoly, q, key) -> tuple[dict, int]:
    """Substitute the exact values of z, zbar, w, wbar at the float point q
    into the terms of p and sum them by key(exponent).  Returns the sums as
    Gaussian-integer numerators over one positive common denominator.

    Each float is dyadic, so the point is lifted exactly to Gaussian
    integers over 2**e, and a term of degree n gets the factor
    2**(e*(top - n)) that brings it over the common 2**(e*top)."""
    z, w = _zw(q)
    ratios = [x.as_integer_ratio() for x in (z.real, z.imag, w.real, w.imag)]
    e = max(den for _, den in ratios).bit_length() - 1
    zr, zi, wr, wi = (num << (e - den.bit_length() + 1) for num, den in ratios)
    nums, d = p._nums, p._den
    top = max((sum(exp) for exp in nums), default=0)
    pows = [_gpowers(zr, zi, top), _gpowers(zr, -zi, top),
            _gpowers(wr, wi, top), _gpowers(wr, -wi, top)]
    out: dict = {}
    for exp, (re, im) in nums.items():
        for table, n in zip(pows, exp):
            if n:
                a, b = table[n]
                re, im = re * a - im * b, re * b + im * a
        shift = e * (top - sum(exp))
        k = key(exp)
        r0, i0 = out.get(k, (0, 0))
        out[k] = (r0 + (re << shift), i0 + (im << shift))
    return out, d << (e * top)


def poly_eval(p: WirtingerPoly, q) -> complex:
    """Evaluate p at the conjugate-consistent point q (zbar = conj z,
    wbar = conj w).

    The float components of q are lifted to exact dyadic rationals, the
    whole sum is accumulated on integers, and the result is rounded to a
    complex float in one correctly rounded integer division.  Raises
    NumericError when a part of the value overflows a float.
    """
    sums, d = _substitute(p, q, lambda exp: 0)
    re, im = sums.get(0, (0, 0))
    try:
        return complex(re / d, im / d)
    except OverflowError as exc:
        raise NumericError(f"polynomial value at {_zw(q)} overflows a float") from exc


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

    def eval_at(self, q) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
        e = self.entries
        return ((poly_eval(e[0][0], q), poly_eval(e[0][1], q)),
                (poly_eval(e[1][0], q), poly_eval(e[1][1], q)))

    def matvec(self, vz: WirtingerPoly, vw: WirtingerPoly):
        e = self.entries
        return (e[0][0] * vz + e[0][1] * vw,
                e[1][0] * vz + e[1][1] * vw)


def complex_hessian(p: WirtingerPoly) -> PolyMatrix2:
    """Matrix of mixed second derivatives
    [[p_z_zbar, p_w_zbar], [p_z_wbar, p_w_wbar]] for real-valued p, derived
    once per polynomial and kept on it."""
    try:
        return p._hessian
    except AttributeError:
        pass
    if not poly_is_real(p):
        raise ValueError("complex Hessian requires a real-valued polynomial")
    p_zbar = poly_diff(p, "zbar")
    p_wbar = poly_diff(p, "wbar")
    p._hessian = PolyMatrix2((
        (poly_diff(p_zbar, "z"), poly_diff(p_zbar, "w")),
        (poly_diff(p_wbar, "z"), poly_diff(p_wbar, "w")),
    ))
    return p._hessian


def hessian_eval(p: WirtingerPoly, q) -> tuple[tuple[complex, complex],
                                                tuple[complex, complex]]:
    """Numeric 2x2 complex Hessian of p at q, as its rows."""
    return complex_hessian(p).eval_at(q)


def levi_determinant(p: WirtingerPoly) -> WirtingerPoly:
    """det of the complex Hessian, as an exact polynomial.  Identical
    vanishing is the exact test `levi_determinant(p).is_zero`."""
    return complex_hessian(p).det()


def _restrict_to_line(p: WirtingerPoly, direction) -> WirtingerPoly:
    # Substitute z -> s*dz, w -> s*dw.  Output lives in the same 4-variable
    # representation with exponents (j, k, 0, 0) meaning s^j sbar^k.
    sums, d = _substitute(p, direction, lambda e: (e[0] + e[2], e[1] + e[3], 0, 0))
    return _from_ints(sums, d)


def _constant(c: complex) -> WirtingerPoly:
    # the exact constant c: both parts are dyadic, over powers of two
    (re, dr), (im, di) = c.real.as_integer_ratio(), c.imag.as_integer_ratio()
    d = max(dr, di)
    return _from_ints({(0, 0, 0, 0): (re * (d // dr), im * (d // di))}, d)


def line_hessian_restriction(p: WirtingerPoly, direction):
    """Both components of hessian(s*direction) . direction as exact
    polynomials in (s, sbar).

    The float components of `direction` are lifted exactly to rationals, so
    the result is an exact polynomial and the "vanishes identically" test
    stays decidable.  Returned polynomials use exponents (j, k, 0, 0) for
    s^j sbar^k.
    """
    z, w = _zw(direction)
    if z == 0 and w == 0:
        raise ValueError("direction must be nonzero")
    H = complex_hessian(p)
    comps = []
    for row in (0, 1):
        acc = WirtingerPoly.zero()
        for col, d in ((0, z), (1, w)):
            restricted = _restrict_to_line(H.entries[row][col], direction)
            acc = acc + restricted * _constant(d)
        comps.append(acc)
    return comps[0], comps[1]


def is_on_harmonic_line(p: WirtingerPoly, x) -> bool:
    """True iff p is harmonic along the complex line through 0 and x, i.e.
    both components of the line-restricted Hessian action vanish exactly."""
    c0, c1 = line_hessian_restriction(p, x)
    return c0.is_zero and c1.is_zero


def psh_sample_check(p: WirtingerPoly, samples: Sequence, tol: float = 1e-9):
    """Sampling-based plurisubharmonicity sanity check.

    Evaluates the numeric Hessian at each sample and passes iff the
    smallest eigenvalue of its Hermitian part [[a, c], [conj c, d]],
    (a + d)/2 - hypot((a - d)/2, |c|), is >= -tol everywhere.  Returns
    (passed, worst) where worst is the most negative eigenvalue seen.
    """
    H = complex_hessian(p)
    worst = inf
    for q in samples:
        (h00, h01), (h10, h11) = H.eval_at(q)
        a, d, c = h00.real, h11.real, 0.5 * (h01 + h10.conjugate())
        worst = min(worst, (a + d) / 2 - hypot((a - d) / 2, abs(c)))
    return (worst >= -tol), worst


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
    """Inverse of poly_to_records; coefficient strings are parsed as exact
    rationals (decimal strings like "0.25" and ratios like "1/3" both work)."""
    terms = []
    for rec in records:
        exp = (rec["dz"], rec["dzbar"], rec["dw"], rec["dwbar"])
        terms.append((exp, (Fraction(str(rec["re"])), Fraction(str(rec.get("im", "0"))))))
    return WirtingerPoly(terms)
