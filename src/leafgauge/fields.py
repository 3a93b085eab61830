"""Polynomial vector fields on C^2 and the admissibility checks they must
pass before a leaf chart can be built on them.

A field V = (comp_z, comp_w) with a declared homogeneity degree spans a
complex line at each point where it does not vanish.  Its two real views
X1 (of V) and X2 (of i*V) span a rank-2 real distribution; the checks in
this module probe nonvanishing, involutivity of that distribution,
transversality to the radial direction, and exact homogeneity of the
components.  base_point decides the facts at a base point once, from one
field value, into the BasePoint record that charts and gauges read.

The candidate-field construction takes a real-valued polynomial with
identically vanishing Levi determinant and returns the two columns of its
rotated Hessian; whichever of them survives at the base point annihilates
the Hessian and is tangent to the level foliation.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

from .errors import AssumptionError, NumericError, RankDropError
from .wirtinger import (
    WirtingerPoly,
    complex_hessian,
    hessian_eval,
    homogeneity_degree,
    levi_determinant,
    poly_diff,
)

__all__ = [
    "PointC2",
    "VectorFieldC2",
    "CheckResult",
    "field_eval",
    "real_views",
    "vanishes",
    "derive_candidate_fields",
    "select_field",
    "annihilation_check",
    "lie_bracket_real",
    "bracket_span_residual",
    "involutivity_check",
    "transversality_check",
    "BasePoint",
    "base_point",
    "homogeneity_check_field",
]

NONVANISH_THRESHOLD = 1e-8   # of vanishes, relative to max(1, |q|)^m
TANGENCY_SINE = 1e-4         # of _tangency, a sine: no units


@dataclass(frozen=True)
class PointC2:
    """A point of C^2 with a canonical real view (Re z, Im z, Re w, Im w)."""

    z: complex
    w: complex

    def to_real4(self) -> tuple[float, float, float, float]:
        return (self.z.real, self.z.imag, self.w.real, self.w.imag)

    @classmethod
    def from_real4(cls, v: Sequence[float]) -> "PointC2":
        return cls(complex(float(v[0]), float(v[1])), complex(float(v[2]), float(v[3])))

    def norm(self) -> float:
        return math.hypot(self.z.real, self.z.imag, self.w.real, self.w.imag)

    def scale(self, t: float) -> "PointC2":
        return PointC2(t * self.z, t * self.w)


# Factors per emitted product statement: keeps every expression shallow, so
# no exponent can push the compiler into its recursion limit.
_CHUNK = 32

# A Runge-Kutta pair: the rows of stages 2-s, the weights (also the row of the
# FSAL stage s + 1, at the update), the error rows (summed as err0, err1, ...),
# the step's error norm over those sums, the step-size exponent and the
# first-step factor.  Zero weights are left out of the emitted sums.
_Tableau = namedtuple("_Tableau", "rows weights errors norm expo first_step")
# Dormand-Prince 5(4) (Dormand & Prince 1980): one error row, the difference
# of the 5th-order weights to the embedded 4th-order ones; the RMS norm over
# the four real components.
_DP5 = _Tableau(
    ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
     (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
     (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    ((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40),),
    "sqrt(err0 / 4.0)", -1 / 5, 0.01)
# Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.10), the decimals of Hairer's dop853.f rounded to doubles: the 5th-
# order error row, then the difference of the 8th-order weights to the
# embedded 3rd-order ones.  Hairer's combined estimate is
# |h| E5^2 / sqrt((E5^2 + E3^2 / 100) n), with h inside both sums.
_DOP853_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
             1.8915178993145003, -5.801203960010585, 0.3111643669578199,
             -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_DOP853 = _Tableau(
    ((0.05260015195876773,), (0.0197250569845379, 0.0591751709536137),
     (0.02958758547680685, 0.0, 0.08876275643042054),
     (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
     (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
     (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
     (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
      -0.015319437748624402, 0.008273789163814023),
     (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
      27.59209969944671, 20.154067550477894, -43.48988418106996),
     (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
      21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
     (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
      -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
      -3.0467644718982196),
     (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
      -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
      12.360567175794303, 0.6433927460157636)),
    _DOP853_B,
    ((0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
      1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
      -0.022355307863886294),
     tuple(b - c for b, c in zip(_DOP853_B, (0.2440944881889764, 0, 0, 0, 0, 0, 0, 0,
                                              0.7338466882816118, 0, 0, 0.022058823529411766)))),
    "err0 / sqrt((err0 + 0.01 * err1) * 4.0) if err0 else 0.0", -1 / 8, 1.0)

# Stage k = mix * V(z, w), after the nonvanishing monitor on V(z, w) = (r0, r1),
# vanishes in squared form.  The squared norms are real parts of products with
# the conjugates ({z}b and {w}b are those of the field code): each product's
# real part is re^2 + im^2 exactly, and the two are added as a pair.  An
# infinite state raises no OverflowError (inf ** deg is inf) but fails the
# monitor, where scale_sq * 2 == scale_sq (scale_sq >= 1) tells it apart.
_STAGE = """\
nv_sq = (r0 * r0.conjugate() + r1 * r1.conjugate()).real
r_sq = ({z} * {z}b + {w} * {w}b).real
try:
    scale_sq = (r_sq if r_sq > 1.0 else 1.0) ** deg
except OverflowError:
    raise NumericError("flow blew up: state norm overflowed") from None
if nv_sq <= thr_sq * scale_sq:
    if scale_sq * 2 == scale_sq:
        raise NumericError("flow blew up: state norm overflowed")
    raise RankDropError("field norm below threshold along trajectory")
k{k}z = mix * r0
k{k}w = mix * r1"""


def _bind(polys, ns: dict) -> tuple:
    """Bind the coefficients of polys in ns as c0, c1, ..., in the term order
    of the generated code, and return the shape of polys: per polynomial, its
    exponent tuples (of z, zbar, w, wbar) in lexicographic order.  Raises
    NumericError for a coefficient that overflows a float."""
    shape, n = [], 0
    for poly in polys:
        items, den = poly.int_items()
        for exp, (re, im) in items:
            try:
                ns[f"c{n}"] = complex(re / den, im / den)
            except OverflowError:
                raise NumericError(f"the coefficient of the term {exp} (exponents of z, zbar, "
                                   f"w, wbar) overflows a float") from None
            n += 1
        shape.append(tuple(exp for exp, _ in items))
    return tuple(shape)


def _field_lines(shape: tuple, z: str = "z", w: str = "w") -> list[str]:
    """Statements setting r0, r1, ... to the polynomials of shape (as _bind
    returns it) at (z, w); the source depends on the exponents alone and reads
    the coefficients as the globals c0, c1, ....  Each term is
    coeff * z^a * zbar^b * w^c * wbar^d, multiplied left to right and
    accumulated from 0j in lexicographic term order."""
    lines = [f"{z}b = {z}.conjugate()", f"{w}b = {w}.conjugate()"]
    n = 0
    for k, exps in enumerate(shape):
        lines.append(f"r{k} = 0j")
        for exp in exps:
            factors = [f"c{n}"]
            n += 1
            for var, e in zip((z, z + "b", w, w + "b"), exp):
                factors += [var] * e
            prods = [" * ".join(factors[i:i + _CHUNK]) for i in range(0, len(factors), _CHUNK)]
            lines.append(f"t = {prods[0]}")
            lines += [f"t = t * {prod}" for prod in prods[1:]]
            lines.append(f"r{k} += t")
    return lines


def _step_lines(tableau: _Tableau, shape: tuple) -> list[str]:
    """The body of step(z, w, h, mix, k1z, k1w, tol) of the pair tableau on a
    field of shape; stage s + 1 is at the update.  The weights are complex
    literals: a float times a complex is computed as (a + 0j) times it, so
    the products keep their bits and skip the float's failed dispatch."""

    def combo(row, var: str) -> str:
        return " + ".join(f"{complex(a)!r} * k{j}{var}" for j, a in enumerate(row, 1) if a)

    step = []
    for k, row in enumerate((*tableau.rows, tableau.weights), 2):
        step += [f"z{k} = z + h * ({combo(row, 'z')})", f"w{k} = w + h * ({combo(row, 'w')})",
                 *_field_lines(shape, f"z{k}", f"w{k}"),
                 *_STAGE.format(z=f"z{k}", w=f"w{k}", k=k).split("\n")]
    for i, row in enumerate(tableau.errors):
        step += [f"e{i}{v} = h * ({combo(row, v)})" for v in "zw"]
    add = ""
    for v in "zw":
        for part in ("real", "imag"):
            step += [f"y = abs({v}.{part})", f"yn = abs({v}{k}.{part})",
                     "sc = tol + tol * (yn if yn > y else y)"]
            step += [f"err{i} {add}= (e{i}{v}.{part} / sc) ** 2"
                     for i in range(len(tableau.errors))]
            add = "+"
    step.append(f"return z{k}, w{k}, r0, r1, k{k}z, k{k}w, {tableau.norm}")
    return step


_TABLEAUS = {"dp5": _DP5, "dop853": _DOP853}
# Bound of the code cache: distinct (kind, shape) pairs kept compiled at once.
CODE_CACHE_SIZE = 256


@lru_cache(maxsize=CODE_CACHE_SIZE)
def _code(kind: str, shape: tuple):
    """The compiled module code of the one function of kind for polynomials
    of shape: f(z, w) -> their values ("field", "jacobian"), the step of a
    key of _TABLEAUS, or first, the first stage from a given field value,
    which reads no weight and no field term (shape ()).  The source depends
    on nothing else, so each is compiled once per process; every field binds
    its own coefficients (_exec)."""
    if kind == "first":
        sig, body = "first(z, w, r0, r1, mix)", [
            "zb = z.conjugate()", "wb = w.conjugate()",
            *_STAGE.format(z="z", w="w", k=1).split("\n"), "return k1z, k1w"]
    elif kind in _TABLEAUS:
        sig, body = "step(z, w, h, mix, k1z, k1w, tol)", _step_lines(_TABLEAUS[kind], shape)
    else:
        sig, body = "f(z, w)", _field_lines(shape) + [
            "return " + ", ".join(f"r{k}" for k in range(len(shape)))]
    return compile("\n".join([f"def {sig}:", *("    " + b for b in body)]), f"<{kind}>", "exec")


def _exec(kind: str, shape: tuple, ns: dict):
    """Instantiate the one function of the code of kind for shape with the
    globals ns, and take it out of ns so that the two form no reference
    cycle."""
    code = _code(kind, shape)
    exec(code, ns)
    return ns.pop(code.co_names[0])


def _namespace(V: "VectorFieldC2") -> tuple:
    """(shape, globals) of the generated code of V, bound once per field and
    shared by its value, first stage and steps: its coefficients (_bind) and
    deg, thr_sq, sqrt and the two error classes of the monitor and norms."""
    ns = dict(deg=V.degree, thr_sq=NONVANISH_THRESHOLD * NONVANISH_THRESHOLD, sqrt=math.sqrt,
              NumericError=NumericError, RankDropError=RankDropError)
    return _bind((V.comp_z, V.comp_w), ns), ns


@dataclass(frozen=True)
class VectorFieldC2:
    """Vector field on C^2 with WirtingerPoly components and a declared
    homogeneity degree.

    Construction is permissive: the declared degree is not verified here,
    so that inhomogeneous negative-control fields can be represented and
    then rejected by homogeneity_check_field.

    Bound at the first flow: _first(z, w, vz, vw, mix) -> (k1z, k1w) and
    the steps _dp5 and _dop853, (z, w, h, mix, k1z, k1w, tol) -> (zn, wn,
    vz, vw, kz, kw, err): the update, the field value of its FSAL stage,
    that stage and the pair's error norm.  Every stage runs the monitor.
    """

    comp_z: WirtingerPoly
    comp_w: WirtingerPoly
    degree: int

    def __post_init__(self):
        if int(self.degree) != self.degree or self.degree < 0:
            raise ValueError("degree must be a nonnegative integer")

    _namespace = cached_property(_namespace)

    @cached_property
    def _eval(self):
        return _exec("field", *self._namespace)

    def eval_complex(self, z: complex, w: complex) -> tuple[complex, complex]:
        """Float values of both components at (z, w), from the field's
        compiled straight-line code.  The flow steps inline the same
        statements, so the field value that a step hands back at its update
        has the bits of this evaluation there."""
        return self._eval(z, w)

    @cached_property
    def _first(self):
        return _exec("first", (), self._namespace[1])

    @cached_property
    def _dp5(self):
        return _exec("dp5", *self._namespace)

    @cached_property
    def _dop853(self):
        return _exec("dop853", *self._namespace)

    @cached_property
    def _jacobian(self):
        # (z, w) -> the zbar- and wbar-derivatives of comp_z, then of comp_w
        ns: dict = {}
        shape = _bind([poly_diff(c, var) for c in (self.comp_z, self.comp_w)
                       for var in ("zbar", "wbar")], ns)
        return _exec("jacobian", shape, ns)


class CheckResult(NamedTuple):
    passed: bool
    residual: float


def field_eval(V: VectorFieldC2, q: PointC2) -> PointC2:
    """The value of V at q as a point of C^2."""
    return PointC2(*V.eval_complex(q.z, q.w))


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(x * y for x, y in zip(a, b))


def real_views(V: VectorFieldC2, q: PointC2) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The real 4-vectors X1 = view(V(q)) and X2 = view(i*V(q))."""
    vz, vw = V.eval_complex(q.z, q.w)
    return (vz.real, vz.imag, vw.real, vw.imag), (-vz.imag, vz.real, -vw.imag, vw.real)


def _vanish_bound(q: PointC2, m: int) -> float:
    """NONVANISH_THRESHOLD * max(1, |q|)^m, the threshold of vanishes for a
    value of a degree-m map at q.  Raises NumericError on overflow."""
    try:
        return NONVANISH_THRESHOLD * max(1.0, q.norm()) ** m
    except OverflowError:
        raise NumericError(f"nonvanishing scale at {q} overflows a float") from None


def vanishes(norm: float, q: PointC2, m: int) -> bool:
    """The nonvanishing rule: a value of this norm of a degree-m map at q
    vanishes at or below _vanish_bound(q, m).  The per-stage monitor of the
    generated flow steps (_STAGE) is its squared form."""
    return norm <= _vanish_bound(q, m)


def derive_candidate_fields(P: WirtingerPoly):
    """The two candidate tangent fields of a Levi-degenerate polynomial:
    (-P_w_zbar, P_z_zbar) and (-P_w_wbar, P_z_wbar), each homogeneous of
    degree deg(P) - 2.  Raises AssumptionError unless P is real and
    homogeneous of degree >= 2."""
    H = complex_hessian(P)
    deg = None if P.is_zero else homogeneity_degree(P)
    if deg is None or deg < 2:
        raise AssumptionError("candidate fields need a polynomial homogeneous of degree >= 2")
    return tuple(VectorFieldC2(-h1, h0, deg - 2) for h0, h1 in H.entries)


def _live_candidate(P: WirtingerPoly, x: PointC2, m: int) -> tuple[int | None, str]:
    """The index of the first candidate value (-h01, h00), (-h11, h10) of
    hessian_eval(P, x) alive as a degree-m field's (vanishes), else None;
    and the larger candidate norm against its threshold, as text."""
    (h00, h01), (h10, h11) = hessian_eval(P, x)
    norms = (PointC2(-h01, h00).norm(), PointC2(-h11, h10).norm())
    k = next((k for k, norm in enumerate(norms) if not vanishes(norm, x, m)), None)
    return k, f"larger candidate norm {max(norms):.3e}, threshold {_vanish_bound(x, m):.3e}"


def select_field(P: WirtingerPoly, x: PointC2) -> VectorFieldC2:
    """The first candidate field alive at x by _live_candidate, the test of
    validate_hypotheses; AssumptionError when the Hessian vanishes there."""
    candidates = derive_candidate_fields(P)
    k, detail = _live_candidate(P, x, candidates[0].degree)
    if k is None:
        raise AssumptionError(f"Hessian vanishes at base point: {detail}")
    return candidates[k]


def annihilation_check(P: WirtingerPoly, V: VectorFieldC2) -> bool:
    """Exact test that the complex Hessian H of P annihilates V as a
    polynomial identity.  For the candidate columns V1 = (-h01, h00) and
    V2 = (-h11, h10) the ring gives H.V1 = (0, det H) and
    H.V2 = (-det H, 0) term by term, so their verdict is that of
    levi_determinant(P), formed once per P; any other V takes the exact
    matrix-vector product.  Raises AssumptionError when P is not real."""
    H = complex_hessian(P)
    (h00, h01), (h10, h11) = H.entries
    if (V.comp_w == h00 and V.comp_z == -h01) or (V.comp_w == h10 and V.comp_z == -h11):
        return levi_determinant(P).is_zero
    r0, r1 = H.matvec(V.comp_z, V.comp_w)
    return r0.is_zero and r1.is_zero


def _project(V: VectorFieldC2, p: PointC2):
    """The bracket split at p, from one field value: (X1, a, b, br, perp)
    with X1 = view(V(p)), br = [X1, X2](p) (see lie_bracket_real), a = X1.br,
    b = X2.br and perp the part of br off span{X1, X2} (all of br where
    X1 = 0).  X2 = view(i V(p)) = (-x1, x0, -x3, x2) is orthogonal to X1
    with its norm.  The dot products are written out, summed left to right,
    so every residual keeps the bits of the 4-vector loops they replace."""
    vz, vw = V.eval_complex(p.z, p.w)
    cz, cw = 2j * vz.conjugate(), 2j * vw.conjugate()
    z_zb, z_wb, w_zb, w_wb = V._jacobian(p.z, p.w)
    bz, bw = z_zb * cz + z_wb * cw, w_zb * cz + w_wb * cw
    x0, x1, x2, x3 = X1 = (vz.real, vz.imag, vw.real, vw.imag)
    br = (bz.real, bz.imag, bw.real, bw.imag)
    s2 = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3 or 1.0
    a = x0 * br[0] + x1 * br[1] + x2 * br[2] + x3 * br[3]
    b = -x1 * br[0] + x0 * br[1] + -x3 * br[2] + x2 * br[3]
    perp = (br[0] - (a * x0 + b * -x1) / s2, br[1] - (a * x1 + b * x0) / s2,
            br[2] - (a * x2 + b * -x3) / s2, br[3] - (a * x3 + b * x2) / s2)
    return X1, a, b, br, perp


def lie_bracket_real(V: VectorFieldC2, p: PointC2) -> tuple[float, ...]:
    """[X1, X2](p) for X1 = view(V) and X2 = view(i*V), in closed form.

    As derivations, view(U) = U^z d_z + conj(U^z) d_zbar + U^w d_w +
    conj(U^w) d_wbar, and each component of the bracket is
    X1(i V^k) - X2(V^k).  The holomorphic derivatives cancel, which leaves
    view(2i (V_zbar conj(V^z) + V_wbar conj(V^w))), from the compiled
    zbar- and wbar-derivatives of the field."""
    return _project(V, p)[3]


def bracket_span_residual(V: VectorFieldC2, p: PointC2) -> float:
    """Norm of the component of [X1, X2](p) orthogonal to span{X1, X2}."""
    return math.hypot(*_project(V, p)[4])


def involutivity_check(V: VectorFieldC2, samples: Sequence[PointC2],
                       tol: float = 1e-8) -> CheckResult:
    """Rank test of M = [X1 | X2 | [X1,X2]] at each sample: the smallest
    singular value must stay below tol times the largest, i.e. the bracket
    must remain in the span of the field.

    With s = |X1| = |X2|, a = X1.br, b = X2.br and br_perp the part of br
    off span{X1, X2}, M^T M has the eigenvalue s^2 and the roots of
    l^2 - (s^2 + |br|^2) l + s^2 |br_perp|^2, which bracket it.  So the
    ratio is sqrt(l_min / l_max) = s |br_perp| / l_max.  Raises
    NumericError when l_max or a ratio is not finite."""
    worst = 0.0
    for p in samples:
        X1, a, b, br, perp = _project(V, p)
        s = math.hypot(*X1)
        if vanishes(s, p, V.degree):
            raise RankDropError(f"distribution rank drop at {p}")
        s2, b2 = s * s, br[0] * br[0] + br[1] * br[1] + br[2] * br[2] + br[3] * br[3]
        lam = (s2 + b2) / 2 + math.hypot((s2 - b2) / 2, a, b)
        ratio = s * math.hypot(*perp) / lam
        if not (math.isfinite(lam) and math.isfinite(ratio)):
            raise NumericError(f"involutivity: the Gram matrix at {p} overflows a float")
        worst = max(worst, ratio)
    return CheckResult(worst <= tol, worst)


def _tangency(p: PointC2, v: PointC2) -> tuple[CheckResult, str]:
    """The tangency rule at p for the field value v = V(p): the verdict of
    transversality_check, and its sine det / (|p| |v|) against TANGENCY_SINE
    as text (sine 0 where p or v is zero).  NumericError on overflow."""
    det = abs(p.z * v.w - p.w * v.z)
    bound = TANGENCY_SINE * p.norm() * v.norm()
    if not (math.isfinite(det) and math.isfinite(bound)):
        raise NumericError(f"transversality: determinant at {p} overflows a float")
    sine = det / (p.norm() * v.norm() or 1.0)
    return CheckResult(det > bound, det), f"sine {sine:.3e} against {TANGENCY_SINE:g}"


def transversality_check(V: VectorFieldC2, p: PointC2) -> CheckResult:
    """|det[p | V(p)]|, failing when the sine det / (|p| |V(p)|) of the angle
    between p and the complex line of V(p) is at most TANGENCY_SINE: the ray
    through p is then tangent to the leaf.  NumericError on overflow."""
    return _tangency(p, field_eval(V, p))[0]


def _unit(v) -> tuple[float, ...]:
    n = math.hypot(*v)
    return tuple(c / n for c in v)


# Residuals of the standard basis against a 2-plane: at least two of the
# four always have norm >= 0.1 (their squared norms sum to 2, each <= 1).
_FRAME_SKIP_THRESHOLD = 0.1


def _orthonormal_frame(X1, X2) -> tuple[tuple[float, ...], ...]:
    e1 = _unit(X1)
    d = _dot(X2, e1)
    e2 = _unit(tuple(c - d * u for c, u in zip(X2, e1)))
    normals = []
    for k in range(4):
        cand = tuple(float(j == k) for j in range(4))
        for u in (e1, e2, *normals):
            d = _dot(cand, u)
            cand = tuple(c - d * x for c, x in zip(cand, u))
        if math.hypot(*cand) > _FRAME_SKIP_THRESHOLD:
            normals.append(_unit(cand))
        if len(normals) == 2:
            break
    if len(normals) != 2:
        raise AssumptionError("could not complete transversal frame")
    return (e1, e2, normals[0], normals[1])


@dataclass(frozen=True)
class BasePoint:
    """The facts of V at x: value = V(x), its views X1 and X2, speed = |V(x)|,
    the tangency verdict, the orthonormal frame (rows e1, e2 spanning the
    views, then n1, n2) and the ray velocity (n1.x, n2.x)."""

    x: PointC2
    value: PointC2
    views: tuple[tuple[float, ...], tuple[float, ...]]
    speed: float
    tangency: CheckResult
    frame: tuple[tuple[float, ...], ...]
    ray_velocity: tuple[float, float]


def base_point(V: VectorFieldC2, x: PointC2) -> BasePoint:
    """The BasePoint of V at x, from one evaluation of V.  AssumptionError
    when V vanishes at x or the ray through x is tangent to the leaf, naming
    the number and its bound; NumericError when a value overflows."""
    v = field_eval(V, x)
    speed = v.norm()    # not finite: _tangency raises NumericError
    if vanishes(speed, x, V.degree):
        raise AssumptionError(f"field vanishes at the base point: |V(x)| = {speed:.3e} "
                              f"against threshold {_vanish_bound(x, V.degree):.3e}")
    tangency, sine = _tangency(x, v)
    if not tangency.passed:
        raise AssumptionError("radial direction tangent to leaf: base point fails transversality "
                              f"numerically, {sine}")
    views = (v.to_real4(), (-v.z.imag, v.z.real, -v.w.imag, v.w.real))
    frame = _orthonormal_frame(*views)
    n1x, n2x = (_dot(n, x.to_real4()) for n in frame[2:])
    return BasePoint(x, v, views, speed, tangency, frame, (n1x, n2x))


def homogeneity_check_field(V: VectorFieldC2) -> bool:
    """Exact check that every monomial of both components has total degree
    equal to the declared degree."""
    return all(comp.is_zero or homogeneity_degree(comp) == V.degree
               for comp in (V.comp_z, V.comp_w))
