"""Polynomial vector fields on C^2 and the admissibility checks they must
pass before a leaf chart can be built on them.

A field V = (comp_z, comp_w) with a declared homogeneity degree spans a
complex line at each point where it does not vanish.  Its two real views
X1 (of V) and X2 (of i*V) span a rank-2 real distribution; the checks in
this module probe nonvanishing, involutivity of that distribution,
transversality to the radial direction, and exact homogeneity of the
components.

The candidate-field construction takes a real-valued polynomial with
identically vanishing Levi determinant and returns the two columns of its
rotated Hessian; whichever of them survives at the base point annihilates
the Hessian and is tangent to the level foliation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

from .errors import AssumptionError, NumericError, RankDropError
from .wirtinger import (
    WirtingerPoly,
    complex_hessian,
    homogeneity_degree,
    poly_diff,
    poly_eval,
    poly_is_real,
)

__all__ = [
    "PointC2",
    "VectorFieldC2",
    "CheckResult",
    "field_eval",
    "real_views",
    "derive_candidate_fields",
    "select_field",
    "annihilation_check",
    "lie_bracket_real",
    "bracket_span_residual",
    "involutivity_check",
    "transversality_check",
    "homogeneity_check_field",
]

NONVANISH_THRESHOLD = 1e-8


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

# Runge-Kutta pairs as (rows of stages 2-s, weights, error rows): the weights
# are also the row of the FSAL stage s + 1, the field at the update, and each
# error row gives one estimate.  Zero weights are left out of the emitted sums.
# Dormand-Prince 5(4) (Dormand & Prince 1980): one error row, the difference
# of the 5th-order weights to the embedded 4th-order ones.
_DP5 = (((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
        ((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40),))
# Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.10), the decimals of Hairer's dop853.f rounded to doubles: the 5th-
# order error row, then the difference of the 8th-order weights to the
# embedded 3rd-order ones.
_DOP853_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
             1.8915178993145003, -5.801203960010585, 0.3111643669578199,
             -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_DOP853 = (
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
                                              0.7338466882816118, 0, 0, 0.022058823529411766)))))

# Stage k = mix * V(z, w), after the nonvanishing monitor on V(z, w) = (r0, r1).
_STAGE = """\
nv_sq = r0.real * r0.real + r0.imag * r0.imag + r1.real * r1.real + r1.imag * r1.imag
r_sq = {z}.real * {z}.real + {z}.imag * {z}.imag + {w}.real * {w}.real + {w}.imag * {w}.imag
try:
    scale_sq = (r_sq if r_sq > 1.0 else 1.0) ** deg
except OverflowError:
    raise NumericError("flow blew up: state norm overflowed") from None
if nv_sq <= thr_sq * scale_sq:
    raise RankDropError("field norm below threshold along trajectory")
k{k}z = mix * r0
k{k}w = mix * r1"""


def _field_lines(polys, ns: dict, z: str = "z", w: str = "w") -> list[str]:
    """Statements setting r0, r1, ... to the polynomials at (z, w), with the
    coefficients bound in ns as c0, c1, ... rather than formatted into the
    source.  Each term is coeff * z^a * zbar^b * w^c * wbar^d, multiplied
    left to right and accumulated from 0j in lexicographic term order."""
    lines = [f"{z}b = {z}.conjugate()", f"{w}b = {w}.conjugate()"]
    n = 0
    for k, poly in enumerate(polys):
        lines.append(f"r{k} = 0j")
        items, den = poly.int_items()
        for exp, (re, im) in items:
            coeff = f"c{n}"
            try:
                ns[coeff] = complex(re / den, im / den)
            except OverflowError:
                raise NumericError(f"the coefficient of the term {exp} (exponents of z, zbar, "
                                   f"w, wbar) overflows a float") from None
            n += 1
            factors = [coeff]
            for var, e in zip((z, z + "b", w, w + "b"), exp):
                factors += [var] * e
            prods = [" * ".join(factors[i:i + _CHUNK]) for i in range(0, len(factors), _CHUNK)]
            lines.append(f"t = {prods[0]}")
            lines += [f"t = t * {prod}" for prod in prods[1:]]
            lines.append(f"r{k} += t")
    return lines


def _exec(defs: dict, name: str, ns: dict) -> tuple:
    """Compile the functions defs ({signature: body lines}) with the globals
    ns, and take them out of ns so that the two form no reference cycle."""
    src = [line for sig, body in defs.items()
           for line in (f"def {sig}:", *("    " + b for b in body))]
    exec(compile("\n".join(src), f"<{name}>", "exec"), ns)
    return tuple(ns.pop(sig[:sig.index("(")]) for sig in defs)


def _compile(polys: Sequence[WirtingerPoly], name: str):
    """Straight-line float code for (z, w) -> (p(z, w) for p in polys); the
    same statements are inlined into every stage of the generated flow steps."""
    ns: dict = {}
    body = _field_lines(polys, ns) + ["return " + ", ".join(f"r{k}" for k in range(len(polys)))]
    return _exec({"f(z, w)": body}, name, ns)[0]


def _compile_step(V: "VectorFieldC2", tableau, name: str):
    """Straight-line code of one step of the Runge-Kutta pair tableau (_DP5
    or _DOP853) on q' = mix * V(q): first(z, w, vz, vw, mix) -> (k1z, k1w)
    takes the first stage from a given field value, and step(z, w, h, mix,
    k1z, k1w, tol) -> (zn, wn, kz, kw, err, ...) runs stages 2 to s + 1
    with the field inlined and returns the update, its FSAL stage and, per
    error row, the sum of the squared scaled errors (h included) of the four
    real components.  Every stage runs the nonvanishing monitor on its field
    value."""
    rows, weights, errors = tableau
    polys = (V.comp_z, V.comp_w)
    ns = dict(deg=V.degree, thr_sq=NONVANISH_THRESHOLD * NONVANISH_THRESHOLD,
              NumericError=NumericError, RankDropError=RankDropError)

    def combo(row, prefix: str, var: str) -> str:
        ns.update((f"{prefix}{j}", a) for j, a in enumerate(row, 1) if a)
        return " + ".join(f"{prefix}{j} * k{j}{var}" for j, a in enumerate(row, 1) if a)

    def stage(z: str, w: str, k: int) -> list[str]:
        return _field_lines(polys, ns, z, w) + _STAGE.format(z=z, w=w, k=k).split("\n")

    step = []
    for k, row in enumerate(rows, 2):
        step += [f"z{k} = z + h * ({combo(row, f'A{k}', 'z')})",
                 f"w{k} = w + h * ({combo(row, f'A{k}', 'w')})", *stage(f"z{k}", f"w{k}", k)]
    fsal = len(rows) + 2
    step += [f"zn = z + h * ({combo(weights, 'B', 'z')})",
             f"wn = w + h * ({combo(weights, 'B', 'w')})", *stage("zn", "wn", fsal)]
    for i, row in enumerate(errors):  # weights E1, E2, ... of the first row, F1, ... of the second
        step += [f"e{i}{v} = h * ({combo(row, 'EF'[i], v)})" for v in "zw"]
    add = ""
    for v in "zw":
        for part in ("real", "imag"):
            step += [f"y = abs({v}.{part})", f"yn = abs({v}n.{part})",
                     "sc = tol + tol * (yn if yn > y else y)"]
            step += [f"err{i} {add}= (e{i}{v}.{part} / sc) ** 2" for i in range(len(errors))]
            add = "+"
    errs = ", ".join(f"err{i}" for i in range(len(errors)))
    step.append(f"return zn, wn, k{fsal}z, k{fsal}w, {errs}")
    first = _STAGE.format(z="z", w="w", k=1).split("\n") + ["return k1z, k1w"]
    return _exec({"first(z, w, r0, r1, mix)": first,
                  "step(z, w, h, mix, k1z, k1w, tol)": step}, name, ns)


@dataclass(frozen=True)
class VectorFieldC2:
    """Vector field on C^2 with WirtingerPoly components and a declared
    homogeneity degree.

    Construction is permissive: the declared degree is not verified here,
    so that inhomogeneous negative-control fields can be represented and
    then rejected by homogeneity_check_field.
    """

    comp_z: WirtingerPoly
    comp_w: WirtingerPoly
    degree: int

    def __post_init__(self):
        if int(self.degree) != self.degree or self.degree < 0:
            raise ValueError("degree must be a nonnegative integer")

    @cached_property
    def _eval(self):
        return _compile((self.comp_z, self.comp_w), "field")

    def eval_complex(self, z: complex, w: complex) -> tuple[complex, complex]:
        """Float values of both components at (z, w), from the field's
        compiled straight-line code; the only pointwise evaluator."""
        return self._eval(z, w)

    @cached_property
    def _dp5(self):
        # (first, step) of the DP5(4) flow; generated lazily, at the first flow
        return _compile_step(self, _DP5, "dp5")

    @cached_property
    def _dop853(self):
        # (first, step) of the DOP853 flow; generated at the first long flow
        return _compile_step(self, _DOP853, "dop853")

    @cached_property
    def _jacobian(self):
        # (z, w) -> the zbar- and wbar-derivatives of comp_z, then of comp_w
        return _compile([poly_diff(c, var) for c in (self.comp_z, self.comp_w)
                         for var in ("zbar", "wbar")], "jacobian")


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


def vanish_scale(V: VectorFieldC2, q: PointC2) -> float:
    """Natural magnitude scale of a degree-m field near q, used to make the
    nonvanishing threshold relative.  Raises NumericError when it overflows
    a float."""
    try:
        return max(1.0, q.norm()) ** V.degree
    except OverflowError:
        raise NumericError(f"field scale at {q} overflows a float") from None


def derive_candidate_fields(P: WirtingerPoly):
    """The two candidate tangent fields of a Levi-degenerate polynomial:
    (-P_w_zbar, P_z_zbar) and (-P_w_wbar, P_z_wbar), each homogeneous of
    degree deg(P) - 2."""
    if not poly_is_real(P):
        raise ValueError("candidate fields require a real-valued polynomial")
    deg = homogeneity_degree(P)
    if deg is None or deg < 2:
        raise ValueError("polynomial must be homogeneous of degree >= 2")
    H = complex_hessian(P)
    m = deg - 2
    V1 = VectorFieldC2(-H.entries[0][1], H.entries[0][0], m)
    V2 = VectorFieldC2(-H.entries[1][1], H.entries[1][0], m)
    return V1, V2


def select_field(P: WirtingerPoly, x: PointC2) -> VectorFieldC2:
    """Pick the candidate field that does not vanish at x, preferring the
    first on ties.  Raises AssumptionError when both vanish (the Hessian of
    P is zero at x).  The candidates are evaluated exactly, once each, so
    neither is compiled here."""
    for V in derive_candidate_fields(P):
        if PointC2(poly_eval(V.comp_z, x), poly_eval(V.comp_w, x)).norm() > \
                NONVANISH_THRESHOLD * vanish_scale(V, x):
            return V
    raise AssumptionError("Hessian vanishes at base point")


def annihilation_check(P: WirtingerPoly, V: VectorFieldC2) -> bool:
    """Exact test that the complex Hessian of P annihilates V as a
    polynomial identity."""
    if not poly_is_real(P):
        raise ValueError("annihilation check requires a real-valued polynomial")
    r0, r1 = complex_hessian(P).matvec(V.comp_z, V.comp_w)
    return r0.is_zero and r1.is_zero


def lie_bracket_real(V: VectorFieldC2, p: PointC2) -> tuple[float, ...]:
    """[X1, X2](p) for X1 = view(V) and X2 = view(i*V), in closed form.

    As derivations, view(U) = U^z d_z + conj(U^z) d_zbar + U^w d_w +
    conj(U^w) d_wbar, and each component of the bracket is
    X1(i V^k) - X2(V^k).  The holomorphic derivatives cancel, which leaves
    view(2i (V_zbar conj(V^z) + V_wbar conj(V^w))), from the compiled
    zbar- and wbar-derivatives of the field."""
    vz, vw = V.eval_complex(p.z, p.w)
    cz, cw = 2j * vz.conjugate(), 2j * vw.conjugate()
    z_zb, z_wb, w_zb, w_wb = V._jacobian(p.z, p.w)
    bz, bw = z_zb * cz + z_wb * cw, w_zb * cz + w_wb * cw
    return (bz.real, bz.imag, bw.real, bw.imag)


def _split_bracket(X1, X2, br):
    """X1.br, X2.br and the component of br orthogonal to span{X1, X2},
    for X2 orthogonal to X1 with the same norm (all of br where X1 = 0)."""
    s2, a, b = _dot(X1, X1) or 1.0, _dot(X1, br), _dot(X2, br)
    return a, b, tuple(c - (a * u + b * v) / s2 for c, u, v in zip(br, X1, X2))


def bracket_span_residual(V: VectorFieldC2, p: PointC2) -> float:
    """Norm of the component of [X1, X2](p) orthogonal to span{X1, X2}."""
    X1, X2 = real_views(V, p)
    return math.hypot(*_split_bracket(X1, X2, lie_bracket_real(V, p))[2])


def involutivity_check(V: VectorFieldC2, samples: Sequence[PointC2],
                       tol: float = 1e-8) -> CheckResult:
    """Rank test of M = [X1 | X2 | [X1,X2]] at each sample: the smallest
    singular value must stay below tol times the largest, i.e. the bracket
    must remain in the span of the field.

    With s = |X1| = |X2|, a = X1.br, b = X2.br and br_perp the part of br
    off span{X1, X2}, M^T M has the eigenvalue s^2 and the roots of
    l^2 - (s^2 + |br|^2) l + s^2 |br_perp|^2, which bracket it.  So the
    ratio is sqrt(l_min / l_max) = s |br_perp| / l_max.  Raises
    NumericError when l_max overflows."""
    worst = 0.0
    for p in samples:
        X1, X2 = real_views(V, p)
        s = math.hypot(*X1)
        if s <= NONVANISH_THRESHOLD * vanish_scale(V, p):
            raise RankDropError(f"distribution rank drop at {p}")
        br = lie_bracket_real(V, p)
        a, b, perp = _split_bracket(X1, X2, br)
        s2, b2 = s * s, _dot(br, br)
        lam = (s2 + b2) / 2 + math.hypot((s2 - b2) / 2, a, b)
        if not math.isfinite(lam):
            raise NumericError(f"involutivity: the Gram matrix at {p} overflows a float")
        worst = max(worst, s * math.hypot(*perp) / lam)
    return CheckResult(worst <= tol, worst)


def transversality_check(V: VectorFieldC2, p: PointC2) -> CheckResult:
    """|det[p | V(p)]| against the relative nonvanishing threshold; failure
    means p and V(p) are (numerically) complex-linearly dependent.  Raises
    NumericError when the determinant or its bound is not finite."""
    v = field_eval(V, p)
    det = abs(p.z * v.w - p.w * v.z)
    bound = NONVANISH_THRESHOLD * p.norm() * v.norm()
    if not (math.isfinite(det) and math.isfinite(bound)):
        raise NumericError(f"transversality: determinant at {p} overflows a float")
    return CheckResult(det > bound, det)


def homogeneity_check_field(V: VectorFieldC2) -> bool:
    """Exact check that every monomial of both components has total degree
    equal to the declared degree."""
    return all(comp.is_zero or homogeneity_degree(comp) == V.degree
               for comp in (V.comp_z, V.comp_w))
