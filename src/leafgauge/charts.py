"""Leaf charts: transversal coordinates that are constant along leaves.

A chart at a base point x takes the orthonormal frame of R^4 of its
record fields.BasePoint: e1, e2 span the leaf tangent space at x, and
n1, n2 span the Euclidean complement, an affine transversal plane through x.

leaf_coords(q) finds the point p where the leaf of q meets the
transversal plane and reads off n1.(p - x), n2.(p - x).  Two points get
the same coordinates iff they lie on the same local leaf, which makes the
map a numerical submersion whose level sets are the leaves.

One solver, _project, serves both the chart and the gauge: a Newton
iteration on the leaf of q that re-bases at its last landed point, where
the Jacobian is exact from a single field value, and applies each
correction (ds1, ds2) as the unit-speed flow along it over time |ds|.
The flow hands back the field value at the point where it lands, so a
solve evaluates the field itself only once, at q.
With a free scale factor t and a third row it solves the gauge equation
(see gauge.py); with t = 1 it is the leaf projection.

The documented domain is the ball of radius radius_scale * |x| around x;
evaluation is attempted for any query and fails with ProjectionError
only if the Newton iteration does not converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import DegenerateRootError, NumericError, ProjectionError
from .fields import BasePoint, PointC2, VectorFieldC2, base_point
from .flows import FlowConfig, _flow

__all__ = ["ChartConfig", "LeafChart", "build_chart", "leaf_coords", "in_chart_ball"]

_MIN_RADIUS = 1e-4
NEWTON_MAX_ITER = 40    # iteration budget of one projection or scale-factor solve


@dataclass(frozen=True)
class ChartConfig:
    """Chart settings; the defaults are the pipeline's."""

    radius_scale: float = 0.05          # chart ball radius, relative to |x|
    newton_tol: float = 1e-13           # projection residual, relative to |x|
    flow: FlowConfig = dc_field(default_factory=FlowConfig)

    def __post_init__(self):
        if not (0 < self.radius_scale < 1):
            raise ValueError("radius_scale must lie in (0, 1)")
        if not (math.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError("newton_tol must be positive and finite")


@dataclass(frozen=True, eq=False)
class LeafChart:
    field: VectorFieldC2
    point: BasePoint        # the facts at the base point x
    radius_scale: float
    newton_tol: float
    flow_cfg: FlowConfig

    base = property(lambda self: self.point.x)
    frame = property(lambda self: self.point.frame)   # rows e1, e2, n1, n2; orthonormal
    ball_radius = property(lambda self: self.radius_scale * self.base_norm)

    @cached_property
    def base4(self) -> tuple[float, float, float, float]:
        return self.base.to_real4()

    @cached_property
    def base_norm(self) -> float:
        return self.base.norm()


def in_chart_ball(chart: LeafChart, q: PointC2) -> bool:
    d = [a - b for a, b in zip(q.to_real4(), chart.base4)]
    return math.hypot(*d) <= chart.ball_radius * (1 + 1e-12)


def build_chart(V: VectorFieldC2, x: PointC2,
                cfg: ChartConfig | None = None) -> LeafChart:
    """Construct a LeafChart at x (_chart_at) on the facts base_point(V, x)
    decides: V is alive at x and the ray through x is transversal."""
    return _chart_at(V, base_point(V, x), cfg or ChartConfig())


def _chart_at(V: VectorFieldC2, point: BasePoint, cfg: ChartConfig) -> LeafChart:
    """The LeafChart of V at a decided base point, shrinking the radius on
    projection failures (halved down to 1e-4, then construction fails)."""
    rho = cfg.radius_scale
    while True:
        chart = LeafChart(field=V, point=point, radius_scale=rho,
                          newton_tol=cfg.newton_tol, flow_cfg=cfg.flow)
        try:
            _probe(chart)
            return chart
        except NumericError:
            rho /= 2
            if rho < _MIN_RADIUS:
                raise ProjectionError(
                    "chart construction failed: radius shrunk below minimum")


def _probe(chart: LeafChart) -> None:
    # Projection must succeed on the ball boundary in all frame directions.
    r = 0.9 * chart.ball_radius
    for row in chart.frame:
        for sign in (1.0, -1.0):
            _project(chart, PointC2.from_real4([b + sign * r * f for b, f in zip(chart.base4, row)]))


def _newton_step(J, r):
    """-J^-1 r for a 3x3 J by the adjugate, or None when |det J| is below
    1e-12 of its Hadamard bound (the product of the row norms)."""
    (a, b, c), (d, e, f), (g, h, i) = J
    C00, C01, C02 = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * C00 + b * C01 + c * C02
    if not abs(det) > 1e-12 * (math.hypot(a, b, c) * math.hypot(d, e, f)
                                * math.hypot(g, h, i)):
        return None
    r0, r1, r2 = r
    return (-(C00 * r0 + (c * h - b * i) * r1 + (b * f - c * e) * r2) / det,
            -(C01 * r0 + (a * i - c * g) * r1 + (c * d - a * f) * r2) / det,
            -(C02 * r0 + (b * g - a * h) * r1 + (a * e - b * d) * r2) / det)


def _project(chart: LeafChart, q: PointC2, m=None, t: float = 1.0):
    """Newton solve on the leaf of q for a point p of that leaf with t*p on
    the transversal plane.  Given a unit normal vector m, the scale factor
    t is a third unknown and m.(t*p - x) = 0 a third equation; otherwise t
    stays fixed.  Returns (t, p) with p as a real 4-tuple.

    Every iteration re-bases at the last landed point p, where the flow
    times are zero, so one field value gives the exact Jacobian: against
    the rows e1, e2 (and m) its columns are t*X1(p), t*X2(p) (and p).  The
    field is evaluated once, at q; every later value is the one that the
    flow landing at p handed back from its FSAL stage, with the same bits.
    The correction (ds1, ds2) is the unit-speed mixed flow of
    (ds1*X1 + ds2*X2) / |ds| from p over time |ds|: the point of the
    unit-time flow of ds1*X1 + ds2*X2, with the steps sized by the
    displacement rather than by max_step.  The whole step is halved, at
    most 8 tries, until the residual drops.  A failure names q and the
    last residual norm against its tolerance.
    """
    x0, x1, x2, x3 = chart.base4
    (a0, a1, a2, a3), (b0, b1, b2, b3) = chart.frame[0], chart.frame[1]
    free = m is not None
    c0, c1, c2, c3 = m if free else (0.0, 0.0, 0.0, 0.0)
    V, cfg = chart.field, chart.flow_cfg
    tol = chart.newton_tol * chart.base_norm

    def residual(p, t):
        d0, d1, d2, d3 = t * p[0] - x0, t * p[1] - x1, t * p[2] - x2, t * p[3] - x3
        return (d0 * a0 + d1 * a1 + d2 * a2 + d3 * a3,
                d0 * b0 + d1 * b1 + d2 * b2 + d3 * b3,
                d0 * c0 + d1 * c1 + d2 * c2 + d3 * c3 if free else 0.0)

    z, w = complex(q.z), complex(q.w)
    p = (z.real, z.imag, w.real, w.imag)
    r = residual(p, t)
    rn = math.hypot(*r)
    v = None
    for _ in range(NEWTON_MAX_ITER):
        if rn <= tol:
            return t, p
        if v is None:
            v = V.eval_complex(z, w)
        u0, u1, u2, u3 = v[0].real, v[0].imag, v[1].real, v[1].imag
        J = ((t * (u0 * a0 + u1 * a1 + u2 * a2 + u3 * a3),
              t * (-u1 * a0 + u0 * a1 + -u3 * a2 + u2 * a3),
              p[0] * a0 + p[1] * a1 + p[2] * a2 + p[3] * a3 if free else 0.0),
             (t * (u0 * b0 + u1 * b1 + u2 * b2 + u3 * b3),
              t * (-u1 * b0 + u0 * b1 + -u3 * b2 + u2 * b3),
              p[0] * b0 + p[1] * b1 + p[2] * b2 + p[3] * b3 if free else 0.0),
             (t * (u0 * c0 + u1 * c1 + u2 * c2 + u3 * c3),
              t * (-u1 * c0 + u0 * c1 + -u3 * c2 + u2 * c3),
              p[0] * c0 + p[1] * c1 + p[2] * c2 + p[3] * c3) if free else (0.0, 0.0, 1.0))
        step = _newton_step(J, r)
        if step is None:
            raise _failure(DegenerateRootError if free else ProjectionError,
                           "singular Newton system", q, rn, tol)
        ds1, ds2, dt = step
        n = math.hypot(ds1, ds2)
        unit = (ds1 / n, ds2 / n) if n > 0.0 else (0.0, 0.0)
        lam = 1.0
        for _ in range(8):
            zt, wt, vt = _flow(V, unit, lam * n, z, w, cfg, v)
            pt, tt = (zt.real, zt.imag, wt.real, wt.imag), t + lam * dt
            rt = residual(pt, tt)
            rtn = math.hypot(*rt)
            if rtn < rn:
                break
            lam /= 2
        else:
            raise _failure(ProjectionError, "no descent direction", q, rn, tol)
        z, w, v, p, t, r, rn = zt, wt, vt, pt, tt, rt, rtn
    raise _failure(ProjectionError, "iteration budget exhausted", q, rn, tol)


def _failure(error, why: str, q: PointC2, rn: float, tol: float):
    return error(f"leaf projection failed: {why} at q = {q.to_real4()!r}, "
                 f"last residual {rn!r} against tolerance {tol!r}")


def leaf_coords(chart: LeafChart, q: PointC2) -> tuple[float, float]:
    """Transversal coordinates of the leaf through q, with value (0, 0) at
    the base point.  Raises ProjectionError when the projection does not
    converge."""
    _, p = _project(chart, q)
    (x0, x1, x2, x3), (_, _, n1, n2) = chart.base4, chart.frame
    d0, d1, d2, d3 = p[0] - x0, p[1] - x1, p[2] - x2, p[3] - x3
    return (d0 * n1[0] + d1 * n1[1] + d2 * n1[2] + d3 * n1[3],
            d0 * n2[0] + d1 * n2[1] + d2 * n2[2] + d3 * n2[3])
