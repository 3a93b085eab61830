"""Leaf charts: transversal coordinates that are constant along leaves.

A chart at a base point x consists of an orthonormal frame of R^4 whose
first two vectors e1, e2 span the leaf tangent space at x (the real span
of the field views X1, X2) and whose last two n1, n2 span the Euclidean
complement, used as an affine transversal plane through x.

leaf_coords(q) finds the point p where the leaf of q meets the
transversal plane and reads off n1.(p - x), n2.(p - x).  Two points get
the same coordinates iff they lie on the same local leaf, which makes the
map a numerical submersion whose level sets are the leaves.

One solver, _project, serves both the chart and the gauge: a Newton
iteration on the leaf of q that re-bases at its last landed point, where
the Jacobian is exact from a single field value, and applies each
correction (ds1, ds2) as the unit-speed flow along it over time |ds|.
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

import numpy as np

from .errors import AssumptionError, DegenerateRootError, NumericError, ProjectionError
from .fields import PointC2, VectorFieldC2, real_views, transversality_check, vanish_scale
from .flows import FlowConfig, integrate_flow

__all__ = ["ChartConfig", "LeafChart", "build_chart", "leaf_coords", "in_chart_ball"]

# Residuals of the standard basis against a 2-plane: at least two of the
# four always have norm >= 0.1 (their squared norms sum to 2, each <= 1).
_FRAME_SKIP_THRESHOLD = 0.1

_MIN_RADIUS = 1e-4


@dataclass(frozen=True)
class ChartConfig:
    radius_scale: float = 0.05          # chart ball radius, relative to |x|
    newton_tol: float = 1e-11           # projection residual, relative to |x|
    newton_max_iter: int = 40
    flow: FlowConfig = dc_field(default_factory=FlowConfig)

    def __post_init__(self):
        if not (0 < self.radius_scale < 1):
            raise ValueError("radius_scale must lie in (0, 1)")
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")


@dataclass(frozen=True, eq=False)
class LeafChart:
    field: VectorFieldC2
    base: PointC2
    frame: np.ndarray                   # rows e1, e2, n1, n2; orthonormal
    radius_scale: float
    newton_tol: float
    newton_max_iter: int
    flow_cfg: FlowConfig

    @cached_property
    def base4(self) -> np.ndarray:
        return np.array(self.base.to_real4())

    @cached_property
    def base_norm(self) -> float:
        return self.base.norm()

    @property
    def ball_radius(self) -> float:
        return self.radius_scale * self.base_norm

    # tuple views of the base point and frame rows for the projection loop
    @cached_property
    def _base_t(self) -> tuple[float, ...]:
        return self.base.to_real4()

    @cached_property
    def _frame_t(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(float(v) for v in row) for row in self.frame)


def in_chart_ball(chart: LeafChart, q: PointC2) -> bool:
    d = np.array(q.to_real4()) - chart.base4
    return float(np.linalg.norm(d)) <= chart.ball_radius * (1 + 1e-12)


def _orthonormal_frame(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    e1 = X1 / np.linalg.norm(X1)
    v = X2 - (X2 @ e1) * e1
    nv = np.linalg.norm(v)
    if nv < 1e-12 * np.linalg.norm(X2):
        raise AssumptionError("degenerate leaf tangent frame at base point")
    e2 = v / nv
    normals = []
    for k in range(4):
        cand = np.zeros(4)
        cand[k] = 1.0
        for u in [e1, e2, *normals]:
            cand = cand - (cand @ u) * u
        nc = np.linalg.norm(cand)
        if nc > _FRAME_SKIP_THRESHOLD:
            normals.append(cand / nc)
        if len(normals) == 2:
            break
    if len(normals) != 2:
        raise AssumptionError("could not complete transversal frame")
    return np.vstack([e1, e2, normals[0], normals[1]])


def build_chart(V: VectorFieldC2, x: PointC2,
                cfg: ChartConfig | None = None) -> LeafChart:
    """Construct a LeafChart at x, shrinking the radius on projection
    failures (halved down to 1e-4, then construction fails)."""
    cfg = cfg or ChartConfig()
    X1, X2 = real_views(V, x)
    if float(np.linalg.norm(X1)) <= 1e-8 * vanish_scale(V, x):
        raise AssumptionError("field vanishes at the chart base point")
    tr = transversality_check(V, x)
    if not tr.passed:
        raise AssumptionError("base point and field value are complex-linearly dependent")
    frame = _orthonormal_frame(X1, X2)

    rho = cfg.radius_scale
    while True:
        chart = LeafChart(field=V, base=x, frame=frame, radius_scale=rho,
                          newton_tol=cfg.newton_tol, newton_max_iter=cfg.newton_max_iter,
                          flow_cfg=cfg.flow)
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
    for row in range(4):
        for sign in (1.0, -1.0):
            probe = PointC2.from_real4(chart.base4 + sign * r * chart.frame[row])
            _project(chart, probe)


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _newton_step(J, r):
    """-J^-1 r for a 3x3 J by the adjugate, or None when |det J| is below
    1e-12 of its Hadamard bound (the product of the row norms)."""
    (a, b, c), (d, e, f), (g, h, i) = J
    C00, C01, C02 = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * C00 + b * C01 + c * C02
    if not abs(det) > 1e-12 * math.prod(math.hypot(*row) for row in J):
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
    correction (ds1, ds2) is the unit-speed mixed flow of
    (ds1*X1 + ds2*X2) / |ds| from p over time |ds|: the point of the
    unit-time flow of ds1*X1 + ds2*X2, with the steps sized by the
    displacement rather than by max_step.  The whole step is halved, at
    most 8 tries, until the residual drops.
    """
    x0, x1, x2, x3 = chart._base_t
    e1, e2 = chart._frame_t[0], chart._frame_t[1]
    free = m is not None
    rows = (e1, e2, m) if free else (e1, e2)
    V, cfg = chart.field, chart.flow_cfg
    tol = chart.newton_tol * chart.base_norm

    def residual(p, t):
        d = (t * p[0] - x0, t * p[1] - x1, t * p[2] - x2, t * p[3] - x3)
        r = [_dot(d, a) for a in rows]
        return r if free else r + [0.0]

    point, p = q, q.to_real4()
    r = residual(p, t)
    rn = math.hypot(*r)
    for _ in range(chart.newton_max_iter):
        if rn <= tol:
            return t, p
        vz, vw = V.eval_complex(complex(p[0], p[1]), complex(p[2], p[3]))
        X1 = (vz.real, vz.imag, vw.real, vw.imag)
        X2 = (-vz.imag, vz.real, -vw.imag, vw.real)
        J = [(t * _dot(X1, a), t * _dot(X2, a), _dot(p, a) if free else 0.0) for a in rows]
        if not free:
            J.append((0.0, 0.0, 1.0))
        step = _newton_step(J, r)
        if step is None:
            raise (DegenerateRootError if free else ProjectionError)(
                "leaf projection failed: singular Newton system")
        ds1, ds2, dt = step
        n = math.hypot(ds1, ds2)
        unit = (ds1 / n, ds2 / n) if n > 0.0 else (0.0, 0.0)
        lam = 1.0
        for _ in range(8):
            trial = integrate_flow(V, unit, lam * n, point, cfg)
            pt, tt = trial.to_real4(), t + lam * dt
            rt = residual(pt, tt)
            rtn = math.hypot(*rt)
            if rtn < rn:
                break
            lam /= 2
        else:
            raise ProjectionError("leaf projection failed: no descent direction")
        point, p, t, r, rn = trial, pt, tt, rt, rtn
    raise ProjectionError("leaf projection failed: iteration budget exhausted")


def leaf_coords(chart: LeafChart, q: PointC2) -> tuple[float, float]:
    """Transversal coordinates of the leaf through q, with value (0, 0) at
    the base point.  Raises ProjectionError when the projection does not
    converge."""
    _, p = _project(chart, q)
    x = chart._base_t
    d = (p[0] - x[0], p[1] - x[1], p[2] - x[2], p[3] - x[3])
    return (_dot(d, chart._frame_t[2]), _dot(d, chart._frame_t[3]))
