"""Adaptive integration of the real flows spanned by a field on C^2.

The trajectories of q' = a*X1(q) + b*X2(q), where X1 and X2 are the real
views of V and i*V, sweep out the leaves of the induced foliation.  Since
a*X1 + b*X2 is the real view of (a + i b)*V, the right-hand side costs one
complex field evaluation.

The stepper is an embedded Runge-Kutta pair with the usual mixed
absolute/relative error control and the FSAL reuse of the last stage: the
Dormand-Prince 5(4) pair for short flows, and the 8th-order DOP853 pair
(Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10) for flows whose
first-stage displacement reaches LONG_FLOW of the state norm, where its
higher order takes far fewer stages.  The choice is made once per flow, and
one step-size control serves both.  The stepper is hand-rolled rather than
delegated so that the step budget and the rank-drop monitor (field norm
falling below the nonvanishing threshold) are first-class failures, and so
that runs are bit-deterministic.  The steps are straight-line code
(VectorFieldC2._first, _dp5 and _dop853) on the complex state (z, w), with
the field expressions, the monitor and the pair's error norm inlined; a
field binds its coefficients to code compiled once per shape.  This
integrator sits under every chart projection and gauge evaluation, so only
the step-size control is left here, with each pair's exponent and
first-step factor read from its record (fields._DP5, fields._DOP853).

One driver, _flow, runs on the complex state and hands back, with the end
point, the field value there: the FSAL stage (first same as last: the last
stage of a step, at its update, is the first of the next) has computed it
with the bits of VectorFieldC2.eval_complex.  The leaf solver builds its
next Jacobian from that value, and leaf_flow_map starts its second leg
from it, so neither evaluates the field at a landed point.
integrate_flow is the driver on points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericError, StepBudgetError
from .fields import _DOP853, _DP5, PointC2, VectorFieldC2

__all__ = ["FlowConfig", "integrate_flow", "leaf_flow_map", "trace_leaf"]


@dataclass(frozen=True)
class FlowConfig:
    """Error control of integrate_flow.  One tolerance is both the absolute
    and the relative part: each real component's error is scaled by
    tol + tol * max(|y|, |y_new|).  max_step bounds the step in the time of
    a unit-coefficient flow, such as those of leaf_flow_map.  The defaults
    are the pipeline's: tight enough that root residuals stay well below
    the reported check tolerances."""

    tol: float = 1e-12
    max_step: float = 0.1

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.tol, self.max_step)):
            raise ValueError("tol and max_step must be positive and finite")


MAX_STEPS = 20000       # step budget of one flow
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# A flow whose first-stage displacement |s| |k1| reaches this fraction of |q0|
# takes the DOP853 step; shorter ones, such as Newton corrections, DP5(4).
LONG_FLOW = 1e-2


def integrate_flow(V: VectorFieldC2, coeffs: tuple[float, float], s: float,
                   q0: PointC2, cfg: FlowConfig | None = None) -> PointC2:
    """Solve q' = a*X1(q) + b*X2(q) from q0 over the time interval [0, s].
    A zero-time flow returns q0 itself.

    Raises NumericError on a non-finite time or coefficient, StepBudgetError
    when the step budget is exhausted, RankDropError when the field norm
    falls below the relative nonvanishing threshold along the trajectory,
    and NumericError when the trajectory or its error norm blows up.
    """
    z, w, _ = _flow(V, coeffs, s, q0.z, q0.w, cfg, None)
    return _end_point(q0, z, w)


def _flow(V: VectorFieldC2, coeffs: tuple[float, float], s: float, z: complex, w: complex,
          cfg: FlowConfig | None, v0: tuple[complex, complex] | None) -> tuple:
    """integrate_flow on the complex state (z, w): returns (z, w, v) at the
    end point, where v is the field value there that the last step's FSAL
    stage computed, with the bits of V.eval_complex at that point.  A
    caller that holds the field value V(z, w) passes it as v0; it stands in
    for the first evaluation and passes the same monitor.  A zero-time flow
    returns its z, w and v0 as given."""
    cfg = cfg or FlowConfig()
    a, b = coeffs
    if not (math.isfinite(s) and math.isfinite(a) and math.isfinite(b)):
        raise NumericError(f"flow time {s!r} or coefficients {coeffs!r} not finite")
    if s == 0.0 or (a == 0.0 and b == 0.0):
        return z, w, v0
    mix = complex(a, b)
    z, w = complex(z), complex(w)
    vz, vw = V.eval_complex(z, w) if v0 is None else v0
    k1z, k1w = V._first(z, w, vz, vw, mix)
    tol = cfg.tol
    direction = 1.0 if s > 0 else -1.0
    t = 0.0

    # Hairer-style initial step: a fraction of the solution scale over the
    # derivative scale, so the first attempt is rarely rejected.  A long flow
    # takes the DOP853 step, whose order lets the first attempt be larger.
    d0 = math.sqrt(z.real * z.real + z.imag * z.imag + w.real * w.real + w.imag * w.imag)
    d1 = math.sqrt(k1z.real * k1z.real + k1z.imag * k1z.imag
                   + k1w.real * k1w.real + k1w.imag * k1w.imag)
    tableau, step = (_DOP853, V._dop853) if abs(s) * d1 >= LONG_FLOW * d0 else (_DP5, V._dp5)
    h = min(abs(s), cfg.max_step, tableau.first_step * (d0 + tol) / (d1 + 1e-300))
    h = direction * max(h, 1e-12 * abs(s))

    steps = 0
    try:
        while direction * (s - t) > 1e-16 * abs(s):
            if steps >= MAX_STEPS:
                raise StepBudgetError(f"flow integration exceeded {MAX_STEPS} steps")
            steps += 1
            if direction * (t + h) > direction * s:
                h = s - t
            zn, wn, vzn, vwn, kz, kw, err = step(z, w, h, mix, k1z, k1w, tol)

            if err <= 1.0:
                t += h
                z, w, vz, vw = zn, wn, vzn, vwn
                k1z, k1w = kz, kw  # FSAL
                factor = _MAX_FACTOR if err == 0.0 else min(
                    _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** tableau.expo))
            else:
                factor = max(_MIN_FACTOR, _SAFETY * err ** tableau.expo)
            h *= factor
            if abs(h) > cfg.max_step:
                h = direction * cfg.max_step
    except OverflowError as exc:    # a tolerance so small that the error norm overflows
        raise NumericError("flow error norm overflowed") from exc

    return z, w, (vz, vw)


def leaf_flow_map(V: VectorFieldC2, q: PointC2, s1: float, s2: float,
                  cfg: FlowConfig | None = None) -> PointC2:
    """Flow along X1 for time s1, then along X2 for time s2 (fixed order).
    The second leg starts from the field value that ends the first."""
    z, w, v = _flow(V, (1.0, 0.0), s1, q.z, q.w, cfg, None)
    z, w, _ = _flow(V, (0.0, 1.0), s2, z, w, cfg, v)
    return _end_point(q, z, w)


def _end_point(q0: PointC2, z: complex, w: complex) -> PointC2:
    # idle flows hand back the components of q0 themselves, and q0 with them
    return q0 if z is q0.z and w is q0.w else PointC2(z, w)


def trace_leaf(V: VectorFieldC2, q: PointC2, grid, cfg: FlowConfig | None = None):
    """leaf_flow_map applied pointwise; output order matches grid order."""
    return [leaf_flow_map(V, q, s1, s2, cfg) for (s1, s2) in grid]
