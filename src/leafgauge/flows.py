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
that runs are bit-deterministic.  Each field generates its own
straight-line steps (VectorFieldC2._dp5 and _dop853): the stage
evaluations with the field expressions, the monitor and the error sums
inlined, on the complex state (z, w).  This integrator sits under every
chart projection and gauge evaluation, so only the step-size control is
left here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericError, StepBudgetError
from .fields import PointC2, VectorFieldC2

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
                   q0: PointC2, cfg: FlowConfig | None = None,
                   v0: tuple[complex, complex] | None = None) -> PointC2:
    """Solve q' = a*X1(q) + b*X2(q) from q0 over the time interval [0, s].
    A caller that holds the field value V(q0) passes it as v0; it stands in
    for the first evaluation and passes the same monitor.

    Raises NumericError on a non-finite time or coefficient,
    StepBudgetError when the step budget is exhausted, RankDropError when
    the field norm falls below the relative nonvanishing threshold along
    the trajectory, and NumericError when the trajectory blows up.
    """
    cfg = cfg or FlowConfig()
    a, b = coeffs
    if not (math.isfinite(s) and math.isfinite(a) and math.isfinite(b)):
        raise NumericError(f"flow time {s!r} or coefficients {coeffs!r} not finite")
    if s == 0.0 or (a == 0.0 and b == 0.0):
        return q0
    mix = complex(a, b)
    first, step = V._dp5
    z, w = complex(q0.z), complex(q0.w)
    vz, vw = V.eval_complex(z, w) if v0 is None else v0
    k1z, k1w = first(z, w, vz, vw, mix)
    tol = cfg.tol
    direction = 1.0 if s > 0 else -1.0
    t = 0.0

    # Hairer-style initial step: a fraction of the solution scale over the
    # derivative scale, so the first attempt is rarely rejected.  A long flow
    # takes the DOP853 step, whose order lets the first attempt be larger.
    d0 = math.sqrt(sum(v * v for v in (z.real, z.imag, w.real, w.imag)))
    d1 = math.sqrt(sum(v * v for v in (k1z.real, k1z.imag, k1w.real, k1w.imag)))
    long = abs(s) * d1 >= LONG_FLOW * d0
    if long:
        step = V._dop853[1]
    h = min(abs(s), cfg.max_step, (1.0 if long else 0.01) * (d0 + tol) / (d1 + 1e-300))
    h = direction * max(h, 1e-12 * abs(s))
    expo = -1 / 8 if long else -1 / 5

    steps = 0
    while direction * (s - t) > 1e-16 * abs(s):
        if steps >= MAX_STEPS:
            raise StepBudgetError(f"flow integration exceeded {MAX_STEPS} steps")
        steps += 1
        if direction * (t + h) > direction * s:
            h = s - t
        if long:
            zn, wn, kz, kw, e5, e3 = step(z, w, h, mix, k1z, k1w, tol)
            # Hairer's combined estimate |h| E5^2 / sqrt((E5^2 + E3^2 / 100) n),
            # with h inside both sums
            err = e5 / math.sqrt((e5 + 0.01 * e3) * 4.0) if e5 else 0.0
        else:
            zn, wn, kz, kw, err = step(z, w, h, mix, k1z, k1w, tol)
            err = math.sqrt(err / 4.0)

        if err <= 1.0:
            t += h
            z, w = zn, wn
            k1z, k1w = kz, kw  # FSAL
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** expo))
        else:
            factor = max(_MIN_FACTOR, _SAFETY * err ** expo)
        h *= factor
        if abs(h) > cfg.max_step:
            h = direction * cfg.max_step

    return PointC2(z, w)


def leaf_flow_map(V: VectorFieldC2, q: PointC2, s1: float, s2: float,
                  cfg: FlowConfig | None = None) -> PointC2:
    """Flow along X1 for time s1, then along X2 for time s2 (fixed order)."""
    return integrate_flow(V, (0.0, 1.0), s2, integrate_flow(V, (1.0, 0.0), s1, q, cfg), cfg)


def trace_leaf(V: VectorFieldC2, q: PointC2, grid, cfg: FlowConfig | None = None):
    """leaf_flow_map applied pointwise; output order matches grid order."""
    return [leaf_flow_map(V, q, s1, s2, cfg) for (s1, s2) in grid]
