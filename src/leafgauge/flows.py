"""Adaptive integration of the real flows spanned by a field on C^2.

The trajectories of q' = a*X1(q) + b*X2(q), where X1 and X2 are the real
views of V and i*V, sweep out the leaves of the induced foliation.  Since
a*X1 + b*X2 is the real view of (a + i b)*V, the right-hand side costs one
complex field evaluation.

The stepper is a Dormand-Prince 5(4) embedded pair with the usual mixed
absolute/relative error control and the FSAL reuse of the last stage.  It
is hand-rolled rather than delegated so that the step budget and the
rank-drop monitor (field norm falling below the nonvanishing threshold)
are first-class failures, and so that runs are bit-deterministic.  Each
field generates its own straight-line step (VectorFieldC2._dp5): the six
stage evaluations with the field expressions, the monitor and the error
norm inlined, on the complex state (z, w).  This integrator sits under
every chart projection and gauge evaluation, so only the step-size
control is left here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericError, StepBudgetError
from .fields import PointC2, VectorFieldC2

__all__ = ["FlowConfig", "integrate_flow", "leaf_flow_map", "trace_leaf"]


@dataclass(frozen=True)
class FlowConfig:
    """Error control of integrate_flow.  max_step bounds the step in the
    time of a unit-coefficient flow, such as those of leaf_flow_map."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_step: float = 0.1
    max_steps: int = 20000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0 and self.max_step > 0):
            raise ValueError("tolerances and max_step must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


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
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    direction = 1.0 if s > 0 else -1.0
    t = 0.0

    # Hairer-style initial step: a small fraction of the solution scale over
    # the derivative scale, so the first attempt is rarely rejected.
    d0 = math.sqrt(sum(v * v for v in (z.real, z.imag, w.real, w.imag)))
    d1 = math.sqrt(sum(v * v for v in (k1z.real, k1z.imag, k1w.real, k1w.imag)))
    h = min(abs(s), cfg.max_step, 0.01 * (d0 + atol) / (d1 + 1e-300))
    h = direction * max(h, 1e-12 * abs(s))

    steps = 0
    while direction * (s - t) > 1e-16 * abs(s):
        if steps >= cfg.max_steps:
            raise StepBudgetError("flow integration exceeded max_steps")
        steps += 1
        if direction * (t + h) > direction * s:
            h = s - t
        zn, wn, k7z, k7w, err = step(z, w, h, mix, k1z, k1w, atol, rtol)
        err = math.sqrt(err / 4.0)

        if err <= 1.0:
            t += h
            z, w = zn, wn
            k1z, k1w = k7z, k7w  # FSAL
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))
        else:
            factor = max(_MIN_FACTOR, _SAFETY * err ** -0.2)
        h *= factor
        if abs(h) > cfg.max_step:
            h = direction * cfg.max_step

    return PointC2(z, w)


def leaf_flow_map(V: VectorFieldC2, q: PointC2, s1: float, s2: float,
                  cfg: FlowConfig | None = None) -> PointC2:
    """Flow along X1 for time s1, then along X2 for time s2 (fixed order)."""
    mid = integrate_flow(V, (1.0, 0.0), s1, q, cfg) if s1 != 0.0 else q
    return integrate_flow(V, (0.0, 1.0), s2, mid, cfg) if s2 != 0.0 else mid


def trace_leaf(V: VectorFieldC2, q: PointC2, grid, cfg: FlowConfig | None = None):
    """leaf_flow_map applied pointwise; output order matches grid order."""
    return [leaf_flow_map(V, q, s1, s2, cfg) for (s1, s2) in grid]
