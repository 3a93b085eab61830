"""Adaptive integration of the real flows spanned by a field on C^2.

The trajectories of q' = a*X1(q) + b*X2(q), where X1 and X2 are the real
views of V and i*V, sweep out the leaves of the induced foliation.  Since
a*X1 + b*X2 is the real view of (a + i b)*V, the right-hand side costs one
complex field evaluation.

The stepper is a Dormand-Prince 5(4) embedded pair with the usual mixed
absolute/relative error control and the FSAL reuse of the last stage.  It
is hand-rolled rather than delegated so that the step budget and the
rank-drop monitor (field norm falling below the nonvanishing threshold)
are first-class failures, and so that runs are bit-deterministic.  The
state is the complex pair (z, w), handed to the field's compiled evaluator
as is, and the stage combinations are written out explicitly: this
integrator sits under every chart projection and gauge evaluation, so
constant factors matter.  A real coefficient times a complex stage rounds
each component as the real product would, so the steps are those of the
same scheme over the four real components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericError, RankDropError, StepBudgetError
from .fields import NONVANISH_THRESHOLD, PointC2, VectorFieldC2

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


# Dormand-Prince 5(4) tableau.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
# 5th order weights (propagated solution); also the 7th stage row (FSAL).
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# difference to the embedded 4th order weights, for the error estimate
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def integrate_flow(V: VectorFieldC2, coeffs: tuple[float, float], s: float,
                   q0: PointC2, cfg: FlowConfig | None = None) -> PointC2:
    """Solve q' = a*X1(q) + b*X2(q) from q0 over the time interval [0, s].

    Raises StepBudgetError when the step budget is exhausted,
    RankDropError when the field norm falls below the relative
    nonvanishing threshold along the trajectory, and NumericError when the
    trajectory blows up.
    """
    cfg = cfg or FlowConfig()
    a, b = coeffs
    if s == 0.0 or (a == 0.0 and b == 0.0):
        return q0
    mix = complex(a, b)
    deg = V.degree
    ev = V.eval_complex
    thr_sq = NONVANISH_THRESHOLD * NONVANISH_THRESHOLD

    def rhs(z, w):
        vz, vw = ev(z, w)
        nv_sq = vz.real * vz.real + vz.imag * vz.imag + vw.real * vw.real + vw.imag * vw.imag
        r_sq = z.real * z.real + z.imag * z.imag + w.real * w.real + w.imag * w.imag
        try:
            scale_sq = (r_sq if r_sq > 1.0 else 1.0) ** deg  # max(1.0, r_sq), minus the call
        except OverflowError:
            raise NumericError("flow blew up: state norm overflowed") from None
        if nv_sq <= thr_sq * scale_sq:
            raise RankDropError("field norm below threshold along trajectory")
        return mix * vz, mix * vw

    z, w = complex(q0.z), complex(q0.w)
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    direction = 1.0 if s > 0 else -1.0
    t = 0.0
    k1z, k1w = rhs(z, w)

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

        k2z, k2w = rhs(z + h * (_A21 * k1z), w + h * (_A21 * k1w))
        k3z, k3w = rhs(z + h * (_A31 * k1z + _A32 * k2z),
                       w + h * (_A31 * k1w + _A32 * k2w))
        k4z, k4w = rhs(z + h * (_A41 * k1z + _A42 * k2z + _A43 * k3z),
                       w + h * (_A41 * k1w + _A42 * k2w + _A43 * k3w))
        k5z, k5w = rhs(z + h * (_A51 * k1z + _A52 * k2z + _A53 * k3z + _A54 * k4z),
                       w + h * (_A51 * k1w + _A52 * k2w + _A53 * k3w + _A54 * k4w))
        k6z, k6w = rhs(z + h * (_A61 * k1z + _A62 * k2z + _A63 * k3z + _A64 * k4z + _A65 * k5z),
                       w + h * (_A61 * k1w + _A62 * k2w + _A63 * k3w + _A64 * k4w + _A65 * k5w))
        zn = z + h * (_B1 * k1z + _B3 * k3z + _B4 * k4z + _B5 * k5z + _B6 * k6z)
        wn = w + h * (_B1 * k1w + _B3 * k3w + _B4 * k4w + _B5 * k5w + _B6 * k6w)
        k7z, k7w = rhs(zn, wn)

        ez = h * (_E1 * k1z + _E3 * k3z + _E4 * k4z + _E5 * k5z + _E6 * k6z + _E7 * k7z)
        ew = h * (_E1 * k1w + _E3 * k3w + _E4 * k4w + _E5 * k5w + _E6 * k6w + _E7 * k7w)
        err = 0.0
        for e, y, yn in ((ez.real, z.real, zn.real), (ez.imag, z.imag, zn.imag),
                         (ew.real, w.real, wn.real), (ew.imag, w.imag, wn.imag)):
            y, yn = abs(y), abs(yn)
            sc = atol + rtol * (yn if yn > y else y)
            err += (e / sc) ** 2
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
