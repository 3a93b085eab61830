"""The homogeneous leaf-constant gauge function.

Given a leaf chart, the scaling velocity d is the derivative at t = 1 of
t -> leaf_coords(t * base): it measures how the leaf changes along the
radial ray through the base point, and it cannot vanish when the base
point is transversal to the field.

The zero set of q -> <leaf_coords(q), d> is a union of leaves through the
base leaf and is transverse to radial scaling, so for each nearby q there
is a unique scale factor t in (1 - delta, 1 + delta) with
radial_mismatch(q, t) = 0.  The gauge value is that factor to the power
-degree: it is positive, constant along leaves, and homogeneous of the
requested degree.

The field is homogeneous, so leaf(t*q) = t*leaf(q) and the scale factor
is found on the leaf of q itself: one Newton system in a point p of that
leaf and t, with rows e1.(t*p - x) = e2.(t*p - x) = m.(t*p - x) = 0 for
the unit vector m along d1*n1 + d2*n2 (charts._project).  Its zero set is
exactly that of the radial mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charts import LeafChart, _project, leaf_coords
from .errors import AssumptionError, ProjectionError, RootSearchError
from .fields import PointC2, homogeneity_check_field

__all__ = [
    "GaugeFunction",
    "scaling_velocity",
    "build_gauge",
    "radial_mismatch",
    "solve_scale",
    "gauge_eval",
    "gauge_grid_rows",
]


def scaling_velocity(chart: LeafChart, step: float = 1e-4) -> tuple[float, float]:
    """Richardson-extrapolated central difference of t -> leaf_coords(t*x)
    at t = 1.  A norm below 1e-4 means the ray is numerically tangent to
    the leaf, which contradicts transversality of the base point."""
    x = chart.base

    def u_at(t: float) -> np.ndarray:
        return np.array(leaf_coords(chart, x.scale(t)))

    def central(h: float) -> np.ndarray:
        return (u_at(1.0 + h) - u_at(1.0 - h)) / (2.0 * h)

    d = (4.0 * central(step / 2) - central(step)) / 3.0
    if float(np.linalg.norm(d)) <= 1e-4:
        raise AssumptionError(
            "radial direction tangent to leaf: base point fails transversality numerically")
    return (float(d[0]), float(d[1]))


@dataclass(frozen=True, eq=False)
class GaugeFunction:
    chart: LeafChart
    ray_velocity: tuple[float, float]   # scaling velocity at the base point
    degree: int                         # homogeneity degree of the gauge
    bracket_halfwidth: float            # scale factor searched in (1-d, 1+d)
    root_tol: float

    @cached_property
    def _ray_normal(self) -> tuple[float, ...]:
        # unit vector along d1*n1 + d2*n2; zero when d = 0, which makes the
        # Newton system singular
        d1, d2 = self.ray_velocity
        _, _, n1, n2 = self.chart._frame_t
        scale = math.hypot(d1, d2) or 1.0
        return tuple((d1 * a + d2 * b) / scale for a, b in zip(n1, n2))


def build_gauge(chart: LeafChart, degree: int, bracket_halfwidth: float = 0.15,
                root_tol: float = 1e-11, velocity_step: float = 1e-4) -> GaugeFunction:
    if int(degree) != degree or degree < 1:
        raise ValueError("gauge degree must be a positive integer")
    if not (0 < bracket_halfwidth < 1):
        raise ValueError("bracket halfwidth must lie in (0, 1)")
    if root_tol <= 0:
        raise ValueError("root_tol must be positive")
    if not homogeneity_check_field(chart.field):
        # the scale-factor solve relies on leaf(t*q) = t*leaf(q)
        raise AssumptionError("gauge needs a field homogeneous of its declared degree")
    d = scaling_velocity(chart, velocity_step)
    G = GaugeFunction(chart=chart, ray_velocity=d, degree=int(degree),
                      bracket_halfwidth=bracket_halfwidth, root_tol=root_tol)
    base_val = gauge_eval(G, chart.base)
    if abs(base_val - 1.0) > degree * root_tol:
        raise AssumptionError("gauge normalization failed at the base point")
    return G


def radial_mismatch(G: GaugeFunction, q: PointC2, t: float) -> float:
    """<leaf_coords(t*q), ray_velocity>; zero iff t*q lies on the reference
    union of leaves through the base leaf."""
    u = leaf_coords(G.chart, q.scale(t))
    return u[0] * G.ray_velocity[0] + u[1] * G.ray_velocity[1]


def solve_scale(G: GaugeFunction, q: PointC2, t_guess: float | None = None) -> float:
    """The unique scale factor t in (1 - delta, 1 + delta) with
    radial_mismatch(G, q, t) = 0, by Newton on the leaf of q from t_guess
    (default 1).  Raises RootSearchError when the iteration does not
    converge or its root lies outside that interval, and
    DegenerateRootError when the Newton system is singular.
    """
    lo, hi = 1.0 - G.bracket_halfwidth, 1.0 + G.bracket_halfwidth
    t0 = 1.0 if t_guess is None else min(max(t_guess, lo), hi)
    try:
        t, _ = _project(G.chart, q, G._ray_normal, t0)
    except ProjectionError as exc:
        raise RootSearchError(f"point outside gauge domain: {exc}") from exc
    if not lo < t < hi:
        raise RootSearchError(
            f"point outside gauge domain: scale factor {t!r} outside ({lo!r}, {hi!r})")
    return t


def gauge_eval(G: GaugeFunction, q: PointC2, t_guess: float | None = None) -> float:
    """g(q) = solve_scale(q) ** (-degree); positive on the whole domain.
    An optional scale-factor guess (e.g. from a nearby point) starts the
    Newton iteration there without changing the result."""
    t = solve_scale(G, q, t_guess)
    value = t ** (-G.degree)
    if not (value > 0.0) or not math.isfinite(value):
        raise RootSearchError(f"gauge evaluation produced non-positive value {value}")
    return value


def gauge_grid_rows(G: GaugeFunction, points) -> list[tuple[float, ...]]:
    """Rows (re_z, im_z, re_w, im_w, scale, gauge) for a CSV dump."""
    rows = []
    for q in points:
        t = solve_scale(G, q)
        rows.append((q.z.real, q.z.imag, q.w.real, q.w.imag, t, t ** (-G.degree)))
    return rows
