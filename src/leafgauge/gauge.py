"""The homogeneous leaf-constant gauge function.

The scaling velocity d, the derivative at t = 1 of t -> leaf_coords(t*x),
measures how the leaf changes along the radial ray through the base
point x; fields.base_point forms its closed form (n1.x, n2.x).

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

from .charts import LeafChart, _project, leaf_coords
from .errors import AssumptionError, NumericError, ProjectionError, RootSearchError
from .fields import PointC2, homogeneity_check_field

__all__ = [
    "GaugeFunction",
    "scaling_velocity",
    "build_gauge",
    "radial_mismatch",
    "solve_scale",
    "scale_power",
    "gauge_eval",
    "gauge_grid_rows",
]


def scaling_velocity(chart: LeafChart) -> tuple[float, float]:
    """d/dt leaf_coords(t*x) at t = 1 in closed form.  leaf(t*x) = t*leaf(x)
    and n1, n2 are normal to the leaf at x, so d = (n1.x, n2.x), the
    transversal part of x, read from the chart's base-point record.  |d| / |x|
    is the sine of the angle between x and the complex tangent line of its
    leaf, which fields.base_point has kept above fields.TANGENCY_SINE."""
    return chart.point.ray_velocity


@dataclass(frozen=True, eq=False)
class GaugeFunction:
    chart: LeafChart
    ray_velocity: tuple[float, float]   # scaling velocity at the base point
    degree: int                         # homogeneity degree of the gauge
    bracket_halfwidth: float = 0.15     # scale factor searched in (1-d, 1+d)
    root_tol: float = 1e-11

    @cached_property
    def _ray_normal(self) -> tuple[float, ...]:
        # unit vector along d1*n1 + d2*n2; zero when d = 0, which makes the
        # Newton system singular
        d1, d2 = self.ray_velocity
        _, _, n1, n2 = self.chart.frame
        scale = math.hypot(d1, d2) or 1.0
        return tuple((d1 * a + d2 * b) / scale for a, b in zip(n1, n2))


def _check_settings(bracket_halfwidth: float, root_tol: float) -> None:
    """The range check of the gauge settings, for build_gauge and PipelineConfig."""
    if not (0 < bracket_halfwidth < 1):
        raise ValueError("bracket_halfwidth must lie in (0, 1)")
    if not (math.isfinite(root_tol) and root_tol > 0):
        raise ValueError("root_tol must be positive and finite")


def build_gauge(chart: LeafChart, degree: int,
                bracket_halfwidth: float = GaugeFunction.bracket_halfwidth,
                root_tol: float = GaugeFunction.root_tol,
                velocity_step: float = 1e-4) -> GaugeFunction:
    """velocity_step is unused (the ray velocity has a closed form); perfbench passes it."""
    if int(degree) != degree or degree < 1:
        raise ValueError("gauge degree must be a positive integer")
    _check_settings(bracket_halfwidth, root_tol)
    if not homogeneity_check_field(chart.field):
        # the scale-factor solve relies on leaf(t*q) = t*leaf(q)
        raise AssumptionError("gauge needs a field homogeneous of its declared degree")
    return GaugeFunction(chart=chart, ray_velocity=scaling_velocity(chart), degree=int(degree),
                         bracket_halfwidth=bracket_halfwidth, root_tol=root_tol)


def radial_mismatch(G: GaugeFunction, q: PointC2, t: float) -> float:
    """<leaf_coords(t*q), ray_velocity>; zero iff t*q lies on the reference
    union of leaves through the base leaf."""
    u = leaf_coords(G.chart, q.scale(t))
    return u[0] * G.ray_velocity[0] + u[1] * G.ray_velocity[1]


def solve_scale(G: GaugeFunction, q: PointC2, t_guess: float | None = None) -> float:
    """The unique scale factor t in (1 - delta, 1 + delta) with
    radial_mismatch(G, q, t) = 0, by Newton on the leaf of q from t_guess
    (default 1).  Raises RootSearchError when the iteration fails (its
    ProjectionError) or its root lies outside that interval.
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


def scale_power(t: float, k: int) -> float:
    """t ** k for a scale factor t, the gauge value for k = -degree.  Raises
    NumericError when it overflows a float, RootSearchError when it is 0."""
    try:
        value = t ** k
    except OverflowError:
        raise NumericError(f"scale factor {t!r} to the power {k} overflows a float") from None
    if not value > 0.0:
        raise RootSearchError(f"scale factor {t!r} to the power {k} underflows to 0")
    return value


def gauge_eval(G: GaugeFunction, q: PointC2, t_guess: float | None = None) -> float:
    """g(q) = solve_scale(q) ** (-degree); positive on the whole domain.
    An optional scale-factor guess (e.g. from a nearby point) starts the
    Newton iteration there without changing the result."""
    return scale_power(solve_scale(G, q, t_guess), -G.degree)


def gauge_grid_rows(G: GaugeFunction, points) -> list[tuple[float, ...]]:
    """Rows (re_z, im_z, re_w, im_w, scale, gauge) for a CSV dump."""
    rows = []
    for q in points:
        t = solve_scale(G, q)
        rows.append((q.z.real, q.z.imag, q.w.real, q.w.imag, t, scale_power(t, -G.degree)))
    return rows
