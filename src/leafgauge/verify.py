"""Quantitative residual checks for charts and gauge functions.

Each check draws deterministic samples, uniform in the chart ball, from a
seeded PCG64 stream whose draws are those of numpy's default_rng
(leafgauge.rng), measures a residual per sample, and reports the worst
case against a fixed tolerance.  Samples whose derived points leave the
chart ball are skipped and counted; a check errors out when it used no
sample or when more than half of its samples are skipped.

Entries use two comparison modes: "max" passes when the recorded residual
is <= tolerance, "min" passes when it is >= tolerance (used for lower
bounds such as the submersion singular value and gauge positivity).
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass

from .charts import LeafChart, _unit, in_chart_ball, leaf_coords
from .errors import NumericError, RootSearchError
from .fields import PointC2, _dot, real_views
from .flows import leaf_flow_map
from .gauge import GaugeFunction, gauge_eval, radial_mismatch, scale_power, solve_scale
from .rng import Stream

__all__ = [
    "DEFAULT_SEED",
    "CheckEntry",
    "VerificationReport",
    "assemble_report",
    "check_entry",
    "check_rng",
    "report_to_dict",
    "report_to_json",
    "report_to_text",
    "sample_ball",
    "sample_chart_ball",
    "check_chart",
    "check_leaf_constancy",
    "check_homogeneity",
    "check_ray_consistency",
    "check_scaling_laws",
    "run_checks",
    "run_standard_suite",
]

DEFAULT_SEED = 0x5EED

# Stable per-check stream ids so adding checks never reshuffles samples.
_STREAMS = {
    "chart": 1,
    "leaf_constancy": 2,
    "homogeneity": 3,
    "ray_consistency": 4,
    "scaling_laws": 5,
    "leaf_harmonicity": 6,
    "involutivity": 7,
    "grid": 99,              # build-gauge --grid-out sample points
}


@dataclass(frozen=True)
class CheckEntry:
    name: str
    residual: float
    tolerance: float
    passed: bool
    mode: str = "max"        # "max": residual <= tol, "min": residual >= tol
    samples: int = 0
    skipped: int = 0


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple[CheckEntry, ...]
    note: str = ""

    @property
    def overall_pass(self) -> bool:
        return all(e.passed for e in self.entries)


def check_entry(name, residual, tolerance, mode="max", samples=0, skipped=0) -> CheckEntry:
    """One report entry; the verdict follows from the residual and mode."""
    residual = float(residual)
    passed = residual <= tolerance if mode == "max" else residual >= tolerance
    return CheckEntry(name=name, residual=residual, tolerance=tolerance,
                      passed=passed, mode=mode, samples=samples, skipped=skipped)


def assemble_report(entries, note: str = "") -> VerificationReport:
    """Deterministic aggregation: entries sorted by name, duplicates are an
    error, an empty list passes vacuously but is flagged."""
    ordered = sorted(entries, key=lambda e: e.name)
    names = [e.name for e in ordered]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate check: {', '.join(dup)}")
    if not ordered and not note:
        note = "no checks run"
    return VerificationReport(entries=tuple(ordered), note=note)


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "entries": [
            {"name": e.name, "residual": e.residual, "tolerance": e.tolerance,
             "passed": e.passed, "mode": e.mode, "samples": e.samples,
             "skipped": e.skipped}
            for e in report.entries
        ],
        "overall_pass": report.overall_pass,
        "note": report.note,
    }


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def report_to_text(report: VerificationReport) -> str:
    lines = [f"{'check':34s} {'residual':>13s} {'tolerance':>10s} {'mode':>4s} "
             f"{'n':>4s} {'skip':>4s}  verdict"]
    for e in report.entries:
        lines.append(
            f"{e.name:34s} {e.residual:13.4e} {e.tolerance:10.1e} {e.mode:>4s} "
            f"{e.samples:4d} {e.skipped:4d}  {'pass' if e.passed else 'FAIL'}")
    lines.append(f"overall: {'pass' if report.overall_pass else 'FAIL'}"
                 + (f"  ({report.note})" if report.note else ""))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def check_rng(seed: int, check: str) -> Stream:
    """The sample stream of one named check under a run seed: the draws of
    numpy's default_rng([seed, stream id])."""
    return Stream([seed, _STREAMS[check]])


def sample_ball(center, radius: float, n: int, rng) -> list[PointC2]:
    """n points uniform in the ball around the real 4-vector center: a
    direction from four normal draws, then a radius from one uniform."""
    points = []
    for _ in range(n):
        v = [rng.standard_normal() for _ in range(4)]
        norm = math.hypot(*v)
        r = radius * rng.random() ** 0.25
        points.append(PointC2.from_real4([c + r * (x / norm) for c, x in zip(center, v)]))
    return points


def sample_chart_ball(chart: LeafChart, n: int, rng, shrink: float = 1.0) -> list[PointC2]:
    """n points uniform in the (optionally shrunk) chart ball."""
    return sample_ball(chart.base4, shrink * chart.ball_radius, n, rng)


def _leaf_move_scale(chart: LeafChart, q: PointC2) -> float:
    X1, X2 = real_views(chart.field, q)
    speed = max(math.hypot(*X1), math.hypot(*X2), 1e-12)
    cap = 0.2 * chart.radius_scale
    return min(cap, cap * chart.base_norm / speed)


def _leaf_mate(chart: LeafChart, q: PointC2, rng) -> PointC2:
    s = _leaf_move_scale(chart, q)
    s1 = float(rng.uniform(-s, s))
    s2 = float(rng.uniform(-s, s))
    return leaf_flow_map(chart.field, q, s1, s2, chart.flow_cfg)


def _check_skips(name: str, used: int, skipped: int) -> None:
    if used == 0:
        raise NumericError(f"{name}: no sample was used")
    if skipped > used:
        raise NumericError(f"{name}: more than half of the samples were skipped")


# ---------------------------------------------------------------------------
# chart checks
# ---------------------------------------------------------------------------

def _shifted(q4, j: int, h: float) -> PointC2:
    # q4 + h e_j as a point
    return PointC2.from_real4([c + (h if k == j else 0.0) for k, c in enumerate(q4)])


def leaf_coords_jacobian(chart: LeafChart, q: PointC2,
                         step: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """2x4 central-difference Jacobian of the transversal coordinates, as
    its two rows."""
    q4 = q.to_real4()
    cols = []
    for j in range(4):
        up = leaf_coords(chart, _shifted(q4, j, step))
        dn = leaf_coords(chart, _shifted(q4, j, -step))
        cols.append(((up[0] - dn[0]) / (2 * step), (up[1] - dn[1]) / (2 * step)))
    return tuple(zip(*cols))


def _min_singular_value(J) -> float:
    """Smaller singular value of a 2xn matrix: det(J J^T) / l_max, with the
    determinant as the Lagrange sum of squared 2x2 minors (no cancellation)
    and l_max the larger eigenvalue of J J^T."""
    r0, r1 = J
    det = sum((r0[i] * r1[j] - r0[j] * r1[i]) ** 2
              for i in range(len(r0)) for j in range(i + 1, len(r0)))
    p, q, r = _dot(r0, r0), _dot(r0, r1), _dot(r1, r1)
    return math.sqrt(det / ((p + r) / 2 + math.hypot((p - r) / 2, q)))


def check_chart(chart: LeafChart, n_samples: int = 50,
                seed: int = DEFAULT_SEED) -> list[CheckEntry]:
    """The four chart invariants: leaf constancy of the coordinates,
    submersion rank, orthogonality to the field directions, and stability
    of coordinate agreement under radial scaling."""
    rng = check_rng(seed, "chart")
    samples = sample_chart_ball(chart, n_samples, rng, shrink=0.8)

    worst_const = 0.0
    used = skipped = 0
    pairs = []
    for q in samples:
        mate = _leaf_mate(chart, q, rng)
        if not in_chart_ball(chart, mate):
            skipped += 1
            continue
        u_q, u_m = leaf_coords(chart, q), leaf_coords(chart, mate)
        drift = math.hypot(u_m[0] - u_q[0], u_m[1] - u_q[1])
        worst_const = max(worst_const, drift)
        used += 1
        pairs.append((q, mate, drift))
    _check_skips("chart leaf constancy", used, skipped)
    e_const = check_entry("chart_u_leaf_constancy", worst_const, 1e-7,
                          samples=used, skipped=skipped)

    step = 1e-4 * chart.base_norm
    J = leaf_coords_jacobian(chart, chart.base, step)
    e_subm = check_entry("chart_submersion_sv", _min_singular_value(J), 1e-3,
                         mode="min", samples=1)

    worst_orth = 0.0
    for X in real_views(chart.field, chart.base):
        u = _unit(X)
        worst_orth = max(worst_orth, math.hypot(_dot(J[0], u), _dot(J[1], u)))
    e_orth = check_entry("chart_leaf_orthogonality", worst_orth, 1e-6, samples=2)

    # Coordinate agreement must survive radial scaling: pairs on one leaf
    # stay coordinate-equal after both are scaled by the same factor.
    worst_scale = 0.0
    used_s = skipped_s = 0
    for q, mate, drift in pairs:
        if drift > 1e-9:
            skipped_s += 1
            continue
        for t in (0.95, 1.05):
            ua, ub = leaf_coords(chart, q.scale(t)), leaf_coords(chart, mate.scale(t))
            worst_scale = max(worst_scale, math.hypot(ua[0] - ub[0], ua[1] - ub[1]))
        used_s += 1
    _check_skips("chart leaf scaling", used_s, skipped_s)
    e_scale = check_entry("chart_leaf_scaling", worst_scale, 1e-6,
                          samples=used_s, skipped=skipped_s)

    return [e_const, e_subm, e_orth, e_scale]


# ---------------------------------------------------------------------------
# gauge checks
# ---------------------------------------------------------------------------

def check_leaf_constancy(G: GaugeFunction, n_samples: int = 50,
                         seed: int = DEFAULT_SEED) -> list[CheckEntry]:
    """Gauge drift between leaf mates (relative) and normalized directional
    derivatives of the gauge along the field directions."""
    chart = G.chart
    rng = check_rng(seed, "leaf_constancy")
    samples = sample_chart_ball(chart, n_samples, rng, shrink=0.8)
    h = 1e-5 * chart.base_norm

    worst_drift = 0.0
    worst_deriv = 0.0
    used = skipped = 0
    for q in samples:
        mate = _leaf_mate(chart, q, rng)
        if not in_chart_ball(chart, mate):
            skipped += 1
            continue
        t_q = solve_scale(G, q)
        g_q = scale_power(t_q, -G.degree)
        # the mate is solved cold so the drift is an independent measurement
        g_m = gauge_eval(G, mate)
        worst_drift = max(worst_drift, abs(g_m - g_q) / g_q)
        q4 = q.to_real4()
        for X in real_views(chart.field, q):
            u = _unit(X)
            up = gauge_eval(G, PointC2.from_real4([c + h * x for c, x in zip(q4, u)]),
                            t_guess=t_q)
            dn = gauge_eval(G, PointC2.from_real4([c - h * x for c, x in zip(q4, u)]),
                            t_guess=t_q)
            worst_deriv = max(worst_deriv, abs(up - dn) / (2 * h * g_q))
        used += 1
    _check_skips("gauge leaf constancy", used, skipped)
    return [
        check_entry("gauge_leaf_constancy", worst_drift, 1e-6, samples=used, skipped=skipped),
        check_entry("gauge_leaf_derivative", worst_deriv, 1e-4, samples=used, skipped=skipped),
    ]


def check_homogeneity(G: GaugeFunction, t_grid=(0.92, 0.96, 1.04, 1.08),
                      n_samples: int = 50, seed: int = DEFAULT_SEED) -> list[CheckEntry]:
    """Relative error of g(t*q) against t**degree * g(q) over the grid."""
    chart = G.chart
    rng = check_rng(seed, "homogeneity")
    samples = sample_chart_ball(chart, n_samples, rng, shrink=0.6)
    worst = 0.0
    used = skipped = 0
    for q in samples:
        t_q = solve_scale(G, q)
        g_q = scale_power(t_q, -G.degree)
        any_used = False
        for t in t_grid:
            tq = q.scale(t)
            if not in_chart_ball(chart, tq):
                continue
            try:
                # scale reciprocity puts the root of t*q near t_q / t
                g_t = gauge_eval(G, tq, t_guess=t_q / t)
            except RootSearchError:
                continue
            expected = scale_power(t, G.degree) * g_q
            worst = max(worst, abs(g_t - expected) / expected)
            any_used = True
        if any_used:
            used += 1
        else:
            skipped += 1
    _check_skips("gauge homogeneity", used, skipped)
    return [check_entry("gauge_homogeneity", worst, 1e-6, samples=used, skipped=skipped)]


def check_ray_consistency(chart: LeafChart, n_samples: int = 50,
                          seed: int = DEFAULT_SEED) -> list[CheckEntry]:
    """Points on one radial ray trace a curve in leaf coordinates whose
    chords stay parallel to the local scaling direction: the orthogonal
    component of u(t1*p) - u(t2*p) must vanish to first order."""
    rng = check_rng(seed, "ray_consistency")
    samples = sample_chart_ball(chart, n_samples, rng, shrink=0.7)
    worst = 0.0
    used = skipped = 0
    h = 1e-4
    for p in samples:
        t1 = float(rng.uniform(0.96, 1.04))
        t2 = float(rng.uniform(0.96, 1.04))
        if not (in_chart_ball(chart, p.scale(t1)) and in_chart_ball(chart, p.scale(t2))):
            skipped += 1
            continue
        tm = 0.5 * (t1 + t2)
        up, dn = leaf_coords(chart, p.scale(tm + h)), leaf_coords(chart, p.scale(tm - h))
        sigma = ((up[0] - dn[0]) / (2 * h), (up[1] - dn[1]) / (2 * h))
        ns = math.hypot(*sigma)
        if ns < 1e-8:
            skipped += 1
            continue
        s0, s1 = sigma[0] / ns, sigma[1] / ns
        u1, u2 = leaf_coords(chart, p.scale(t1)), leaf_coords(chart, p.scale(t2))
        d0, d1 = u1[0] - u2[0], u1[1] - u2[1]
        along = d0 * s0 + d1 * s1
        worst = max(worst, math.hypot(d0 - along * s0, d1 - along * s1))
        used += 1
    _check_skips("ray consistency", used, skipped)
    return [check_entry("ray_consistency", worst, 1e-5, samples=used, skipped=skipped)]


def check_scaling_laws(G: GaugeFunction, n_samples: int = 50,
                       seed: int = DEFAULT_SEED) -> list[CheckEntry]:
    """Positivity, root consistency, scale-factor reciprocity under radial
    scaling, and the homogeneity identity <grad g, q> = degree * g."""
    chart = G.chart
    rng = check_rng(seed, "scaling_laws")
    samples = sample_chart_ball(chart, n_samples, rng, shrink=0.6)
    h = 1e-5 * chart.base_norm

    min_g = math.inf
    worst_root = 0.0
    worst_recip = 0.0
    worst_euler = 0.0
    used = skipped_recip = 0
    for q in samples:
        t_star = solve_scale(G, q)
        g_q = scale_power(t_star, -G.degree)
        min_g = min(min_g, g_q)
        worst_root = max(worst_root, abs(radial_mismatch(G, q, t_star)))

        t = float(rng.uniform(0.94, 1.06))
        tq = q.scale(t)
        if in_chart_ball(chart, tq):
            try:
                worst_recip = max(worst_recip,
                                  abs(solve_scale(G, tq, t_guess=t_star / t) * t - t_star))
            except RootSearchError:
                skipped_recip += 1
        else:
            skipped_recip += 1

        q4 = q.to_real4()
        grad = [(gauge_eval(G, _shifted(q4, j, h), t_guess=t_star)
                 - gauge_eval(G, _shifted(q4, j, -h), t_guess=t_star)) / (2 * h)
                for j in range(4)]
        worst_euler = max(worst_euler,
                          abs(_dot(grad, q4) - G.degree * g_q) / (G.degree * g_q))
        used += 1
    _check_skips("gauge scale reciprocity", used - skipped_recip, skipped_recip)

    return [
        check_entry("gauge_positivity", min_g, 0.0, mode="min", samples=used),
        check_entry("gauge_root_consistency", worst_root, G.root_tol, samples=used),
        check_entry("gauge_scale_reciprocity", worst_recip, 1e-8,
                    samples=used - skipped_recip, skipped=skipped_recip),
        check_entry("gauge_euler_identity", worst_euler, 1e-4, samples=used),
    ]


def _run_each(thunks) -> list:
    """Each thunk's entries, up to and including the first exception."""
    results = []
    for thunk in thunks:
        try:
            results.append(thunk())
        except Exception as exc:
            return results + [exc]
    return results


def run_checks(tasks) -> list[CheckEntry]:
    """Entries of the (thunk, forked) pairs in `tasks` as running them in
    order would give, first exception included.  Given fork, two usable
    cores and no other live thread (forking one can deadlock), a worker runs
    the `forked` thunks and pipes back their pickled results; else all run here."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1):
        results = [iter(_run_each(thunk for thunk, _ in tasks))] * 2
    else:
        import pickle
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:                # the worker never returns into the caller
                with os.fdopen(w, "wb") as out:
                    out.write(pickle.dumps(_run_each(t for t, forked in tasks if forked)))
            finally:
                os._exit(0)
        os.close(w)
        try:
            mine = _run_each(t for t, forked in tasks if not forked)
        finally:
            with os.fdopen(r, "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
        # a dead worker fails where the walk first needs it: earlier errors win
        theirs = (pickle.loads(data) if status == 0 and data else
                  [RuntimeError(f"verification worker failed with wait status {status}")])
        results = [iter(mine), iter(theirs)]
    entries = []
    for _, forked in tasks:
        result = next(results[forked])
        if isinstance(result, Exception):
            raise result
        entries += result
    return entries


def run_standard_suite(G: GaugeFunction, n_samples: int = 50,
                       seed: int = DEFAULT_SEED, extra=()) -> list[CheckEntry]:
    """All chart and gauge checks with shared sampling parameters, then the
    `extra` thunks; leaf constancy and the scaling laws, about half of the
    work, are the ones a forked worker runs (see run_checks)."""
    return run_checks([
        (lambda: check_chart(G.chart, n_samples, seed), False),
        (lambda: check_leaf_constancy(G, n_samples, seed), True),
        (lambda: check_homogeneity(G, n_samples=n_samples, seed=seed), False),
        (lambda: check_ray_consistency(G.chart, n_samples, seed), False),
        (lambda: check_scaling_laws(G, n_samples, seed), True),
        *((thunk, False) for thunk in extra),
    ])
