"""Quantitative residual checks for charts and gauge functions.

Each check draws deterministic samples (seeded numpy generator, uniform in
the chart ball), measures a residual per sample, and reports the worst
case against a fixed tolerance.  Samples whose derived points leave the
chart ball are skipped and counted; a check errors out when it used no
sample or when more than half of its samples are skipped.

Entries use two comparison modes: "max" passes when the recorded residual
is <= tolerance, "min" passes when it is >= tolerance (used for lower
bounds such as the submersion singular value and gauge positivity).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .charts import LeafChart, in_chart_ball, leaf_coords
from .errors import NumericError, RootSearchError
from .fields import PointC2, real_views
from .flows import leaf_flow_map
from .gauge import GaugeFunction, gauge_eval, radial_mismatch, solve_scale

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
    "sample_chart_ball",
    "check_chart",
    "check_leaf_constancy",
    "check_homogeneity",
    "check_ray_consistency",
    "check_scaling_laws",
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

def check_rng(seed: int, check: str) -> np.random.Generator:
    """The sample stream of one named check under a run seed."""
    return np.random.default_rng([seed, _STREAMS[check]])


def sample_chart_ball(chart: LeafChart, n: int, rng: np.random.Generator,
                      shrink: float = 1.0) -> list[PointC2]:
    """n points uniform in the (optionally shrunk) chart ball."""
    radius = shrink * chart.ball_radius
    points = []
    for _ in range(n):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        r = radius * rng.random() ** 0.25
        points.append(PointC2.from_real4(chart.base4 + r * v))
    return points


def _leaf_move_scale(chart: LeafChart, q: PointC2) -> float:
    X1, X2 = real_views(chart.field, q)
    speed = max(float(np.linalg.norm(X1)), float(np.linalg.norm(X2)), 1e-12)
    cap = 0.2 * chart.radius_scale
    return min(cap, cap * chart.base_norm / speed)


def _leaf_mate(chart: LeafChart, q: PointC2, rng: np.random.Generator) -> PointC2:
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

def leaf_coords_jacobian(chart: LeafChart, q: PointC2, step: float) -> np.ndarray:
    """2x4 central-difference Jacobian of the transversal coordinates."""
    q4 = np.array(q.to_real4())
    J = np.zeros((2, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = step
        up = leaf_coords(chart, PointC2.from_real4(q4 + e))
        dn = leaf_coords(chart, PointC2.from_real4(q4 - e))
        J[0, j] = (up[0] - dn[0]) / (2 * step)
        J[1, j] = (up[1] - dn[1]) / (2 * step)
    return J


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
        u_q = np.array(leaf_coords(chart, q))
        u_m = np.array(leaf_coords(chart, mate))
        worst_const = max(worst_const, float(np.linalg.norm(u_m - u_q)))
        used += 1
        pairs.append((q, mate, float(np.linalg.norm(u_m - u_q))))
    _check_skips("chart leaf constancy", used, skipped)
    e_const = check_entry("chart_u_leaf_constancy", worst_const, 1e-7,
                          samples=used, skipped=skipped)

    step = 1e-4 * chart.base_norm
    J = leaf_coords_jacobian(chart, chart.base, step)
    sv = np.linalg.svd(J, compute_uv=False)
    e_subm = check_entry("chart_submersion_sv", float(sv[-1]), 1e-3, mode="min", samples=1)

    X1, X2 = real_views(chart.field, chart.base)
    worst_orth = max(float(np.linalg.norm(J @ (X1 / np.linalg.norm(X1)))),
                     float(np.linalg.norm(J @ (X2 / np.linalg.norm(X2)))))
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
            ua = np.array(leaf_coords(chart, q.scale(t)))
            ub = np.array(leaf_coords(chart, mate.scale(t)))
            worst_scale = max(worst_scale, float(np.linalg.norm(ua - ub)))
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
        g_q = t_q ** (-G.degree)
        # the mate is solved cold so the drift is an independent measurement
        g_m = gauge_eval(G, mate)
        worst_drift = max(worst_drift, abs(g_m - g_q) / g_q)
        q4 = np.array(q.to_real4())
        for X in real_views(chart.field, q):
            u = X / np.linalg.norm(X)
            up = gauge_eval(G, PointC2.from_real4(q4 + h * u), t_guess=t_q)
            dn = gauge_eval(G, PointC2.from_real4(q4 - h * u), t_guess=t_q)
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
        g_q = t_q ** (-G.degree)
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
            expected = t ** G.degree * g_q
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
        sigma = (np.array(leaf_coords(chart, p.scale(tm + h)))
                 - np.array(leaf_coords(chart, p.scale(tm - h)))) / (2 * h)
        ns = float(np.linalg.norm(sigma))
        if ns < 1e-8:
            skipped += 1
            continue
        sigma /= ns
        delta = (np.array(leaf_coords(chart, p.scale(t1)))
                 - np.array(leaf_coords(chart, p.scale(t2))))
        ortho = delta - (delta @ sigma) * sigma
        worst = max(worst, float(np.linalg.norm(ortho)))
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

    min_g = np.inf
    worst_root = 0.0
    worst_recip = 0.0
    worst_euler = 0.0
    used = skipped_recip = 0
    for q in samples:
        t_star = solve_scale(G, q)
        g_q = t_star ** (-G.degree)
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

        q4 = np.array(q.to_real4())
        grad = np.zeros(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            up = gauge_eval(G, PointC2.from_real4(q4 + e), t_guess=t_star)
            dn = gauge_eval(G, PointC2.from_real4(q4 - e), t_guess=t_star)
            grad[j] = (up - dn) / (2 * h)
        worst_euler = max(worst_euler,
                          abs(float(grad @ q4) - G.degree * g_q) / (G.degree * g_q))
        used += 1
    _check_skips("gauge scale reciprocity", used - skipped_recip, skipped_recip)

    return [
        check_entry("gauge_positivity", min_g, 0.0, mode="min", samples=used),
        check_entry("gauge_root_consistency", worst_root, G.root_tol, samples=used),
        check_entry("gauge_scale_reciprocity", worst_recip, 1e-8,
                    samples=used - skipped_recip, skipped=skipped_recip),
        check_entry("gauge_euler_identity", worst_euler, 1e-4, samples=used),
    ]


def run_standard_suite(G: GaugeFunction, n_samples: int = 50,
                       seed: int = DEFAULT_SEED,
                       t_grid=(0.92, 0.96, 1.04, 1.08)) -> list[CheckEntry]:
    """All chart and gauge checks with shared sampling parameters."""
    entries = []
    entries += check_chart(G.chart, n_samples, seed)
    entries += check_leaf_constancy(G, n_samples, seed)
    entries += check_homogeneity(G, t_grid, n_samples, seed)
    entries += check_ray_consistency(G.chart, n_samples, seed)
    entries += check_scaling_laws(G, n_samples, seed)
    return entries
