"""End-to-end pipelines: from a degenerate polynomial or an explicit field
to a verified gauge function.

The polynomial path validates the hypotheses on (P, x), derives the
tangent candidate fields, selects the one alive at x, re-verifies
involutivity and transversality numerically, builds the chart and gauge,
and runs the full check suite plus a leaf-harmonicity spot check of P.

The field path skips the polynomial-specific hypotheses and instead
checks the field assumptions directly (exact homogeneity with positive
degree, nonvanishing, involutivity, transversality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .charts import ChartConfig, LeafChart, build_chart
from .errors import AssumptionError, NumericError
from .fields import (
    NONVANISH_THRESHOLD,
    PointC2,
    VectorFieldC2,
    annihilation_check,
    field_eval,
    homogeneity_check_field,
    involutivity_check,
    real_views,
    select_field,
    transversality_check,
    vanish_scale,
)
from .flows import FlowConfig, leaf_flow_map
from .gauge import GaugeFunction, build_gauge
from .verify import (
    DEFAULT_SEED,
    CheckEntry,
    VerificationReport,
    assemble_report,
    check_entry,
    check_rng,
    run_standard_suite,
    sample_ball,
    sample_chart_ball,
)
from .wirtinger import (
    WirtingerPoly,
    hessian_eval,
    homogeneity_degree,
    is_on_harmonic_line,
    levi_determinant,
    poly_eval,
    poly_is_real,
)

__all__ = [
    "PipelineConfig",
    "HypothesisCheck",
    "HypothesisChecklist",
    "validate_hypotheses",
    "leaf_harmonicity_check",
    "run_pipeline",
    "run_field_pipeline",
]

# sample points and tolerance of the involutivity check
N_INVOLUTIVITY = 20
INVOLUTIVITY_TOL = 1e-8


@dataclass(frozen=True)
class PipelineConfig:
    """Solver and sampling knobs for a full pipeline run.  The chart and
    flow settings default to those of ChartConfig and FlowConfig, so
    flow_cfg() and chart_cfg() of the defaults equal FlowConfig() and
    ChartConfig().
    """

    chart_radius: float = ChartConfig.radius_scale
    newton_tol: float = ChartConfig.newton_tol
    bracket_halfwidth: float = 0.15
    root_tol: float = 1e-11
    ode_tol: float = FlowConfig.tol
    max_step: float = FlowConfig.max_step
    n_samples: int = 50
    seed: int = DEFAULT_SEED
    velocity_step: float = 1e-4     # unused; perfbench passes it to build_gauge

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not all(math.isfinite(v) and v > 0
                   for v in (self.newton_tol, self.root_tol, self.ode_tol, self.max_step,
                             self.velocity_step)):
            raise ValueError("tolerances and steps must be positive and finite")
        if not (0 < self.chart_radius < 1 and 0 < self.bracket_halfwidth < 1):
            raise ValueError("chart_radius and bracket_halfwidth must lie in (0, 1)")

    def flow_cfg(self) -> FlowConfig:
        return FlowConfig(tol=self.ode_tol, max_step=self.max_step)

    def chart_cfg(self) -> ChartConfig:
        return ChartConfig(radius_scale=self.chart_radius, newton_tol=self.newton_tol,
                           flow=self.flow_cfg())


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class HypothesisChecklist:
    checks: tuple[HypothesisCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def validate_hypotheses(P: WirtingerPoly, x: PointC2) -> HypothesisChecklist:
    """Verdicts for the five admissibility hypotheses on (P, x): P real
    valued, homogeneous of even degree 2k with k >= 2, Hessian of P nonzero
    at x, x off every line through 0 along which P is harmonic, and Levi
    determinant identically zero."""
    checks = []

    real = poly_is_real(P)
    checks.append(HypothesisCheck("real_valued", real, ""))

    try:
        deg = homogeneity_degree(P)
    except ValueError:
        deg = None
    if deg is None:
        checks.append(HypothesisCheck("homogeneous_even_degree", False,
                                      "inhomogeneous or zero"))
    else:
        ok = deg % 2 == 0 and deg >= 4
        checks.append(HypothesisCheck("homogeneous_even_degree", ok,
                                      f"degree {deg}, k={deg // 2}"))

    if real:
        (h00, h01), (h10, h11) = hessian_eval(P, x)
        norm = math.hypot(h00.real, h00.imag, h01.real, h01.imag,
                          h10.real, h10.imag, h11.real, h11.imag)
        try:
            scale = max(1.0, x.norm()) ** max((deg or 2) - 2, 0)
        except OverflowError:
            raise NumericError(f"Hessian scale at {x} overflows a float") from None
        ok = norm > 1e-8 * scale
        checks.append(HypothesisCheck("hessian_nonzero_at_base", ok, f"norm {norm:.3e}"))
        on_line = is_on_harmonic_line(P, x)
        checks.append(HypothesisCheck("base_off_harmonic_lines", not on_line, ""))
        levi_zero = levi_determinant(P).is_zero
        checks.append(HypothesisCheck("levi_determinant_zero", levi_zero, ""))
    else:
        checks.append(HypothesisCheck("hessian_nonzero_at_base", False, "P not real"))
        checks.append(HypothesisCheck("base_off_harmonic_lines", False, "P not real"))
        checks.append(HypothesisCheck("levi_determinant_zero", False, "P not real"))

    return HypothesisChecklist(tuple(checks))


def leaf_harmonicity_check(P: WirtingerPoly, V: VectorFieldC2, chart: LeafChart,
                           n_samples: int = 50,
                           seed: int = DEFAULT_SEED) -> list[CheckEntry]:
    """Numeric double check that P is harmonic along the constructed
    leaves: the Levi form of P in the (unit) field direction vanishes at
    samples, and second differences of P along both leaf flow directions
    stay at noise level."""
    rng = check_rng(seed, "leaf_harmonicity")
    samples = sample_chart_ball(chart, n_samples, rng, shrink=0.8)
    worst_levi = 0.0
    worst_second = 0.0
    for q in samples:
        (h00, h01), (h10, h11) = hessian_eval(P, q)
        v = field_eval(V, q)
        n = v.norm()
        a, b = v.z / n, v.w / n
        levi = a.conjugate() * (h00 * a + h01 * b) + b.conjugate() * (h10 * a + h11 * b)
        worst_levi = max(worst_levi, abs(levi))

        X1, _ = real_views(chart.field, q)
        speed = max(math.hypot(*X1), 1e-12)
        h = min(0.05, 0.05 * chart.base_norm / speed)
        p0 = poly_eval(P, q).real
        scale = max(1.0, abs(p0))
        for c1, c2 in ((1.0, 0.0), (0.0, 1.0)):
            up = poly_eval(P, leaf_flow_map(chart.field, q, c1 * h, c2 * h,
                                            chart.flow_cfg)).real
            dn = poly_eval(P, leaf_flow_map(chart.field, q, -c1 * h, -c2 * h,
                                            chart.flow_cfg)).real
            worst_second = max(worst_second, abs(up - 2 * p0 + dn) / (h * h * scale))
    return [
        check_entry("leaf_levi_form", worst_levi, 1e-9, samples=len(samples)),
        check_entry("leaf_second_difference", worst_second, 1e-6, samples=len(samples)),
    ]


def _assumption_entries(V: VectorFieldC2, x: PointC2,
                        cfg: PipelineConfig) -> list[CheckEntry]:
    samples = sample_ball(x.to_real4(), cfg.chart_radius * x.norm(), N_INVOLUTIVITY,
                          check_rng(cfg.seed, "involutivity"))
    inv = involutivity_check(V, samples, INVOLUTIVITY_TOL)
    if not inv.passed:
        raise AssumptionError(
            f"involutivity failed: worst relative singular value {inv.residual:.3e}")
    tr = transversality_check(V, x)
    if not tr.passed:
        raise AssumptionError("transversality failed at the base point")
    tr_norm = tr.residual / (x.norm() * field_eval(V, x).norm())
    return [
        check_entry("field_involutivity", inv.residual, INVOLUTIVITY_TOL, samples=len(samples)),
        check_entry("base_transversality", tr_norm, NONVANISH_THRESHOLD, mode="min", samples=1),
    ]


def _build_and_verify(V: VectorFieldC2, x: PointC2, degree: int,
                      cfg: PipelineConfig, extra_entries) -> tuple[GaugeFunction, VerificationReport]:
    entries = _assumption_entries(V, x, cfg)
    chart = build_chart(V, x, cfg.chart_cfg())
    G = build_gauge(chart, degree, bracket_halfwidth=cfg.bracket_halfwidth,
                    root_tol=cfg.root_tol)
    entries += run_standard_suite(G, cfg.n_samples, cfg.seed,
                                  extra=[lambda: extra_entries(chart)])
    return G, assemble_report(entries)


def run_pipeline(P: WirtingerPoly, x: PointC2, degree: int | None = None,
                 cfg: PipelineConfig | None = None):
    """Polynomial path: hypotheses, field selection, chart, gauge, full
    verification.  Returns (gauge, report); raises AssumptionError naming
    the first failing hypothesis."""
    cfg = cfg or PipelineConfig()
    checklist = validate_hypotheses(P, x)
    if not checklist.all_passed:
        raise AssumptionError("hypothesis failed: " + ", ".join(checklist.failures))
    V = select_field(P, x)
    if not annihilation_check(P, V):
        raise AssumptionError("selected field does not annihilate the Hessian")
    if degree is None:
        degree = homogeneity_degree(P)

    def extra(chart: LeafChart):
        return leaf_harmonicity_check(P, V, chart, cfg.n_samples, cfg.seed)

    return _build_and_verify(V, x, degree, cfg, extra)


def run_field_pipeline(V: VectorFieldC2, x: PointC2, degree: int,
                       cfg: PipelineConfig | None = None):
    """Explicit-field path: check the field assumptions directly, then
    chart, gauge, and the standard verification suite."""
    cfg = cfg or PipelineConfig()
    if not homogeneity_check_field(V):
        raise AssumptionError("field components are not homogeneous of the declared degree")
    if V.degree < 1:
        raise AssumptionError("field homogeneity degree must be a positive integer")
    if field_eval(V, x).norm() <= NONVANISH_THRESHOLD * vanish_scale(V, x):
        raise AssumptionError("field vanishes at the base point")
    return _build_and_verify(V, x, degree, cfg, lambda chart: [])
