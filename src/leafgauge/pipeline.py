"""End-to-end pipelines: from a degenerate polynomial or an explicit field
to a verified gauge function.

The polynomial path validates the hypotheses on (P, x), derives the
tangent candidate fields, selects the one alive at x, refuses a ray
through x tangent to its leaf, re-verifies involutivity numerically,
builds the chart and gauge, and runs the standard check suite.  The report
checks the gauge, not P: P is only harmonic along the leaves (Bedford &
Kalka), and P + Re(h), h holomorphic, has the same complex Hessian, so the
same field, gauge and report.

The field path skips the polynomial-specific hypotheses and instead
checks the field assumptions directly (exact homogeneity with positive
degree, nonvanishing, transversality, involutivity).

Each fact at the base point has one rule, in fields: vanishes decides
nonvanishing, the candidate test of select_field the Hessian, and
_tangency tangency; a build decides V's facts at x once, in base_point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charts import ChartConfig, _chart_at
from .errors import AssumptionError
from .fields import (
    PointC2,
    VectorFieldC2,
    base_point,
    homogeneity_check_field,
    involutivity_check,
    _live_candidate,
    select_field,
)
from .flows import FlowConfig
from .gauge import GaugeFunction, _check_settings, build_gauge
from .verify import (
    DEFAULT_SEED,
    VerificationReport,
    assemble_report,
    check_entry,
    check_rng,
    run_standard_suite,
    sample_ball,
)
from .wirtinger import (
    WirtingerPoly,
    homogeneity_degree,
    is_on_harmonic_line,
    levi_determinant,
    poly_is_real,
)

__all__ = [
    "PipelineConfig",
    "HypothesisCheck",
    "HypothesisChecklist",
    "validate_hypotheses",
    "run_pipeline",
    "run_field_pipeline",
]

# sample points and tolerance of the involutivity check
N_INVOLUTIVITY = 20
INVOLUTIVITY_TOL = 1e-8


@dataclass(frozen=True)
class PipelineConfig:
    """Solver and sampling knobs for a full pipeline run.  Each solver
    setting takes its default and its range check from the layer that uses
    it: ChartConfig, FlowConfig (both through chart_cfg()) or the gauge.
    """

    chart_radius: float = ChartConfig.radius_scale
    newton_tol: float = ChartConfig.newton_tol
    bracket_halfwidth: float = GaugeFunction.bracket_halfwidth
    root_tol: float = GaugeFunction.root_tol
    ode_tol: float = FlowConfig.tol
    max_step: float = FlowConfig.max_step
    n_samples: int = 50
    seed: int = DEFAULT_SEED
    velocity_step: float = 1e-4     # unused; perfbench passes it to build_gauge

    def __post_init__(self):
        self.chart_cfg()
        _check_settings(self.bracket_halfwidth, self.root_tol)
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

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
    at x (select_field's test: a candidate value alive), x off every line
    through 0 along which P is harmonic, and Levi determinant identically
    zero."""
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
        k, detail = _live_candidate(P, x, max((deg or 2) - 2, 0))
        checks.append(HypothesisCheck("hessian_nonzero_at_base", k is not None, detail))
        checks.append(HypothesisCheck("base_off_harmonic_lines",
                                      not is_on_harmonic_line(P, x), ""))
        checks.append(HypothesisCheck("levi_determinant_zero", levi_determinant(P).is_zero, ""))
    else:
        checks += [HypothesisCheck(name, False, "P not real") for name in
                   ("hessian_nonzero_at_base", "base_off_harmonic_lines", "levi_determinant_zero")]

    return HypothesisChecklist(tuple(checks))


def _build_and_verify(V: VectorFieldC2, x: PointC2, degree: int,
                      cfg: PipelineConfig) -> tuple[GaugeFunction, VerificationReport]:
    # decide the facts at x first: a dead field or a tangent ray is refused
    # before involutivity samples the ball around x
    point = base_point(V, x)
    samples = sample_ball(x.to_real4(), cfg.chart_radius * x.norm(), N_INVOLUTIVITY,
                          check_rng(cfg.seed, "involutivity"))
    inv = involutivity_check(V, samples, INVOLUTIVITY_TOL)
    if not inv.passed:
        raise AssumptionError(
            f"involutivity failed: worst relative singular value {inv.residual:.3e}")
    G = build_gauge(_chart_at(V, point, cfg.chart_cfg()), degree,
                    bracket_halfwidth=cfg.bracket_halfwidth, root_tol=cfg.root_tol)
    entries = [check_entry("field_involutivity", inv.residual, INVOLUTIVITY_TOL,
                           samples=len(samples))]
    return G, assemble_report(entries + run_standard_suite(G, cfg.n_samples, cfg.seed))


def run_pipeline(P: WirtingerPoly, x: PointC2, degree: int | None = None,
                 cfg: PipelineConfig | None = None):
    """Polynomial path: hypotheses, field selection, chart, gauge, full
    verification.  Returns (gauge, report); raises AssumptionError naming
    the first failing hypothesis."""
    cfg = cfg or PipelineConfig()
    checklist = validate_hypotheses(P, x)
    if not checklist.all_passed:
        raise AssumptionError("hypothesis failed: " + ", ".join(checklist.failures))
    # H.V1 = (0, det H) and H.V2 = (-det H, 0) term by term, so the
    # levi_determinant_zero verdict is also the annihilation verdict
    V = select_field(P, x)
    if degree is None:
        degree = homogeneity_degree(P)
    return _build_and_verify(V, x, degree, cfg)


def run_field_pipeline(V: VectorFieldC2, x: PointC2, degree: int,
                       cfg: PipelineConfig | None = None):
    """Explicit-field path: check the field assumptions directly, then
    chart, gauge, and the standard verification suite."""
    cfg = cfg or PipelineConfig()
    if not homogeneity_check_field(V):
        raise AssumptionError("field components are not homogeneous of the declared degree")
    if V.degree < 1:
        raise AssumptionError("field homogeneity degree must be a positive integer")
    return _build_and_verify(V, x, degree, cfg)
