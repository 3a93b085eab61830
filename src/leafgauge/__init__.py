"""leafgauge: positive homogeneous functions constant along the leaves of a
foliation of C^2 by complex curves, built numerically from a compatible
vector field or derived symbolically from a Levi-degenerate polynomial."""

from .charts import ChartConfig, LeafChart, build_chart, in_chart_ball, leaf_coords
from .errors import (
    AssumptionError,
    DegenerateRootError,
    FixtureError,
    LeafgaugeError,
    NumericError,
    ProjectionError,
    RankDropError,
    RootSearchError,
    StepBudgetError,
)
from .fields import (
    CheckResult,
    PointC2,
    VectorFieldC2,
    annihilation_check,
    bracket_span_residual,
    derive_candidate_fields,
    field_eval,
    homogeneity_check_field,
    involutivity_check,
    lie_bracket_real,
    select_field,
    transversality_check,
)
from .fixtures import Fixture, load_fixture, parse_fixture, resolve_config
from .flows import FlowConfig, integrate_flow, leaf_flow_map, trace_leaf
from .gauge import (
    GaugeFunction,
    build_gauge,
    gauge_eval,
    radial_mismatch,
    scaling_velocity,
    solve_scale,
)
from .pipeline import (
    HypothesisChecklist,
    PipelineConfig,
    run_field_pipeline,
    run_pipeline,
    validate_hypotheses,
)
from .verify import (
    DEFAULT_SEED,
    CheckEntry,
    VerificationReport,
    assemble_report,
    check_chart,
    check_homogeneity,
    check_leaf_constancy,
    check_ray_consistency,
    check_scaling_laws,
    report_to_json,
    report_to_text,
    run_standard_suite,
)
from .wirtinger import (
    PolyMatrix2,
    WirtingerPoly,
    complex_hessian,
    hessian_eval,
    homogeneity_degree,
    is_on_harmonic_line,
    levi_determinant,
    poly_diff,
    poly_eval,
    poly_from_records,
    poly_is_real,
    poly_to_records,
)

__version__ = "0.1.0"
