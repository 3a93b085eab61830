"""Exception hierarchy shared by all leafgauge modules.

The split mirrors the CLI exit-code contract: assumption violations are
mathematical (the input data fails a hypothesis), numeric failures are
algorithmic (a solver ran out of road), and fixture errors are I/O.
Each class names its absorber; every other error ends the run with
exit 3 (numeric), 2 (assumption) or 4 (fixture) in cli.main.
"""


class LeafgaugeError(Exception):
    """Base class for all errors raised by this package."""


class AssumptionError(LeafgaugeError):
    """A hypothesis on the input data (field or polynomial) is violated."""


class NumericError(LeafgaugeError):
    """A numerical procedure failed to converge or left its valid region."""


class RankDropError(NumericError):
    """The vector field norm fell below the nonvanishing threshold.
    Absorbed by charts._chart_at, which shrinks the ball."""


class StepBudgetError(NumericError):
    """The ODE integrator exhausted its step budget."""


class ProjectionError(NumericError):
    """The leaf-solve Newton iteration failed: a singular system, no descent
    or an exhausted budget.  Absorbed by charts._chart_at, which shrinks the
    ball, and by gauge.solve_scale, which reports the point outside the
    gauge domain."""


class RootSearchError(NumericError):
    """No admissible root of the radial mismatch in the search bracket.
    Absorbed by check_homogeneity and check_scaling_laws, which skip the
    scaled point."""


class FixtureError(LeafgaugeError):
    """A fixture file is missing, unreadable, or malformed."""
