"""Exception hierarchy.

Validation problems (bad files, bad config, inconsistent rows) and numeric
problems (failed solves) are kept on separate branches so callers, in
particular the command line interface, can map them to distinct exit codes.
"""

import numbers


class IrrvisError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(IrrvisError):
    """Invalid input: file structure, schema, configuration or data rows."""


class NumericError(IrrvisError):
    """A numeric routine failed in a way that is not a usage error."""


class ConvergenceError(NumericError):
    """An iterative solver exhausted its iteration budget."""


class SeparationError(NumericError):
    """Monotone partial likelihood: a coefficient diverges without bound."""


class RankDeficiencyError(NumericError):
    """Design matrix (or a derived system) is numerically rank deficient."""


class BalanceInfeasibleError(NumericError):
    """The balance conditions have no solution: the dual solve diverges."""


class PipelineError(NumericError):
    """Failure inside a multi-stage analysis, tagged with stage and phi.

    The original exception is kept as ``__cause__``.
    """

    def __init__(self, stage, phi, cause):
        self.stage = stage
        self.phi = phi
        super().__init__(f"stage {stage!r} failed at phi={phi:g}: {cause}")


def _stage(name, phi, fn):
    """``fn()``; numeric failures become a PipelineError, usage errors pass."""
    try:
        return fn()
    except ValidationError:
        raise
    except IrrvisError as exc:
        raise PipelineError(name, phi, exc) from exc


def _require_integers(owner, **values):
    """Raise ValidationError unless every value is an integer; a bool, a
    float of integral value and a str are not, a numpy integer is."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{owner} {name} must be an integer, got {value!r}")
