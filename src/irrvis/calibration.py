"""Calibration of the sensitivity parameter magnitude.

The selection parameter phi cannot be estimated from observed data, so its
plausible magnitude is calibrated against how much visiting variation the
*observed* history explains.  On the log intensity scale, the share of
variance explained has an implicit-R-squared form against the standard
logistic variance pi^2/3.  The procedure:

* partition follow-up at the distinct visit times and estimate each
  patient's log visit probability per interval from a proportional
  intensity fit (full model) and from a covariate-free baseline (null);
* convert the two variances to implicit R-squared values and take the
  partial R-squared of the history given time alone;
* set the target share for the unobserved concurrent-outcome term equal to
  that value (a deliberately conservative choice), and invert

      |phi| = (1/sigma_r) * sqrt( rho2/(1-rho2) * (var_m + pi^2/3) ),

  where sigma_r is the residual spread of S(Y) at visit rows after
  regressing on history and a smooth function of time.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .cox import fit_cox
from .data import Dataset, _format_float, _write_csv
from .design import BoundDesign, ModelMatrixSpec
from .errors import NumericError, ValidationError, _require_integers, _stage
from .riskset import RiskStructure
from .weights import SelectionSpec

__all__ = ["CalibrationResult", "implicit_r2", "partial_r2", "phi_from_target",
           "calibrate", "natural_spline_basis"]

_LOGISTIC_VAR = math.pi ** 2 / 3.0


def implicit_r2(var_m: float) -> float:
    """Variance explained on the latent logistic scale: v / (v + pi^2/3)."""
    if var_m < 0.0:
        raise ValidationError("variance must be non-negative")
    return var_m / (var_m + _LOGISTIC_VAR)


def partial_r2(rho2_full: float, rho2_reduced: float) -> float:
    """Fraction of previously unexplained variance: (full - reduced)/(1 - reduced)."""
    if not 0.0 <= rho2_reduced <= 1.0 or not 0.0 <= rho2_full < 1.0:
        raise ValidationError("r-squared inputs out of range")
    if rho2_reduced == 1.0:
        raise ValidationError("reduced model already explains everything")
    return (rho2_full - rho2_reduced) / (1.0 - rho2_reduced)


def phi_from_target(rho2_target: float, var_m: float, sigma_r: float) -> float:
    """Magnitude of phi at which S(Y) would explain ``rho2_target``."""
    if not 0.0 <= rho2_target < 1.0:
        raise ValidationError("target r-squared must lie in [0, 1)")
    if sigma_r <= 0.0:
        raise ValidationError("residual standard deviation must be positive")
    if var_m < 0.0:
        raise ValidationError("variance must be non-negative")
    ratio = rho2_target / (1.0 - rho2_target)
    return math.sqrt(ratio * (var_m + _LOGISTIC_VAR)) / sigma_r


def natural_spline_basis(x: np.ndarray, df: int) -> np.ndarray:
    """Natural cubic spline basis with ``df`` columns (no constant column).

    Knots sit at the ``df + 1`` evenly spaced quantiles of ``x`` including
    both extremes; the basis is the truncated-power construction that is
    linear beyond the boundary knots.  Any basis spanning the same space
    gives the same regression residuals, which is all calibration uses.
    """
    _require_integers("spline", df=df)
    if df < 1:
        raise ValidationError("spline degrees of freedom must be at least 1")
    x = np.asarray(x, dtype=np.float64)
    knots = np.unique(np.quantile(x, np.linspace(0.0, 1.0, df + 1)))
    k = knots.size
    if k < 2:
        raise ValidationError("not enough distinct values for a spline basis")
    out = np.empty((x.size, k - 1))
    out[:, 0] = x

    def d(j):
        num = np.clip(x - knots[j], 0.0, None) ** 3 \
            - np.clip(x - knots[-1], 0.0, None) ** 3
        return num / (knots[-1] - knots[j])

    d_last = d(k - 2)
    for j in range(k - 2):
        out[:, j + 1] = d(j) - d_last
    return out


@dataclass(frozen=True)
class CalibrationResult:
    """Inputs and output of the calibration chain, kept for audit."""

    var_log_lambda_dt_full: float
    var_log_lambda_dt_null: float
    rho2_full: float
    rho2_null: float
    rho2_Z_given_t: float
    sigma_r: float
    phi_abs: float
    premise_violated: bool    # some interval visit probability exceeded 0.2
    clamped: bool             # negative partial r-squared clamped to zero

    def as_items(self) -> list:
        return [
            ("var_log_lambda_dt_full", self.var_log_lambda_dt_full),
            ("var_log_lambda_dt_null", self.var_log_lambda_dt_null),
            ("rho2_full", self.rho2_full),
            ("rho2_null", self.rho2_null),
            ("rho2_Z_given_t", self.rho2_Z_given_t),
            ("sigma_r", self.sigma_r),
            ("phi_abs", self.phi_abs),
            ("premise_violated", int(self.premise_violated)),
            ("clamped", int(self.clamped)),
        ]

    def to_csv(self, path) -> None:
        _write_csv(path, ["quantity", "value"],
                   ([key, _format_float(value)] for key, value in self.as_items()))

    def report(self) -> str:
        lines = [f"{key}={value!r}" for key, value in self.as_items()]
        grid = suggested_grid(self.phi_abs)
        lines.append("suggested_phi_grid=" + ",".join(map(_format_float, grid)))
        return "\n".join(lines) + "\n"


def suggested_grid(phi_abs: float, points: int = 7) -> list:
    """Equally spaced grid from 0 to ``phi_abs`` inclusive."""
    return [phi_abs * k / (points - 1) for k in range(points)]


def calibrate(dataset: Dataset, zspec: ModelMatrixSpec, sel_transform: str,
              time_spline_df: int = 5, target_rho2=None) -> CalibrationResult:
    """Run the calibration chain on a dataset.

    Parameters
    ----------
    dataset : Dataset
    zspec : ModelMatrixSpec
        Observed-history terms of the visit-intensity model.
    sel_transform : str
        ``identity`` or ``log1p``; the S(.) applied to the outcome.
    time_spline_df : int
        Degrees of freedom of the natural spline of time in the residual
        regression.
    target_rho2 : float, optional
        Override for the target share; defaults to the partial r-squared
        of the history given time (the conservative equality choice).
    """
    if isinstance(target_rho2, bool) or not isinstance(target_rho2, (numbers.Real, type(None))):
        raise ValidationError(f"target_rho2 must be a real number, got {target_rho2!r}")
    if int(dataset.visit.sum()) < 2:
        raise ValidationError("calibration needs at least two visits")
    selection = SelectionSpec(transform=sel_transform)

    # (a, b) per-interval probabilities from the full fit; the partition at
    # distinct visit times is exactly the risk structure's event axis, and
    # each (at-risk row, event) pair is one patient-interval
    cox = _stage("calibration full fit", 0.0, lambda: fit_cox(dataset, zspec))
    rs = RiskStructure(dataset)
    bound = BoundDesign(dataset, zspec)
    eta = bound.evaluate(dataset, rs.cover_row, rs.cover_times()) @ cox.gamma
    log_p_full = eta + np.repeat(np.log(cox.increments), rs.event_counts)
    if np.any(np.exp(log_p_full) > 0.2):
        warnings.warn("calibration premise strained: an interval visit "
                      "probability exceeds 0.2; the logistic-scale "
                      "approximation may be inaccurate")
        premise_violated = True
    else:
        premise_violated = False

    # (c) variance over patient-intervals, unbiased
    var_full = float(log_p_full.var(ddof=1)) if log_p_full.size > 1 else 0.0
    if var_full == 0.0:
        raise NumericError("calibration: log-intensity variance is zero")
    rho2_full = implicit_r2(var_full)

    # (d, e) covariate-free baseline: events over risk-set size
    d_k = rs.pooled_visit_sum(np.ones(rs.visit_rows.size))
    r_k = rs.event_counts
    log_p_null = np.repeat(np.log(d_k / r_k), r_k)
    var_null = float(log_p_null.var(ddof=1)) if log_p_null.size > 1 else 0.0
    rho2_null = implicit_r2(var_null)

    # (f, g)
    rho2_zt = partial_r2(rho2_full, rho2_null)
    clamped = False
    if rho2_zt < 0.0:
        warnings.warn("calibration: partial r-squared is negative; clamped to 0")
        rho2_zt = 0.0
        clamped = True
    target = rho2_zt if target_rho2 is None else float(target_rho2)

    # (h) spread of S(Y) unexplained by history and a smooth time trend
    visit_rows = dataset.visit_row_indices()
    s_y = selection.apply(dataset.outcome[visit_rows])
    z_visit = bound.evaluate(dataset, visit_rows)
    t_visit = dataset.end[visit_rows]
    basis = natural_spline_basis(t_visit, time_spline_df)
    x = np.column_stack([np.ones(visit_rows.size), z_visit, basis])
    coef, _, rank, _ = np.linalg.lstsq(x, s_y, rcond=None)
    dof = visit_rows.size - int(rank)
    if dof < 1:
        raise NumericError("calibration: no residual degrees of freedom")
    resid = s_y - x @ coef
    sigma_r = float(np.sqrt(resid @ resid / dof))
    if sigma_r <= 0.0:
        raise NumericError("calibration: residual standard deviation is zero")

    # (i)
    phi_abs = phi_from_target(target, var_full, sigma_r)
    return CalibrationResult(var_full, var_null, rho2_full, rho2_null,
                             rho2_zt, sigma_r, phi_abs, premise_violated,
                             clamped)
