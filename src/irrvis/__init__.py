"""Marginal regression for longitudinal data with irregular visit times.

Visit times that depend on a patient's history, or on the outcome about to
be measured, bias naive regression on the observed visits.  This package
estimates marginal regression coefficients under such visit processes by
inverse-intensity weighting, with two weight constructions (fitted
intensity weights and covariate-balancing weights), a selection-function
sensitivity analysis in a parameter phi for outcome-dependent visiting,
and a calibration procedure that suggests a plausible magnitude for phi.
A simulation laboratory reproduces the estimator comparisons at desk scale.
"""

from .calibration import (CalibrationResult, calibrate, implicit_r2,
                          partial_r2, phi_from_target)
from .cox import CoxFit, QValues, breslow_increments, fit_cox
from .data import CountingProcessRow, Dataset, export_csv, load_csv
from .design import ModelMatrixSpec, parse_term
from .errors import (BalanceInfeasibleError, ConvergenceError, IrrvisError,
                     NumericError, PipelineError, RankDeficiencyError,
                     SeparationError, ValidationError)
from .gee import GeeFit, MarginalModelSpec, estimate_dispersion, fit_weighted_gee
from .inference import (AnalysisConfig, Resampling, SweepResult, analyze_once,
                        bootstrap, jackknife, sweep)
from .rng import substream
from .simlab import (MetricsTable, ScenarioConfig, complete_data_fit, generate,
                     limiting_phi, run_study)
from .weights import (BalanceSpec, SelectionSpec, WeightSet, balance_report,
                      balancing_weights, mle_weights, q_values)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig", "BalanceInfeasibleError", "BalanceSpec",
    "CalibrationResult", "ConvergenceError",
    "CountingProcessRow", "CoxFit", "Dataset", "GeeFit", "IrrvisError",
    "MarginalModelSpec", "MetricsTable", "ModelMatrixSpec", "NumericError",
    "PipelineError", "QValues", "RankDeficiencyError", "ScenarioConfig",
    "SelectionSpec", "SeparationError", "SweepResult", "ValidationError",
    "WeightSet", "analyze_once", "balance_report", "balancing_weights",
    "bootstrap", "breslow_increments", "calibrate",
    "estimate_dispersion", "export_csv", "fit_cox", "fit_weighted_gee",
    "Resampling", "complete_data_fit", "generate", "implicit_r2", "jackknife",
    "limiting_phi", "load_csv", "mle_weights", "parse_term", "partial_r2",
    "phi_from_target", "q_values", "run_study", "substream", "sweep",
]
