"""Weighted estimating equations for the marginal outcome model.

Visits are the analysis rows: the marginal mean ``g(mu) = x' beta`` is fit
by solving

    sum_visits w * (d mu / d eta) * x * (y - mu) / v(mu) = 0

with an independence working correlation, one term per visit row.  The
weights carry the visit-process correction; the equations are homogeneous
in them, so their scale does not move the root.  It does move Fisher
scoring's stopping point, since the tolerance applies to the equations as
weighted: scaling the weights by c may change a log-link estimate by
about ``|H^-1| * TOL * (1 + 1/c)``, ``H`` the information per patient.

Identity link with constant variance reduces to weighted least squares and
is solved in closed form.  Other combinations use Fisher scoring, damped
so that no step raises the max-norm of the equations.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._newton import maximize, solve_psd
from .data import Dataset
from .design import BoundDesign, ModelMatrixSpec
from .errors import NumericError, ValidationError

__all__ = ["MarginalModelSpec", "GeeFit", "fit_weighted_gee", "estimate_dispersion"]

_LINKS = ("identity", "log")
_VARIANCES = ("constant", "poisson", "negative_binomial")


@dataclass(frozen=True)
class MarginalModelSpec:
    """Marginal mean model: design terms, link and working variance."""

    xspec: ModelMatrixSpec
    link: str = "identity"
    variance: str = "constant"
    theta: Optional[float] = None

    def __post_init__(self):
        if self.link not in _LINKS:
            raise ValidationError(f"link must be one of {_LINKS}")
        if self.variance not in _VARIANCES:
            raise ValidationError(f"variance must be one of {_VARIANCES}")
        if self.variance == "negative_binomial":
            theta = self.theta
            if (isinstance(theta, bool) or not isinstance(theta, numbers.Real)
                    or not 0.0 <= theta < math.inf):
                raise ValidationError(
                    "negative_binomial variance needs a finite dispersion "
                    f"theta >= 0, got {theta!r}")
        elif self.theta is not None:
            raise ValidationError("theta only applies to negative_binomial variance")


@dataclass(frozen=True)
class GeeFit:
    """Result of :func:`fit_weighted_gee`."""

    beta: np.ndarray
    names: tuple
    link: str
    variance: str
    n_iter: int
    max_eq_norm: float
    fitted_means: np.ndarray


def _bind(dataset: Dataset, model: MarginalModelSpec, rows: np.ndarray) -> BoundDesign:
    """The marginal design bound on visit ``rows`` of ``dataset``."""
    if rows.size == 0:
        raise ValidationError("dataset has no visit rows to fit on")
    return BoundDesign(dataset, model.xspec, "visits", rows)


def _variance_fn(model: MarginalModelSpec, mu: np.ndarray) -> np.ndarray:
    if model.variance == "constant":
        return np.ones_like(mu)
    if model.variance == "poisson":
        return mu
    return mu + model.theta * mu * mu


def _equation_terms(y: np.ndarray, mu: np.ndarray, model: MarginalModelSpec):
    """``(r, d)``: each visit row's factor ``r = (d mu / d eta) (y - mu) / v``
    of the estimating equations ``u = sum_v w_v r_v x_v`` at the means
    ``mu``, and ``d = -dr/d eta``, so that ``-du/dbeta = sum_v w_v d_v x_v
    x_v'`` exactly, for every link and working variance."""
    v = _variance_fn(model, mu)
    if model.variance == "negative_binomial":
        dv = 1.0 + 2.0 * model.theta * mu
    else:
        dv = 1.0 if model.variance == "poisson" else 0.0
    # the log link's slope mu is its own derivative in eta
    slope, bend = (1.0, 0.0) if model.link == "identity" else (mu, mu)
    resid = y - mu
    r = slope * resid / v
    d = (slope * slope - bend * resid) / v + slope * slope * resid * dv / (v * v)
    return r, d


def fit_weighted_gee(dataset: Dataset, model: MarginalModelSpec,
                     weights=None) -> GeeFit:
    """Fit the marginal model on visit rows with the given visit weights.

    ``weights`` may be a :class:`~irrvis.weights.WeightSet` or a plain
    array, one entry per visit row; defaults to ones.  Convergence is
    declared when the patient-normalized estimating equation max-norm
    reaches ``1e-8``.
    """
    visit_rows = dataset.visit_row_indices()
    x = _bind(dataset, model, visit_rows).evaluate(dataset, visit_rows)
    return _fit(x, dataset.outcome[visit_rows], weights, model, dataset.n_patients)


def _visit_weights(weights, n_visits: int) -> np.ndarray:
    """``weights`` (a :class:`~irrvis.weights.WeightSet`, an array or None
    for ones) as one finite, non-negative weight per visit row, not all
    zero."""
    if weights is None:
        return np.ones(n_visits)
    w = np.asarray(getattr(weights, "weights", weights), dtype=np.float64)
    if w.shape != (n_visits,):
        raise ValidationError("weights must have one entry per visit row")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValidationError("weights must be non-negative and finite")
    if not np.any(w > 0.0):
        raise ValidationError("all weights are zero")
    return w


def _fit(x: np.ndarray, y: np.ndarray, weights, model: MarginalModelSpec,
         n: int) -> GeeFit:
    """:func:`fit_weighted_gee` on the design and outcomes of the visit rows
    of ``n`` patients."""
    w = _visit_weights(weights, y.size)
    names = tuple(model.xspec.names)

    if model.link == "identity" and model.variance == "constant":
        xtw = x.T * w
        beta = solve_psd(xtw @ x, xtw @ y, "least squares: design is rank deficient")
        mu = x @ beta
        norm = float(np.max(np.abs(x.T @ (w * (y - mu)) / n)))
        return GeeFit(beta, names, model.link, model.variance, 1, norm, mu)

    def mean_and_slope(eta):
        if model.link == "identity":
            return eta, np.ones_like(eta)
        with np.errstate(over="raise"):
            mu = np.exp(eta)
        return mu, mu

    def equation(beta):
        eta = x @ beta
        mu, slope = mean_and_slope(eta)
        v = _variance_fn(model, mu)
        if np.any(v <= 0.0):
            raise NumericError("working variance hit zero; outcome may be degenerate")
        r = w * slope * (y - mu) / v
        u = x.T @ r / n
        info = (x.T * (w * slope * slope / v)) @ x / n
        return -float(np.max(np.abs(u))), u, info

    beta = np.zeros(len(model.xspec))
    if model.link == "log":
        ybar = float(w @ y) / float(w.sum())
        if ybar <= 0.0:
            raise NumericError("log link needs a positive weighted outcome mean")
        if model.xspec.has_const():
            j = [t.kind for t in model.xspec.terms].index("const")
            beta[j] = np.log(ybar)

    beta, merit, _, n_iter = maximize(equation, beta, "marginal fit",
                                      "marginal fit: design is rank deficient")
    eta = x @ beta
    mu = np.exp(eta) if model.link == "log" else eta
    return GeeFit(beta, names, model.link, model.variance, max(n_iter, 1),
                  -merit, mu)


def estimate_dispersion(fit: GeeFit, dataset: Dataset, weights=None) -> float:
    """Moment estimate of the negative-binomial dispersion.

    Solves ``sum w [(y - mu)^2 - mu] = theta * sum w mu^2`` at the fitted
    means and floors the result at zero.  ``weights`` are checked as
    :func:`fit_weighted_gee` checks them.
    """
    visit_rows = dataset.visit_row_indices()
    y = dataset.outcome[visit_rows]
    mu = fit.fitted_means
    if mu.shape != y.shape:
        raise ValidationError("fit does not match the dataset's visit rows")
    w = _visit_weights(weights, y.size)
    num = float(w @ ((y - mu) ** 2 - mu))
    den = float(w @ (mu * mu))
    if den <= 0.0:
        raise NumericError("dispersion estimate undefined: zero fitted means")
    return max(0.0, num / den)
