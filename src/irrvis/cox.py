"""Proportional-intensity model for the visit process.

The visit intensity is modeled as ``lambda_0(t) * exp(gamma' z(t))`` given
the observed history.  When a selection function links visiting to the
concurrent outcome, each visit contributes with a multiplicative case
weight ``Q`` (see :mod:`irrvis.weights`); the estimating equation is then
the Q-weighted partial-likelihood score

    sum_visits Q [z - S1/S0] = 0,

with ``S0 = sum_{at risk} exp(gamma' z)`` and ``S1`` the matching sum of
``z exp(gamma' z)``, both evaluated at the pooled event time.  This score
is exactly the gradient of the concave objective

    l(gamma) = sum_visits Q (gamma' z) - sum_events A_k log S0_k,

where ``A_k`` pools the Q of tied visits, so the solve is a damped Newton
ascent on ``l``.  Baseline increments follow the Breslow form
``A_k / S0_k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _newton
from .data import Dataset
from .design import BoundDesign, ModelMatrixSpec, bind
from .errors import RankDeficiencyError, SeparationError, ValidationError
from .riskset import RiskStructure

__all__ = ["QValues", "CoxFit", "fit_cox", "breslow_increments"]

# iterates beyond this max-norm with a non-small score indicate monotone
# likelihood rather than a usable optimum
DIVERGENCE_BOUND = 30.0


@dataclass(frozen=True)
class QValues:
    """Selection-adjustment factors, one per visit row.

    ``values[i]`` belongs to the i-th visit row in dataset row order
    (ascending index), matching :attr:`RiskStructure.visit_rows`.
    """

    phi: float
    values: np.ndarray

    def check(self, n_visits: int) -> np.ndarray:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (n_visits,):
            raise ValidationError(
                f"QValues has {v.shape[0]} entries for {n_visits} visit rows")
        if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
            raise ValidationError("Q values must be positive and finite")
        return v


@dataclass(frozen=True)
class CoxFit:
    """Result of :func:`fit_cox`."""

    gamma: np.ndarray
    names: tuple
    spec: ModelMatrixSpec
    loglik: float
    max_score_norm: float
    n_iter: int
    event_times: np.ndarray
    increments: np.ndarray

    def linear_predictor(self, dataset: Dataset, rows: np.ndarray,
                         times: Optional[np.ndarray] = None) -> np.ndarray:
        bound = bind(dataset, self.spec, "at_risk")
        if len(self.spec) == 0:
            return np.zeros(np.asarray(rows).shape[0])
        return bound.evaluate(dataset, rows, times) @ self.gamma


class _PartialLikelihood:
    """Objective, score and information for one (dataset, design, Q)."""

    def __init__(self, dataset: Dataset, bound: BoundDesign, q: np.ndarray,
                 structure: Optional[RiskStructure] = None):
        self.rs = structure if structure is not None else RiskStructure(dataset)
        self.z_cover = bound.evaluate(dataset, self.rs.cover_row, self.rs.cover_times())
        self.z_visit = bound.evaluate(dataset, self.rs.visit_rows)
        self.q = q
        self.a = self.rs.pooled_visit_sum(q)                     # A_k
        self.visit_score = q @ self.z_visit                      # sum_v Q z
        self.n = self.rs.n

    def at(self, gamma: np.ndarray, need_hessian: bool = True):
        eta_c = self.z_cover @ gamma
        shift = eta_c.max() if eta_c.size else 0.0
        e = np.exp(eta_c - shift)
        s0 = self.rs.event_sum(e)
        RiskStructure.check_positive(s0)
        s1 = self.rs.event_sum_columns(e, self.z_cover)
        # the shift cancels: A_k log(S0 e^shift) contributes A_k shift,
        # matched by sum_v Q eta_v = sum over events of A_k * (mean eta)
        loglik = (self.q @ (self.z_visit @ gamma)
                  - self.a @ (np.log(s0) + shift)) / self.n
        mean = s1 / s0[:, None]
        score = (self.visit_score - self.a @ mean) / self.n
        if not need_hessian:
            return loglik, score, None
        u = e * (self.a / s0)[self.rs.cover_event]
        second = (self.z_cover * u[:, None]).T @ self.z_cover
        outer = (mean * self.a[:, None]).T @ mean
        hessian = (second - outer) / self.n
        return loglik, score, hessian

    def breslow(self, gamma: np.ndarray) -> np.ndarray:
        eta_c = self.z_cover @ gamma
        shift = eta_c.max() if eta_c.size else 0.0
        s0 = self.rs.event_sum(np.exp(eta_c - shift))
        RiskStructure.check_positive(s0)
        return self.a / (s0 * np.exp(shift))


def _unit_q(dataset: Dataset) -> QValues:
    return QValues(phi=0.0, values=np.ones(int(dataset.visit.sum())))


def fit_cox(dataset: Dataset, zspec: ModelMatrixSpec,
            q: Optional[QValues] = None) -> CoxFit:
    """Fit the visit-intensity model by damped Newton ascent.

    Parameters
    ----------
    dataset : Dataset
    zspec : ModelMatrixSpec
        Covariates of the intensity model.  An intercept is not allowed:
        it is absorbed by the baseline.
    q : QValues, optional
        Selection-adjustment factors per visit row; defaults to ones.

    Convergence requires the patient-normalized score max-norm to reach
    ``1e-8``.  Divergence of a coefficient and a rank-deficient
    information matrix raise distinct errors.
    """
    if zspec.has_const():
        raise ValidationError("intensity model must not contain a constant term")
    q_arr = (q if q is not None else _unit_q(dataset)).check(int(dataset.visit.sum()))
    bound = bind(dataset, zspec, "at_risk")
    pl = _PartialLikelihood(dataset, bound, q_arr)
    gamma = np.zeros(len(zspec))

    if len(zspec) == 0:
        inc = pl.breslow(gamma)
        return CoxFit(gamma, zspec.names, zspec, float(pl.at(gamma, False)[0]), 0.0,
                      0, pl.rs.event_times.copy(), inc)

    def check(gamma, score, hessian, k):
        if k == 0:
            _check_information(hessian)
        elif (float(np.max(np.abs(gamma))) > DIVERGENCE_BOUND
              and float(np.max(np.abs(score))) > _newton.TOL):
            raise SeparationError(
                "visit-intensity fit: a coefficient diverges; the partial "
                "likelihood appears monotone (perfect separation of visits)")

    gamma, loglik, score, n_iter = _newton.maximize(
        pl.at, gamma, "visit-intensity fit",
        "visit-intensity fit: information matrix is not positive definite", check)
    norm = float(np.max(np.abs(score)))
    inc = pl.breslow(gamma)
    return CoxFit(gamma, zspec.names, zspec, float(loglik), norm, n_iter,
                  pl.rs.event_times.copy(), inc)


def _check_information(hessian: np.ndarray) -> None:
    eigs = np.linalg.eigvalsh(hessian)
    if eigs[-1] <= 0.0 or eigs[0] <= 1e-12 * eigs[-1]:
        raise RankDeficiencyError(
            "visit-intensity fit: information matrix is rank deficient "
            "(collinear or degenerate covariates)")


def breslow_increments(cox: CoxFit, dataset: Dataset, q: Optional[QValues] = None):
    """Baseline increments ``A_k / S0_k`` at the fitted coefficients.

    Returns ``(event_times, increments)``, ties pooled, times ascending.
    """
    q_arr = (q if q is not None else _unit_q(dataset)).check(int(dataset.visit.sum()))
    bound = bind(dataset, cox.spec, "at_risk")
    pl = _PartialLikelihood(dataset, bound, q_arr)
    return pl.rs.event_times.copy(), pl.breslow(cox.gamma)
