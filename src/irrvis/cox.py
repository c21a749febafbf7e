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
from .design import BoundDesign, ModelMatrixSpec
from .errors import RankDeficiencyError, SeparationError, ValidationError
from .riskset import RiskStructure

__all__ = ["QValues", "CoxFit", "fit_cox", "breslow_increments"]

# iterates beyond this max-norm with a non-small score indicate monotone
# likelihood rather than a usable optimum
DIVERGENCE_BOUND = 30.0

# incidence pairs per step of the likelihood: its workspace stays in L2 cache
_BLOCK_PAIRS = 1 << 15


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
        bound = BoundDesign(dataset, self.spec)
        if len(self.spec) == 0:
            return np.zeros(np.asarray(rows).shape[0])
        return bound.evaluate(dataset, rows, times) @ self.gamma


class _PartialLikelihood:
    """Objective, score and information for one risk structure, design and Q.

    ``z_cover`` (float64 or float32) holds the design on the structure's
    incidence pairs and ``z_visit`` on its visit rows.  Evaluation sums in
    float64 over ``z_cover.T``, C-contiguous when ``z_cover`` comes from
    :meth:`BoundDesign.evaluate`, in the :meth:`RiskStructure.blocks` of
    :data:`_BLOCK_PAIRS` and one ``(p + 1, block)`` workspace, each range
    shifted by its largest linear predictor.  The pieces of a larger event
    merge S0, S1 and the unweighted second moment under the larger shift,
    weighting the moment by ``A_k / S0_k`` after the last piece.
    """

    def __init__(self, rs: RiskStructure, z_cover: np.ndarray, z_visit: np.ndarray,
                 q: np.ndarray):
        self.rs = rs
        self.zt = z_cover.T
        self.z_visit = z_visit
        self.q = q
        self.a = rs.pooled_visit_sum(q)                          # A_k
        self.visit_score = q @ z_visit                           # sum_v Q z
        self.ranges = rs.blocks(_BLOCK_PAIRS)
        # row 0: exp(eta - shift) per pair; rows 1..p: z times that
        self.work = np.empty((len(self.zt) + 1, min(self.zt.shape[1], _BLOCK_PAIRS)))
        # (gamma, S0, shifts) of the latest evaluation, for breslow()
        self.last = None

    def at(self, gamma: np.ndarray):
        rs, p = self.rs, self.zt.shape[0]
        s0, s1, shift = np.empty(rs.K), np.empty((p, rs.K)), np.empty(rs.K)
        second = np.zeros((p, p))
        split = None      # (shift, S0, S1, second moment) so far of a split event
        for lo, hi, k0, k1, offsets in self.ranges:
            z = self.zt[:, lo:hi].astype(np.float64, copy=False)  # cast if float32
            work = self.work[:, :hi - lo]
            e, ze = work[0], work[1:]
            np.matmul(gamma, z, out=e)
            c = e.max()
            e -= c
            np.exp(e, out=e)
            np.multiply(z, e, out=ze)
            sums = np.add.reduceat(work, offsets, axis=-1)
            RiskStructure.check_positive(sums[0])
            start, end = rs.event_starts[k0], rs.event_starts[k0] + rs.event_counts[k0]
            if lo == start and hi >= end:                        # whole events
                s0[k0:k1], s1[:, k0:k1], shift[k0:k1] = sums[0], sums[1:], c
                ze *= np.repeat(self.a[k0:k1] / sums[0], rs.event_counts[k0:k1])
                second += ze @ z.T
                continue
            piece = (c, sums[0, 0], sums[1:, 0], ze @ z.T)
            if lo > start:
                top = max(c, split[0])
                piece = (top, *(x * np.exp(split[0] - top) + y * np.exp(c - top)
                                for x, y in zip(split[1:], piece[1:])))
            split = piece
            if hi == end:
                shift[k0], s0[k0], s1[:, k0] = split[:3]
                second += self.a[k0] / s0[k0] * split[3]
        self.last = (gamma.copy(), s0, shift)
        # each shift cancels: A_k log(S0_k e^shift_k) contributes A_k shift_k,
        # matched by the event's share of sum_v Q eta_v
        loglik = (self.q @ (self.z_visit @ gamma)
                  - self.a @ (np.log(s0) + shift)) / rs.n
        mean = s1 / s0
        score = (self.visit_score - mean @ self.a) / rs.n
        return loglik, score, (second - (mean * self.a) @ mean.T) / rs.n

    def breslow(self, gamma: np.ndarray) -> np.ndarray:
        """Increments ``A_k / S0_k`` at ``gamma``, reusing the latest
        evaluation when it was at ``gamma`` (a Newton solve's last one)."""
        if self.last is None or not np.array_equal(self.last[0], gamma):
            self.at(gamma)
        _, s0, shift = self.last
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
    q_arr = (q if q is not None else _unit_q(dataset)).check(int(dataset.visit.sum()))
    bound = BoundDesign(dataset, zspec)
    rs = RiskStructure(dataset)
    return _fit(rs, *rs.design(bound, dataset), zspec, q_arr)


def _fit(rs: RiskStructure, z_cover: np.ndarray, z_visit: np.ndarray,
         zspec: ModelMatrixSpec, q: np.ndarray) -> CoxFit:
    """:func:`fit_cox` on a risk structure and the design on its pairs and
    visit rows."""
    if zspec.has_const():
        raise ValidationError("intensity model must not contain a constant term")
    pl = _PartialLikelihood(rs, z_cover, z_visit, q)
    gamma = np.zeros(len(zspec))

    if len(zspec) == 0:
        return CoxFit(gamma, zspec.names, zspec, float(pl.at(gamma)[0]), 0.0, 0,
                      rs.event_times.copy(), pl.breslow(gamma))

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
                  rs.event_times.copy(), inc)


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
    bound = BoundDesign(dataset, cox.spec)
    rs = RiskStructure(dataset)
    pl = _PartialLikelihood(rs, *rs.design(bound, dataset), q_arr)
    return rs.event_times.copy(), pl.breslow(cox.gamma)
