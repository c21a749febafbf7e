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

# incidence pairs per step of the likelihood.  The float64 workspace and
# the block of the design it reads take (2p + 1) * 8 bytes a pair: 2.4 MB
# at p = 4 and 2.9 MB at p = 5, more than a 2 MB L2 cache holds
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
                f"QValues has shape {v.shape}, not one entry for each of "
                f"{n_visits} visit rows")
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

    ``z_cover`` holds the design on the structure's incidence pairs and
    ``z_visit`` (float64) on its visit rows.  ``z_cover`` is a dense float64
    array, one row per pair, whose blocks are read as views of
    ``z_cover.T``, C-contiguous when ``z_cover`` comes from
    :meth:`BoundDesign.evaluate`; or an object whose ``fill(out, lo, hi)``
    writes the float64 design of pairs ``lo:hi`` into the C-contiguous
    ``(p, hi - lo)`` buffer ``out`` and returns it, as the limiting fit's
    grid design does.  Evaluation sums in float64 in the
    :meth:`RiskStructure.blocks` of :data:`_BLOCK_PAIRS` and one
    ``(p + 1, block)`` workspace, each range shifted by its largest linear
    predictor and weighted by the structure's pair weights, if any.  The
    pieces of a larger event merge S0, S1 and the second moment under the
    larger shift, weighting the moment by ``A_k / S0_k`` after the last
    piece.
    """

    def __init__(self, rs: RiskStructure, z_cover, z_visit: np.ndarray,
                 q: np.ndarray):
        self.rs = rs
        self.z_visit = z_visit
        self.q = q
        self.a = rs.pooled_visit_sum(q)                          # A_k
        self.visit_score = q @ z_visit                           # sum_v Q z
        self.ranges = rs.blocks(_BLOCK_PAIRS)
        p, width = z_visit.shape[1], min(int(rs.event_counts.sum()), _BLOCK_PAIRS)
        # row 0: exp(eta - shift) per pair; rows 1..p: z times that
        self.work = np.empty((p + 1, width))
        if isinstance(z_cover, np.ndarray):
            self.zt, self.fill = z_cover.T, None
        else:
            # flat, so that every block's buffer is C-contiguous
            self.zt, self.fill, self.buffer = None, z_cover.fill, np.empty(p * width)
        # (gamma, S0, shifts, S1 / S0) of the latest evaluation, for
        # breslow() and _ScoreTerms
        self.last = None

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """The design on pairs ``lo:hi``, shape ``(p, hi - lo)``: a view of a
        dense design, or a filled design's block in the buffer."""
        if self.fill is None:
            return self.zt[:, lo:hi]
        out = self.buffer[:self.z_visit.shape[1] * (hi - lo)]
        return self.fill(out.reshape(-1, hi - lo), lo, hi)

    def at(self, gamma: np.ndarray):
        rs, p, weight = self.rs, self.z_visit.shape[1], self.rs.pair_weight
        s0, s1, shift = np.empty(rs.K), np.empty((p, rs.K)), np.empty(rs.K)
        second = np.zeros((p, p))
        split = None      # (shift, S0, S1, second moment) so far of a split event
        for lo, hi, k0, k1, offsets in self.ranges:
            z = self.columns(lo, hi)
            work = self.work[:, :hi - lo]
            e, ze = work[0], work[1:]
            np.matmul(gamma, z, out=e)
            c = e.max()
            e -= c
            np.exp(e, out=e)
            if weight is not None:
                e *= weight[lo:hi]
            np.multiply(z, e, out=ze)
            sums = np.add.reduceat(work, offsets, axis=-1)
            start, end = rs.event_starts[k0], rs.event_starts[k0] + rs.event_counts[k0]
            if lo == start and hi >= end:                        # whole events
                self._check(sums[0], k0)
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
                self._check(s0[k0:k0 + 1], k0)
                second += self.a[k0] / s0[k0] * split[3]
        mean = s1 / s0
        self.last = (gamma.copy(), s0, shift, mean)
        # each shift cancels: A_k log(S0_k e^shift_k) contributes A_k shift_k,
        # matched by the event's share of sum_v Q eta_v
        loglik = (self.q @ (self.z_visit @ gamma)
                  - self.a @ (np.log(s0) + shift)) / rs.n
        score = (self.visit_score - mean @ self.a) / rs.n
        return loglik, score, (second - (mean * self.a) @ mean.T) / rs.n

    def _check(self, s0: np.ndarray, k0: int) -> None:
        """:meth:`RiskStructure.check_positive` on the S0 of events ``k0, ...``
        set to 1 where ``A_k`` is 0, so that their terms are exact zeros."""
        s0[self.a[k0:k0 + s0.size] == 0.0] = 1.0
        RiskStructure.check_positive(s0)

    def breslow(self, gamma: np.ndarray) -> np.ndarray:
        """Increments ``A_k / S0_k`` at ``gamma``, reusing the latest
        evaluation when it was at ``gamma`` (a Newton solve's last one)."""
        if self.last is None or not np.array_equal(self.last[0], gamma):
            self.at(gamma)
        _, s0, shift, _ = self.last
        return self.a / (s0 * np.exp(shift))


class _ScoreTerms:
    """The score of ``pl``, a likelihood on an unweighted structure and a
    dense design, at its root ``gamma``, split into the terms of each visit
    row and each pair.

    With each patient's pairs and visit rows weighted by a weight ``c_i``,
    the score is homogeneous in the weights, and its derivative in ``c_i``
    at all weights 1 sums the ``visit`` rows of patient ``i``'s visits,
    ``Q_v (z_v - zbar_k)``, and the :meth:`pairs` rows of its pairs,
    ``-A_k share_j (z_j - zbar_k)``.  Its derivative in ``gamma`` is minus
    ``info``, the information (not divided by ``n``), so the root moves by
    ``info^-1`` times that sum.  ``zbar`` holds the risk-set means of ``z``,
    shape ``(p, K)``.
    """

    def __init__(self, pl: _PartialLikelihood, gamma: np.ndarray):
        # keeps what the terms read, not pl and its workspace
        self.rs, self.zt, self.a, self.gamma = pl.rs, pl.zt, pl.a, gamma
        self.info = pl.at(gamma)[2] * pl.rs.n
        _, self.s0, self.shift, self.zbar = pl.last
        self.visit = pl.q[:, None] * (pl.z_visit - self.zbar[:, pl.rs.visit_event].T)

    def shares(self, lo: int, hi: int, events: np.ndarray) -> np.ndarray:
        """``exp(eta_j) / S0_k`` of pairs ``lo:hi``, of events ``events``."""
        eta = self.gamma @ self.zt[:, lo:hi]
        return np.exp(eta - self.shift[events]) / self.s0[events]

    def pairs(self, lo: int, hi: int, events: np.ndarray) -> np.ndarray:
        """The terms of pairs ``lo:hi`` transposed, shape ``(p, hi - lo)``."""
        return (self.zt[:, lo:hi] - self.zbar[:, events]) * -(
            self.a[events] * self.shares(lo, hi, events))


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
         zspec: ModelMatrixSpec, q: np.ndarray,
         start: Optional[np.ndarray] = None) -> CoxFit:
    """:func:`fit_cox` on a risk structure and the design on its pairs and
    visit rows, with the Newton search started at ``start`` (zero if
    None).  The information check runs at the start either way."""
    if zspec.has_const():
        raise ValidationError("intensity model must not contain a constant term")
    pl = _PartialLikelihood(rs, z_cover, z_visit, q)
    gamma = np.zeros(len(zspec)) if start is None else np.array(start, dtype=np.float64)

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
