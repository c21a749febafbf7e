"""Visit weights: selection adjustment, inverse intensity, covariate balance.

Three ingredients:

* ``q_values`` turns a selection function ``phi * S(Y(t))`` into per-visit
  factors ``Q = exp(-phi * S(y))``.  ``phi`` is not estimable from the
  observed data; it is fixed by the caller and varied in sensitivity
  analyses.
* ``mle_weights`` inverts a fitted visit-intensity model:
  ``w = exp(-gamma' z) * Q``, stabilized by the baseline intensity (which
  cancels and never needs to be evaluated).
* ``balancing_weights`` instead solves the empirical balance conditions

      sum_i int h(t) [ W_i dN_i(t) - xi_i(t) dLambda(t) ] = 0

  for ``W = exp(gamma_b' h) Q``, one condition per balance term ``h``.
  The left side is the gradient of the strictly convex function
  ``c(gamma) = (1/n) sum_visits exp(gamma' h) Q - gamma' T / n`` with a
  constant target vector ``T``, so a damped Newton search converges
  globally when a root exists.

The target is ``T = sum_k dLambda_k H_k``, where ``H_k`` sums ``h`` over
the risk set of event ``k``; only these K per-event sums enter, so the
balance design is summed per event a block of pairs at a time
(:meth:`RiskStructure.design_sums`) and is never held on every pair.

``balance_report`` evaluates the balance conditions under given weights.
It is a one-shot use of ``_BalanceReport``, which holds what does not
change with phi (the risk structure, the per-event sums of the balance
design and the design on the visit rows, and each term's at-risk standard
deviation, merged over blocks of rows); the command line builds one and
reports every phi of a run from it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ._newton import is_positive_definite, maximize
from .cox import CoxFit, QValues
from .data import Dataset, _csv_cells, _reprs
from .design import BoundDesign, ModelMatrixSpec
from .errors import (BalanceInfeasibleError, NumericError, RankDeficiencyError,
                     ValidationError, _require_finite)
from .riskset import RiskStructure

__all__ = ["SelectionSpec", "BalanceSpec", "WeightSet", "q_values",
           "mle_weights", "balancing_weights", "balance_report",
           "export_weights"]

_SELECTION_TRANSFORMS = ("identity", "log1p")

# at-risk rows per block of the balance report's standard deviations: a
# block of ten terms stays under 100 KB, which the allocator reuses; blocks
# of 4 096 rows left the command line's peak resident memory 0.4 MB higher
_SD_ROWS = 1024


@dataclass(frozen=True)
class SelectionSpec:
    """Shape of the outcome term in the selection function.

    ``identity`` uses the outcome itself, suited to continuous responses;
    ``log1p`` uses ``log(1 + y)``, suited to counts.
    """

    transform: str = "identity"

    def __post_init__(self):
        if self.transform not in _SELECTION_TRANSFORMS:
            raise ValidationError(
                f"selection transform must be one of {_SELECTION_TRANSFORMS}, "
                f"got {self.transform!r}")

    def apply(self, y: np.ndarray) -> np.ndarray:
        if self.transform == "identity":
            return np.asarray(y, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if np.any(y <= -1.0):
            raise ValidationError("log1p selection transform needs outcomes > -1")
        return np.log1p(y)


@dataclass(frozen=True)
class BalanceSpec:
    """Balance terms for :func:`balancing_weights`."""

    hspec: ModelMatrixSpec

    def __post_init__(self):
        if not self.hspec.has_const():
            raise ValidationError("balance terms must include the constant term 1")


@dataclass(frozen=True)
class WeightSet:
    """Per-visit-row weights of one kind.

    ``weights[i]`` belongs to the i-th visit row in dataset row order and
    already includes the selection factor Q.  ``gamma`` holds the intensity
    coefficients (mle) or the balance coefficients (balancing).  For
    balancing weights the solved residuals and their max-norm are recorded;
    the max-norm is at or below the solver tolerance by construction.
    ``visit_model`` is the CoxFit the weights were built from (None for
    balancing weights given bare increments); ``==`` and repr ignore it.
    """

    kind: str
    weights: np.ndarray
    gamma: np.ndarray
    names: tuple
    phi: float
    balance_residuals: Optional[np.ndarray] = None
    max_abs_residual: Optional[float] = None
    visit_model: Optional[CoxFit] = field(default=None, repr=False, compare=False)


def q_values(dataset: Dataset, selection: SelectionSpec, phi: float) -> QValues:
    """Selection factors ``exp(-phi * S(y))`` for every visit row."""
    return _selection_factors(dataset.outcome[dataset.visit_row_indices()],
                              selection, phi)


def _selection_factors(y: np.ndarray, selection: SelectionSpec, phi: float) -> QValues:
    """:func:`q_values` on the outcomes of the visit rows."""
    _require_finite(phi=phi)
    with np.errstate(over="ignore"):
        values = np.exp(-float(phi) * selection.apply(y))
    # overflow (or underflow to 0) is a property of this phi, not bad usage
    if values.size and (not np.all(np.isfinite(values)) or np.any(values <= 0.0)):
        raise NumericError(f"selection factors overflow at phi={phi:g}")
    return QValues(phi=float(phi), values=values)


def mle_weights(cox: CoxFit, dataset: Dataset, q: QValues) -> WeightSet:
    """Baseline-stabilized inverse-intensity weights at the fitted model."""
    visit_rows = dataset.visit_row_indices()
    q_arr = q.check(visit_rows.size)
    return _inverse_intensity(cox, cox.linear_predictor(dataset, visit_rows),
                              q_arr, q.phi)


def _inverse_intensity(cox: CoxFit, eta: np.ndarray, q: np.ndarray,
                       phi: float) -> WeightSet:
    """:func:`mle_weights` from the linear predictor at the visit rows."""
    return WeightSet(kind="mle", weights=np.exp(-eta) * q,
                     gamma=np.asarray(cox.gamma, dtype=np.float64).copy(),
                     names=tuple(cox.names), phi=phi, visit_model=cox)


def _breslow_pair(breslow, structure: RiskStructure):
    """Accept a CoxFit or an (event_times, increments) pair."""
    if isinstance(breslow, CoxFit):
        times, inc = breslow.event_times, breslow.increments
    else:
        times, inc = breslow
    times = np.asarray(times, dtype=np.float64)
    inc = np.asarray(inc, dtype=np.float64)
    if times.shape != structure.event_times.shape or not np.array_equal(
            times, structure.event_times):
        raise ValidationError(
            "baseline increments do not align with the dataset's event times")
    if np.any(inc < 0.0) or not np.all(np.isfinite(inc)):
        raise ValidationError("baseline increments must be finite and non-negative")
    return inc


class _BalanceSystem:
    """Residual, objective and Jacobian of the balance conditions.

    ``h_sums`` holds the risk-set sums of the balance terms at each of the
    risk structure's events, shape ``(K, terms)`` (from
    :meth:`RiskStructure.event_sums`, pair-weighted where the structure
    has pair weights), and ``h_visit`` the terms on its visit rows;
    ``breslow`` is as in :func:`balancing_weights`, kept if a CoxFit.
    """

    def __init__(self, rs: RiskStructure, h_sums: np.ndarray, h_visit: np.ndarray,
                 q_arr: np.ndarray, breslow):
        self.h_visit = h_visit
        self.visit_model = breslow if isinstance(breslow, CoxFit) else None
        # target: sum_k dLambda_k * (risk-set sum of h at event k)
        self.target = _breslow_pair(breslow, rs) @ h_sums
        self.q = q_arr
        self.n = rs.n

    def weights_at(self, gamma: np.ndarray) -> np.ndarray:
        return np.exp(self.h_visit @ gamma) * self.q

    def residual(self, w: np.ndarray) -> np.ndarray:
        return (self.h_visit.T @ w - self.target) / self.n

    def evaluate(self, gamma: np.ndarray):
        """Merit ``-c(gamma)``, the negated residual and the Jacobian."""
        e = np.exp(self.h_visit @ gamma)
        w = e * self.q
        objective = float((e @ self.q - gamma @ self.target) / self.n)
        jacobian = (self.h_visit * w[:, None]).T @ self.h_visit / self.n
        return -objective, -self.residual(w), jacobian


def balancing_weights(dataset: Dataset, spec: Union[BalanceSpec, ModelMatrixSpec],
                      q: QValues, breslow) -> WeightSet:
    """Solve the balance conditions and return the implied visit weights.

    Parameters
    ----------
    dataset : Dataset
    spec : BalanceSpec or ModelMatrixSpec
        Balance terms; must include the constant term.
    q : QValues
    breslow : CoxFit or (event_times, increments)
        Baseline increments of the visit process, computed with the same q.

    Solved by damped Newton descent on the convex dual objective,
    starting from zero.  When the balance conditions have no solution the
    dual objective is unbounded below, and :class:`BalanceInfeasibleError`
    is raised.
    """
    if isinstance(spec, ModelMatrixSpec):
        spec = BalanceSpec(hspec=spec)
    q_arr = q.check(int(dataset.visit.sum()))
    rs = RiskStructure(dataset)
    system = _BalanceSystem(rs, *rs.design_sums(BoundDesign(dataset, spec.hspec),
                                                dataset), q_arr, breslow)
    return _balance(system, spec.hspec, q.phi)


def _balance(system: _BalanceSystem, hspec: ModelMatrixSpec, phi: float,
             start: Optional[np.ndarray] = None) -> WeightSet:
    """:func:`balancing_weights` on a built balance system, with the
    Newton search started at ``start`` if it has one entry per kept term
    and at zero otherwise."""
    # a non-constant term that never varies at the visit rows with q > 0
    # duplicates the intercept direction, making the Jacobian singular
    names = list(hspec.names)
    const_j = next(j for j, t in enumerate(hspec.terms) if t.kind == "const")
    keep = np.ptp(system.h_visit[system.q > 0.0], axis=0) > 0.0
    keep[const_j] = True
    if not keep.all():
        dropped = [n for n, k in zip(names, keep) if not k]
        warnings.warn("balance terms constant at every visit row dropped: "
                      + ", ".join(dropped))
        system.h_visit = system.h_visit[:, keep]
        system.target = system.target[keep]
        names = [n for n, k in zip(names, keep) if k]
    zero = np.zeros(len(names))
    start = zero if start is None or len(start) != len(names) else np.array(start)
    try:
        gamma, _, _, _ = maximize(
            system.evaluate, start, "balance solve",
            "balance solve: singular Jacobian (collinear balance terms)")
    except RankDeficiencyError:
        # a Jacobian that is positive definite at zero and singular later
        # means the iterates ran off: the dual is unbounded below
        if not is_positive_definite(system.evaluate(zero)[2]):
            raise
        raise BalanceInfeasibleError(
            "balance solve: the dual diverged; the balance conditions appear "
            f"infeasible at phi={phi:g}") from None
    w = system.weights_at(gamma)
    res = system.residual(w)
    return WeightSet(kind="balancing", weights=w, gamma=gamma, names=tuple(names),
                     phi=phi, balance_residuals=res,
                     max_abs_residual=float(np.max(np.abs(res))),
                     visit_model=system.visit_model)


class _BalanceTerms:
    """The balance residual at its root ``w = exp(h'b) Q``, split as
    :class:`cox._ScoreTerms` splits the visit model's score.

    ``h_pairs(lo, hi)`` gives the kept balance terms on pairs ``lo:hi``,
    ``h_sums`` their risk-set sums ``H_k`` and ``h_visit`` their rows on the
    visit rows; ``score`` holds the visit model's score terms at the root
    whose increments ``dLambda_k = A_k / S0_k`` are ``increments``.  With
    each patient's pairs and visit rows weighted by ``c_i``, the residual
    ``sum_v c_v w_v h_v - sum_k dLambda_k H_k`` has, at all weights 1:

    * in ``c_i``, the sum of the ``visit`` rows of patient ``i``'s visits,
      ``w_v h_v - Q_v dLambda_k H_k / A_k``, and of the :meth:`pairs` rows
      of its pairs, ``-dLambda_k (h_j - share_j H_k)``, since ``dLambda_k``
      moves with ``A_k`` and ``S0_k``;
    * in ``b``, ``jacobian = sum_v w_v h_v h_v'``;
    * in the visit model's ``gamma``, ``cross = sum_k dLambda_k H_k
      zbar_k'``, through ``dLambda_k``.
    """

    def __init__(self, h_pairs, h_sums: np.ndarray, h_visit: np.ndarray,
                 q: np.ndarray, w: np.ndarray, increments: np.ndarray, score):
        self.h_pairs, self.h_sums, self.increments = h_pairs, h_sums, increments
        self.score = score
        self.jacobian = (h_visit.T * w) @ h_visit
        self.cross = (h_sums.T * increments) @ score.zbar.T
        event = score.rs.visit_event
        share = q * increments[event] / score.a[event]
        self.visit = h_visit * w[:, None] - h_sums[event] * share[:, None]

    def pairs(self, lo: int, hi: int, events: np.ndarray) -> np.ndarray:
        """The terms of pairs ``lo:hi`` transposed, shape ``(terms, hi - lo)``."""
        held = self.h_sums[events].T * self.score.shares(lo, hi, events)
        return (held - self.h_pairs(lo, hi).T) * self.increments[events]


class _BalanceReport:
    """The parts of :func:`balance_report` that do not change with phi: the
    risk structure, the per-event sums of the balance design, shape
    ``(K, terms)``, the design on the visit rows and each term's at-risk
    standard deviation, from sums over blocks of at-risk rows."""

    def __init__(self, dataset: Dataset, hspec: ModelMatrixSpec):
        self.names = hspec.names
        self.rs = RiskStructure(dataset)
        bound = BoundDesign(dataset, hspec)
        self.h_sums, self.h_visit = self.rs.design_sums(bound, dataset)
        # the at-risk mean and sum of squared deviations, merged a block of
        # rows at a time (Chan, Golub and LeVeque): no design on every row
        rows = dataset.at_risk_row_indices()
        count, mean, squares = 0, 0.0, 0.0
        for lo in range(0, rows.size, _SD_ROWS):
            h = bound.evaluate(dataset, rows[lo:lo + _SD_ROWS])
            size, block_mean = h.shape[0], h.mean(axis=0)
            delta, total = block_mean - mean, count + size
            squares = (squares + ((h - block_mean) ** 2).sum(axis=0)
                       + delta * delta * (count * size / total))
            mean = mean + delta * (size / total)
            count = total
        self.sd = [float(np.sqrt(v / (count - 1))) if count > 1 else 0.0
                   for v in squares]

    def rows(self, w: np.ndarray, breslow) -> list:
        """:func:`balance_report`'s rows for complete visit weights ``w``."""
        res = _BalanceSystem(self.rs, self.h_sums, self.h_visit, np.ones_like(w),
                             breslow).residual(w)
        rows = []
        for j, (term, sd) in enumerate(zip(self.names, self.sd)):
            zero = sd == 0.0
            rows.append({
                "term": term,
                "residual": float(res[j]),
                "standardized_residual": float(res[j]) if zero else float(res[j] / sd),
                "zero_sd": zero,
            })
        return rows


def balance_report(dataset: Dataset, hspec: ModelMatrixSpec, weights, breslow,
                   q: Optional[QValues] = None) -> list:
    """Evaluate the balance conditions under arbitrary weights.

    ``weights`` is a :class:`WeightSet` or an array with one entry per
    visit row.  Arrays are taken as complete weights; when ``q`` is given
    the array is treated as the selection-free factor and multiplied by Q.

    Returns a list of dicts with keys ``term``, ``residual``,
    ``standardized_residual`` and ``zero_sd``.  Residuals are standardized
    by the term's standard deviation over at-risk rows; a term with zero
    spread (the constant, for one) is flagged and left unstandardized.
    """
    n_visits = int(dataset.visit.sum())
    w = np.asarray(getattr(weights, "weights", weights), dtype=np.float64)
    if w.shape != (n_visits,):
        raise ValidationError("weights must have one entry per visit row")
    if q is not None and not isinstance(weights, WeightSet):
        w = w * q.check(n_visits)
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValidationError("weights must be positive and finite")
    return _BalanceReport(dataset, hspec).rows(w, breslow)


def export_weights(dataset: Dataset, ws: WeightSet, path) -> None:
    """Write per-visit weights as CSV: patient_id, visit_time, weight, kind."""
    visit_rows = dataset.visit_row_indices()
    if np.shape(ws.weights) != visit_rows.shape:
        raise ValidationError("weight set does not match the dataset")
    ids = _csv_cells(dataset.patient_ids)
    kind = _csv_cells([ws.kind])[0]
    pids = map(ids.__getitem__, dataset.patient_index[visit_rows].tolist())
    times = _reprs(dataset.end[visit_rows])
    values = _reprs(np.asarray(ws.weights, dtype=np.float64))
    with open(path, "w", newline="") as fh:
        fh.write("patient_id,visit_time,weight,kind\n")
        fh.writelines(f"{p},{t},{w},{kind}\n" for p, t, w in zip(pids, times, values))
