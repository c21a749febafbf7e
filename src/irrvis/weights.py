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

``balance_report`` evaluates the balance conditions under given weights.
It is a one-shot use of ``_BalanceReport``, which holds what does not
change with phi (the risk structure, the balance design on its pairs and
visits, and each term's at-risk standard deviation); the command line
builds one and reports every phi of a run from it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

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
    """

    kind: str
    weights: np.ndarray
    gamma: np.ndarray
    names: tuple
    phi: float
    balance_residuals: Optional[np.ndarray] = None
    max_abs_residual: Optional[float] = None


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
                     names=tuple(cox.names), phi=phi)


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

    ``h_cover`` holds the balance terms on the risk structure's incidence
    pairs and ``h_visit`` on its visit rows; ``breslow`` is as in
    :func:`balancing_weights`.  Where the structure has pair weights, each
    pair's increment in the target is weighted by its pair's weight.
    """

    def __init__(self, rs: RiskStructure, h_cover: np.ndarray, h_visit: np.ndarray,
                 q_arr: np.ndarray, breslow):
        inc = _breslow_pair(breslow, rs)
        self.h_visit = h_visit
        # target: sum_k dLambda_k * (risk-set sum of h at event k)
        per_pair = np.repeat(inc, rs.event_counts)
        if rs.pair_weight is not None:
            per_pair *= rs.pair_weight
        self.target = h_cover.T @ per_pair
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
    h_cover, h_visit = rs.design(BoundDesign(dataset, spec.hspec), dataset)
    system = _BalanceSystem(rs, h_cover, h_visit, q_arr, breslow)
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
                     max_abs_residual=float(np.max(np.abs(res))))


class _BalanceReport:
    """The parts of :func:`balance_report` that do not change with phi."""

    def __init__(self, dataset: Dataset, hspec: ModelMatrixSpec):
        self.names = hspec.names
        self.rs = RiskStructure(dataset)
        bound = BoundDesign(dataset, hspec)
        self.h_cover, self.h_visit = self.rs.design(bound, dataset)
        h_risk = bound.evaluate(dataset, dataset.at_risk_row_indices())
        # one contiguous column at a time; the design is dropped after
        self.sd = [float(col.std(ddof=1)) if col.size > 1 else 0.0
                   for col in h_risk.T]

    def rows(self, w: np.ndarray, breslow) -> list:
        """:func:`balance_report`'s rows for complete visit weights ``w``."""
        res = _BalanceSystem(self.rs, self.h_cover, self.h_visit, np.ones_like(w),
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
    if isinstance(weights, WeightSet):
        w = np.asarray(weights.weights, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if q is not None:
            w = w * q.check(w.shape[0])
    if w.shape[0] != int(dataset.visit.sum()):
        raise ValidationError("weights must have one entry per visit row")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValidationError("weights must be positive and finite")
    return _BalanceReport(dataset, hspec).rows(w, breslow)


def export_weights(dataset: Dataset, ws: WeightSet, path) -> None:
    """Write per-visit weights as CSV: patient_id, visit_time, weight, kind."""
    visit_rows = dataset.visit_row_indices()
    if ws.weights.shape[0] != visit_rows.size:
        raise ValidationError("weight set does not match the dataset")
    ids = _csv_cells(dataset.patient_ids)
    kind = _csv_cells([ws.kind])[0]
    pids = map(ids.__getitem__, dataset.patient_index[visit_rows].tolist())
    times = _reprs(dataset.end[visit_rows])
    values = _reprs(np.asarray(ws.weights, dtype=np.float64))
    with open(path, "w", newline="") as fh:
        fh.write("patient_id,visit_time,weight,kind\n")
        fh.writelines(f"{p},{t},{w},{kind}\n" for p, t, w in zip(pids, times, values))
