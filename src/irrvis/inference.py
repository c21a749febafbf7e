"""Sensitivity sweeps over phi with resampling-based uncertainty.

A single analysis is a fixed pipeline: selection values from phi, visit
intensity fit, baseline increments, weights, weighted marginal fit.  The
sweep repeats it over a phi grid, isolating failures per grid point, and
attaches standard errors from leave-one-patient-out jackknife or a
patient-level bootstrap.  Confidence intervals in sweep output are always
normal-theory, estimate +/- 1.96 * SE.

A resample is a vector of copies per patient, analysed as ``analyze_once``
would analyse ``dataset.take_patients`` of the patients in ascending
order, each repeated by its copies, without building that dataset: the
sweep prepares the full data once (its risk structure and the design of
each spec on its incidence pairs and visit rows), and each resample
weights every pair and visit row by its patient's copies (see
:class:`_ResampleStages`) in the fitting cores that the public functions
call.  Started from zero, as they start, a resample reproduces
``take_patients`` to 1e-10 relative and fails where it fails; with all
copies 1 it is ``analyze_once`` bit for bit.  The jackknife and
the bootstrap instead start each resample's visit model and balance
solves at the point fit's solution, which lies O(1/n) from the
resample's; the Newton search then stops at a different iterate within
the solvers' tolerance, and a resample's estimate moves by less than 1e-7
relative.  Point fits are unchanged.

Only the selection factors depend on phi, and the deletions or draws are
the same at every phi.  So the sweep fits every point first and then
refits resamples in rounds: in each, every resample that some phi
selected is weighted once, fitted at each phi that selected it, and
dropped before the next is made.  The bootstrap selects every draw in one
round, and so does the jackknife of at most 32 patients.  A larger
jackknife is screened at each phi: every patient's influence on the
estimates at the point fit (the infinitesimal jackknife) gives its
deletion's linear term, the deletions whose linear term stands in worst
are refitted exactly, 32 and then 16 a round, until a round moves every
standard error by less than 0.5%, and the rest keep their linear term
(see :func:`jackknife`).  :func:`jackknife` and :func:`bootstrap` are
that pass over a one-phi grid after its point fit, and each phi's
standard errors in a sweep equal theirs bit for bit.

Besides its table, whose rows count each phi's resamples, a
:class:`SweepResult` keeps for each phi the point fit's weights, which carry
their visit model fit (:attr:`WeightSet.visit_model`), or the PipelineError
that stopped it; the command line writes its per-phi files from these.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import cox, gee, weights
from .cox import fit_cox
from .data import Dataset, _blocks, _format_float, _write_csv
from .design import BoundDesign, ModelMatrixSpec
from .errors import (IrrvisError, NumericError, ValidationError,
                     _require_finite, _require_integers, _stage)
from .gee import MarginalModelSpec, fit_weighted_gee
from .riskset import RiskStructure
from .rng import substream
from .weights import (SelectionSpec, WeightSet, balancing_weights,
                      mle_weights, q_values, BalanceSpec)

__all__ = ["Resampling", "AnalysisConfig", "analyze_once", "jackknife",
           "bootstrap", "sweep", "SweepResult", "ResampleSE"]

_CI_Z = 1.96

_WEIGHT_KINDS = ("none", "mle", "balancing")


@dataclass(frozen=True)
class Resampling:
    """Uncertainty method: none, jackknife, or bootstrap(b, seed)."""

    kind: str = "none"
    b: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "jackknife", "bootstrap"):
            raise ValidationError(f"unknown resampling kind {self.kind!r}")
        _require_integers("resampling", b=self.b, seed=self.seed)
        if self.kind == "bootstrap":
            if self.b < 2:
                raise ValidationError("bootstrap needs at least 2 draws")
            if not 0 <= self.seed < 1 << 64:
                raise ValidationError("bootstrap seed must be non-negative, below 2**64")


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything fixed across a sweep: models, selection, grid, resampling."""

    model: MarginalModelSpec
    weight_kind: str = "none"
    zspec: Optional[ModelMatrixSpec] = None
    hspec: Optional[ModelMatrixSpec] = None
    selection: SelectionSpec = field(default_factory=SelectionSpec)
    phi_grid: tuple = (0.0,)
    resampling: Resampling = field(default_factory=Resampling)
    balance: Optional[BalanceSpec] = field(init=False)  # from hspec, if any

    def __post_init__(self):
        if self.weight_kind not in _WEIGHT_KINDS:
            raise ValidationError(f"unknown weight kind {self.weight_kind!r}")
        if self.weight_kind != "none" and self.zspec is None:
            raise ValidationError("weighted analysis needs visit-model terms")
        if self.weight_kind == "balancing" and self.hspec is None:
            raise ValidationError("balancing weights need balance terms")
        for p in self.phi_grid:
            if isinstance(p, bool) or not isinstance(p, numbers.Real):
                raise ValidationError(
                    f"phi grid values must be real numbers, got {p!r}")
        grid = tuple(float(p) for p in self.phi_grid)
        if not grid:
            raise ValidationError("phi grid must be non-empty")
        if any(not math.isfinite(p) for p in grid):
            raise ValidationError("phi grid must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("phi grid must be strictly increasing")
        object.__setattr__(self, "phi_grid", grid)
        object.__setattr__(self, "balance", None if self.hspec is None
                           else BalanceSpec(self.hspec))


def analyze_once(dataset: Dataset, config: AnalysisConfig, phi: float):
    """One pipeline pass at a single phi.

    Returns ``(GeeFit, WeightSet or None)``, the weights carrying their
    visit model fit.  Any numeric failure is re-raised as a PipelineError
    naming the stage and the phi value.  Validation errors pass through
    untouched: a bad term or column name fails the same way at every phi,
    so the sweep must not absorb it into a NaN row.
    """
    _require_finite(phi=phi)
    return _run_stages(_DatasetStages(dataset, config), config, phi)


def _run_stages(stages, config: AnalysisConfig, phi: float) -> tuple:
    """The pipeline of :func:`analyze_once` over ``stages``, which computes
    each stage on one dataset or on one resample of it."""
    if config.weight_kind == "none":
        return _stage("marginal fit", phi, lambda: stages.marginal(None)), None

    q = _stage("selection values", phi, lambda: stages.selection(phi))
    cox = _stage("visit model fit", phi, lambda: stages.visit_model(q))
    wset = _stage("weights", phi, lambda: stages.weights(cox, q))
    fit = _stage("marginal fit", phi, lambda: stages.marginal(wset.weights))
    return fit, wset


class _DatasetStages:
    """Pipeline stages on a whole dataset, through the public functions."""

    def __init__(self, dataset: Dataset, config: AnalysisConfig):
        self.dataset = dataset
        self.config = config

    def selection(self, phi):
        return q_values(self.dataset, self.config.selection, phi)

    def visit_model(self, q):
        return fit_cox(self.dataset, self.config.zspec, q)

    def weights(self, cox, q):
        if self.config.weight_kind == "mle":
            return mle_weights(cox, self.dataset, q)
        return balancing_weights(self.dataset, self.config.balance, q, cox)

    def marginal(self, w):
        return fit_weighted_gee(self.dataset, self.config.model, weights=w)


class _Prepared:
    """One dataset's pipeline inputs, on which every resample is fitted.

    A resample is a vector of copies per patient (see the module
    docstring).  The full dataset's :class:`RiskStructure` and the designs
    of every spec on its incidence pairs and visit rows are built once,
    with each pair's and visit row's patient (``pair_patient``,
    ``visit_patient``).  A spec with standardized terms is bound on each
    resample's own rows instead, as :func:`analyze_once` on the resample
    would bind it, and evaluated on the full pairs and visit rows; its
    full-data design is None.  A resample fitted on these from zero
    matches ``take_patients`` to 1e-10 relative.
    """

    def __init__(self, dataset: Dataset, config: AnalysisConfig):
        self.dataset = dataset
        self.config = config
        self.visit_rows = dataset.visit_row_indices()
        self.visit_patient = dataset.patient_index[self.visit_rows]
        self.y = dataset.outcome[self.visit_rows]
        self.x = self._full(config.model.xspec, "visits")
        if config.weight_kind == "none":
            return
        self.rs = RiskStructure(dataset)
        self.pair_patient = dataset.patient_index[self.rs.cover_row]
        self.z = self._full(config.zspec, "at_risk")
        if config.weight_kind == "balancing":
            self.h = self._full(config.balance.hspec, "at_risk")

    @cached_property
    def h_sums(self):
        """The full-data balance design's per-event sums."""
        return self.rs.event_sums(lambda lo, hi: self.h[0][lo:hi])

    def _full(self, spec, subset):
        """Full-data design of ``spec`` on the visit rows (``visits``) or on
        the pairs and visit rows (``at_risk``); None if bound per resample."""
        bound = BoundDesign(self.dataset, spec, subset)
        if bound.standardizes:
            return None
        if subset == "visits":
            return bound.evaluate(self.dataset, self.visit_rows)
        return self.rs.design(bound, self.dataset)


class _ResampleStages:
    """Pipeline stages on one resample, through the fitting cores.

    Each pair and each visit row's Q is weighted by its patient's copies
    (so is each row of an unweighted marginal fit), and sums are divided by
    ``n``, the sum of the copies.  The weighted structure, any design
    bound on the resample's rows and the pair-weighted per-event sums of
    the balance design are made on first use and kept; one that fails is
    not kept and fails the same way again.
    """

    def __init__(self, prepared: _Prepared, copies: np.ndarray):
        self.prepared = prepared
        self.start = (None, None)
        self.copies = copies
        self.n = float(copies.sum())
        self.visit_copies = copies[prepared.visit_patient].astype(np.float64)

    def analyze(self, phi: float, start=None):
        """:func:`analyze_once` on the resample at ``phi``.  ``start`` is
        None, for solves from zero, or the ``(visit model gamma, balance
        gamma)`` pair to start those two Newton solves at; the marginal fit
        keeps its own start."""
        self.start = (None, None) if start is None else start
        return _run_stages(self, self.prepared.config, phi)

    def _rows(self, flags):
        """The rows flagged by ``flags`` of the resample's patients, patient
        by patient and repeated by their copies, as in ``take_patients``."""
        patients = np.repeat(np.arange(self.copies.size), self.copies)
        rows = _blocks(self.prepared.dataset.patient_row_bounds, patients)
        return rows[flags[rows]]

    def _bind(self, spec):
        """``spec`` bound on the resample's at-risk rows."""
        p = self.prepared
        return BoundDesign(p.dataset, spec, "at_risk", self._rows(p.dataset.at_risk))

    @cached_property
    def _structure(self):
        """``(weighted RiskStructure, (z on the pairs, z on the visits))``."""
        p = self.prepared
        # fit_cox binds before it needs a visit: a lack of at-risk rows is named first
        z = p.z
        if z is None or not self.visit_copies.any():
            z = p.rs.design(self._bind(p.config.zspec), p.dataset)
        if not self.visit_copies.any():
            raise ValidationError("dataset has no visits")
        return p.rs.weighted(self.copies[p.pair_patient].astype(np.float64), self.n), z

    @cached_property
    def _h(self):
        """The balance design's per-event sums on the weighted structure
        (:meth:`RiskStructure.event_sums`) and its rows on the visit rows,
        shared by every phi."""
        p = self.prepared
        rs = self._structure[0]
        if p.h is None:
            return rs.design_sums(self._bind(p.config.balance.hspec), p.dataset)
        h_cover, h_visit = p.h
        return rs.event_sums(lambda lo, hi: h_cover[lo:hi]), h_visit

    @cached_property
    def _x(self):
        """The marginal design on the visit rows."""
        p = self.prepared
        if p.x is not None and self.visit_copies.any():
            return p.x
        bound = gee._bind(p.dataset, p.config.model, self._rows(p.dataset.visit))
        return bound.evaluate(p.dataset, p.visit_rows)

    def selection(self, phi):
        q = weights._selection_factors(self.prepared.y, self.prepared.config.selection, phi)
        return cox.QValues(q.phi, q.values * self.visit_copies)

    def visit_model(self, q):
        rs, (z_cover, z_visit) = self._structure
        return cox._fit(rs, z_cover, z_visit, self.prepared.config.zspec,
                        q.values, self.start[0])

    def weights(self, fit, q):
        p = self.prepared
        rs, (_, z_visit) = self._structure
        if p.config.weight_kind == "mle":
            return weights._inverse_intensity(fit, z_visit @ fit.gamma,
                                              q.values, q.phi)
        system = weights._BalanceSystem(rs, *self._h, q.values, fit)
        # a resample drops every term the whole data drops, so a start of
        # the length it keeps is for the same terms
        return weights._balance(system, p.config.balance.hspec, q.phi,
                                self.start[1])

    def marginal(self, w):
        w = self.visit_copies if w is None else w
        return gee._fit(self._x, self.prepared.y, w, self.prepared.config.model,
                        self.n)


@dataclass(frozen=True)
class ResampleSE:
    """Per-term standard errors, how many resamples gave an estimate and how
    many failed, and how many of the estimates were refitted exactly (the
    others are linear deletion estimates, see :func:`jackknife`)."""

    se: np.ndarray
    n_used: int
    n_failed: int
    n_exact: int


# the screened jackknife (see jackknife): the deletions refitted in the
# first round and in each later one, and the share of a standard error that
# a round must move it by for another round to follow
_FIRST_REFITS = 32
_MORE_REFITS = 16
_STOP_SHARE = 0.005


def _patient_sums(values: np.ndarray, patient: np.ndarray, n: int) -> np.ndarray:
    """Per-patient sums of the rows of ``values``, shape ``(n, terms)``."""
    return np.stack([np.bincount(patient, weights=col, minlength=n)
                     for col in values.T], axis=1)


def _stage_sums(prepared: _Prepared, terms) -> np.ndarray:
    """Per-patient sums of a stage's ``terms`` (:class:`cox._ScoreTerms` or
    :class:`weights._BalanceTerms`) over each patient's visit rows and
    pairs."""
    p = prepared
    n = p.dataset.n_patients
    return (_patient_sums(terms.visit, p.visit_patient, n)
            + p.rs.patient_sums(terms.pairs, p.pair_patient, n))


def _leverages(rows: np.ndarray, weight: np.ndarray, jacobian: np.ndarray,
               patient: np.ndarray, n: int) -> np.ndarray:
    """Each patient's sum of ``weight_v rows_v' jacobian^-1 rows_v`` over
    its rows: its leverage in a stage whose Jacobian sums ``weight_v rows_v
    rows_v'``."""
    own = weight * np.einsum("ij,ji->i", rows, np.linalg.solve(jacobian, rows.T))
    return np.bincount(patient, weights=own, minlength=n)


def _influences(prepared: _Prepared, point: tuple, phi: float) -> tuple:
    """``(d, leverage)`` at ``point``, the point fit at ``phi``: the
    derivative of ``beta`` in each patient's weight, shape ``(patients,
    terms)``, so that deleting patient ``i`` moves ``beta`` by ``-d_i`` to
    first order (the infinitesimal jackknife), and each patient's largest
    leverage (:func:`_leverages`) in the balance solve and the marginal fit.

    The point fit solves the visit model's score, then the balance residual
    (or sets inverse-intensity weights), then the marginal equations, each
    homogeneous in the patients' weights ``c``.  The stacked Jacobian is
    block-triangular, so the roots move stage by stage: ``dgamma_i`` from
    :class:`cox._ScoreTerms`; ``db_i`` from :class:`weights._BalanceTerms`,
    with ``dgamma_i`` entering through the increments; ``dbeta_i`` from the
    marginal equations (:func:`gee._equation_terms`), whose visit weights
    move by ``w_v (1[v in i] + h_v' db_i)``, or ``w_v (1[v in i] - z_v'
    dgamma_i)`` for inverse-intensity weights.  The prepared designs must
    all be full-data designs.

    In a weighted least-squares stage, deleting a patient of leverage
    ``l`` moves the root by about ``1 / (1 - l)`` times its linear term, so
    the leverage tells where the linear term falls short.
    """
    p, cfg = prepared, prepared.config
    n = p.dataset.n_patients
    fit, wset = point
    w = np.ones(p.y.size) if wset is None else wset.weights
    r, slope = gee._equation_terms(p.y, fit.fitted_means, cfg.model)
    terms = p.x * (w * r)[:, None]
    moved = _patient_sums(terms, p.visit_patient, n)
    hessian = (p.x.T * (w * slope)) @ p.x
    leverage = _leverages(p.x, w * slope, hessian, p.visit_patient, n)
    if wset is not None:
        q = weights._selection_factors(p.y, cfg.selection, phi).values
        score = cox._ScoreTerms(cox._PartialLikelihood(p.rs, *p.z, q),
                                wset.visit_model.gamma)
        dgamma = np.linalg.solve(score.info, _stage_sums(p, score).T).T
        if cfg.weight_kind == "mle":
            moved -= dgamma @ (terms.T @ p.z[1]).T
        else:
            # the terms the balance solve kept, as it names them
            keep = [cfg.balance.hspec.names.index(t) for t in wset.names]
            h_cover, h_visit = p.h[0], p.h[1][:, keep]
            balance = weights._BalanceTerms(
                lambda lo, hi: h_cover[lo:hi, keep], p.h_sums[:, keep], h_visit,
                q, w, wset.visit_model.increments, score)
            residual = _stage_sums(p, balance) + dgamma @ balance.cross.T
            db = -np.linalg.solve(balance.jacobian, residual.T).T
            moved += db @ (terms.T @ h_visit).T
            np.maximum(leverage, _leverages(h_visit, w, balance.jacobian,
                                            p.visit_patient, n), out=leverage)
    return np.linalg.solve(hessian, moved.T).T, leverage


class _Schedule:
    """The resamples of one phi that each round of :func:`_refits` refits,
    and the estimates they give (``fits``: resample to ``beta``, or to None
    where the refit failed).

    Without ``linear`` every resample is refitted in the first round.  With
    the linear deletion estimates ``linear`` of a jackknife (see
    :func:`_schedules`), the patients are refitted in the ``order`` given,
    :data:`_FIRST_REFITS` in the first round and :data:`_MORE_REFITS` in each
    later one, until a round moves every term's standard error by less than
    :data:`_STOP_SHARE` of it.
    """

    def __init__(self, count: int, linear=None, order=None):
        self.fits = {}
        self.count = count
        self.linear = linear
        if linear is None:
            self.order, self.first = np.arange(count), count
        else:
            self.order, self.first = order, _FIRST_REFITS
        self.selected = 0
        self.se = None

    def batch(self) -> set:
        """The resamples to refit in the next round; none once done."""
        if self.selected == self.count:
            return set()
        if self.selected:
            est = self.estimates()[0]
            se = _jackknife_se(est, 0, 0).se if len(est) > 1 else None
            if (se is not None and self.se is not None
                    and np.all(np.abs(se - self.se) < _STOP_SHARE * self.se)):
                self.selected = self.count
                return set()
            self.se = se
        size = _MORE_REFITS if self.selected else self.first
        batch = self.order[self.selected:self.selected + size]
        self.selected += batch.size
        return set(batch.tolist())

    def estimates(self) -> tuple:
        """``(estimates, n_failed, n_exact)``: in resample order, the
        estimate of each refit that fitted and, if screened, the linear
        deletion estimate of each patient not refitted; the refits that
        failed; the refits that fitted."""
        rows, failed = [], 0
        for r in range(self.count):
            if r not in self.fits:
                if self.linear is not None:
                    rows.append(self.linear[r])
            elif self.fits[r] is None:
                failed += 1
            else:
                rows.append(self.fits[r])
        return np.asarray(rows), failed, len(self.fits) - failed


def _schedules(prepared: _Prepared, points: dict, count: int,
               jackknife: bool) -> dict:
    """A :class:`_Schedule` of ``count`` resamples for each phi of
    ``points``.

    A ``jackknife`` of more than :data:`_FIRST_REFITS` patients is
    screened at each phi whose point fit succeeded, if every design is a
    full-data one and every influence ``d`` is finite (see
    :func:`_influences`): its linear deletion estimates are ``beta - d_i``,
    and its patients are refitted in the order of their largest
    standardized influence ``|d_ij| / sd_j`` (``sd_j`` the spread of
    ``d_.j``), divided by ``1 - leverage``: a linear term that stands in
    poorly ranks higher.
    """
    p = prepared
    screened = (jackknife and count > _FIRST_REFITS
                and p.x is not None
                and (p.config.weight_kind == "none" or p.z is not None)
                and (p.config.weight_kind != "balancing" or p.h is not None))
    out = {}
    for phi, point in points.items():
        out[phi] = _Schedule(count)
        if not screened or point is None:
            continue
        with np.errstate(all="ignore"):
            try:
                d, leverage = _influences(p, point, phi)
            except (np.linalg.LinAlgError, IrrvisError):
                continue
            sd = d.std(axis=0)
            score = ((np.abs(d) / np.where(sd > 0.0, sd, np.inf)).max(axis=1)
                     / np.maximum(1.0 - leverage, 1e-12))
        if np.all(np.isfinite(d)) and np.all(np.isfinite(leverage)):
            out[phi] = _Schedule(count, point[0].beta - d,
                                 np.argsort(-score, kind="stable"))
    return out


def _refits(prepared: _Prepared, copies, schedules: dict, points: dict) -> None:
    """Fit the resamples that ``schedules``, a :class:`_Schedule` per phi of
    ``points``, select, round by round until none selects one; resample
    ``r`` has ``copies(r)`` of each patient.  A point fit has passed
    validation, so a resample's ValidationError (a standardized term
    constant on its rows) is its own and counts as a failure, as a
    NumericError does.

    Each round is resample-major: each resample that some phi selected is
    weighted once and fitted at every phi that selected it before the next
    is weighted, so one resample's arrays are alive at a time.  Each
    resample lies O(1/n) from the whole data, so its visit model and
    balance solves at a phi start at the solution of ``points[phi]``, that
    phi's :func:`analyze_once`, or at zero where it is None.
    """
    starts = {phi: None if point is None or point[1] is None
              else (point[1].visit_model.gamma, point[1].gamma)
              for phi, point in points.items()}
    while True:
        batches = {phi: schedule.batch() for phi, schedule in schedules.items()}
        todo = sorted(set().union(*batches.values()))
        if not todo:
            return
        for r in todo:
            stages = _ResampleStages(prepared, copies(r))
            for phi, batch in batches.items():
                if r not in batch:
                    continue
                try:
                    fit, _ = stages.analyze(phi, starts[phi])
                except IrrvisError:
                    fit = None
                schedules[phi].fits[r] = None if fit is None else fit.beta
            del stages


def _jackknife_se(est: np.ndarray, n_failed: int, n_exact: int) -> ResampleSE:
    m = len(est)
    if m < 2:
        raise NumericError("jackknife: fewer than 2 deletions converged")
    dev = est - est.mean(axis=0)
    se = np.sqrt((m - 1) / m * (dev * dev).sum(axis=0))
    return ResampleSE(se, m, n_failed, n_exact)


def _bootstrap_se(est: np.ndarray, n_failed: int, n_exact: int, b: int) -> ResampleSE:
    if len(est) == 0:
        raise NumericError("bootstrap: no replicate converged")
    if n_failed > 0.1 * b:
        warnings.warn(f"bootstrap: {n_failed} of {b} replicates failed")
    se = est.std(axis=0, ddof=1) if est.shape[0] > 1 else np.full(est.shape[1], np.nan)
    return ResampleSE(se, est.shape[0], n_failed, n_exact)


def _resample(dataset: Dataset, config: AnalysisConfig, resampling: Resampling,
              points: dict) -> tuple:
    """``(results, summary)`` of the jackknife or the bootstrap at each phi
    of ``points``: ``results[phi]`` is ``(estimates, n_failed, n_exact)``
    as :meth:`_Schedule.estimates` gives them after :func:`_refits`, and
    ``summary`` the function from those to a :class:`ResampleSE`."""
    n = dataset.n_patients
    if resampling.kind == "jackknife":
        if n < 2:
            raise ValidationError("jackknife needs at least 2 patients")
        count, summary = n, _jackknife_se

        def copies(k):
            return (np.arange(n) != k).astype(np.int64)
    else:
        count = resampling.b

        def copies(r):
            return np.bincount(substream(resampling.seed, r).integers(0, n, size=n),
                               minlength=n)

        def summary(est, n_failed, n_exact):
            return _bootstrap_se(est, n_failed, n_exact, resampling.b)
    prepared = _Prepared(dataset, config)
    schedules = _schedules(prepared, points, count, resampling.kind == "jackknife")
    _refits(prepared, copies, schedules, points)
    return {phi: s.estimates() for phi, s in schedules.items()}, summary


def _resample_se(dataset: Dataset, config: AnalysisConfig, phi: float,
                 resampling: Resampling) -> ResampleSE:
    """The resampling pass of :func:`sweep` over the one-phi grid ``phi``."""
    try:
        point = analyze_once(dataset, config, phi)
    except NumericError:
        point = None
    results, summary = _resample(dataset, config, resampling, {phi: point})
    return summary(*results[phi])


def jackknife(dataset: Dataset, config: AnalysisConfig, phi: float) -> ResampleSE:
    """Leave-one-patient-out standard errors.

    SE_j = sqrt( (n-1)/n * sum_k (beta_(-k),j - mean_j)^2 ) over the
    deletions that fitted; numeric and validation failures are dropped and
    counted.

    Deletion ``k`` is fitted as ``analyze_once`` on
    ``dataset.take_patients`` of every patient but ``k`` would fit it, on
    arrays prepared once for the whole dataset (see :class:`_Prepared`)
    with patient ``k``'s weight 0, with its visit model and balance solves
    started at the solution of the point fit, ``analyze_once`` at ``phi``
    (at zero if that fails numerically; its ValidationError propagates);
    it fails where that fit fails and its estimate agrees with it to 1e-7
    relative (1e-10 from the same start).

    With at most 32 patients every deletion is refitted.  With more, the
    jackknife is screened when the point fit succeeded, no spec has
    standardized terms and every influence is finite (otherwise every
    deletion is refitted): a deletion that is not refitted stands in by
    its linear term ``beta - d_k``, ``d_k`` the derivative of ``beta`` in
    patient ``k``'s weight at the point fit.  The patients are refitted in
    the order of their largest standardized influence, divided by one less
    their leverage, since a patient of large leverage has a deletion
    effect well beyond its linear term: 32 first, then 16 a round, until a
    round moves every term's standard error by less than 0.5% of it.  The
    rule bounds the last round's move, not the error: such a standard
    error was within 0.42% of the full jackknife's, with 48 refits, on
    eleven panels of 100 to 400 patients of the continuous
    ``s3_SF_correctZ`` cell with balancing weights, but that of ``x`` was
    0.89% and 1.29% below it (48 and 64 refits) at phi 0 and 0.3 on its
    count cell at 100 patients, seed 2, with mle weights.  ``n_exact``
    counts the refits that fitted; a patient that is not refitted counts
    as used.  This is the pass of :func:`sweep` over the one-phi grid
    ``phi``, so a sweep gives the same standard errors bit for bit.
    """
    return _resample_se(dataset, config, phi, Resampling("jackknife"))


def bootstrap(dataset: Dataset, config: AnalysisConfig, phi: float,
              b: int, seed: int) -> ResampleSE:
    """Patient-level bootstrap: SE from the replicate SD.

    ``b`` and ``seed`` are checked as :class:`Resampling` checks them.
    Replicate r draws patients with a dedicated substream(seed, r), so any
    subset of replicates is reproducible in isolation.  The replicate is
    ``dataset.take_patients`` of its draw in ascending order, fitted like a
    jackknife deletion with each patient weighted by its copies, in the
    same pass that :func:`sweep` makes; failed replicates are dropped and
    counted.
    """
    return _resample_se(dataset, config, phi, Resampling("bootstrap", b, seed))


_SWEEP_COLUMNS = ("phi", "term", "estimate", "se", "ci_lo", "ci_hi",
                  "weight_min", "weight_median", "weight_max", "converged",
                  "n_used", "n_failed", "n_exact")


@dataclass(frozen=True)
class SweepResult:
    """Long-format sweep table: one row per (phi, term).  A row's
    ``n_used``, ``n_failed`` and ``n_exact`` count its phi's resamples as
    :class:`ResampleSE` counts them, also where too few fitted for a
    standard error, and are 0 where the phi was not resampled (no
    resampling, or a failed point fit).  ``fits`` maps each phi to the
    WeightSet of its point fit (None when unweighted), or to the
    PipelineError that stopped the point fit."""

    rows: tuple          # dicts keyed by _SWEEP_COLUMNS
    names: tuple
    fits: dict = field(default_factory=dict, compare=False, repr=False)

    def to_csv(self, path) -> None:
        _write_csv(path, _SWEEP_COLUMNS, (
            [_format_float(row["phi"]), row["term"],
             *(_format_float(row[c]) for c in _SWEEP_COLUMNS[2:9]),
             *(int(row[c]) for c in _SWEEP_COLUMNS[9:])]
            for row in self.rows))

    def estimates(self, term: str) -> np.ndarray:
        return np.array([r["estimate"] for r in self.rows if r["term"] == term])


def _weight_summary(wset: Optional[WeightSet]):
    if wset is None:
        # unweighted analysis: every visit row counts once
        return 1.0, 1.0, 1.0
    w = wset.weights
    return float(w.min()), float(np.median(w)), float(w.max())


def _sweep_ses(dataset: Dataset, config: AnalysisConfig, points: dict,
               n_terms: int) -> tuple:
    """``({phi: standard errors}, {phi: (n_used, n_failed, n_exact)})``:
    the first for each phi of the successful point fits ``points`` whose
    resampling succeeds, all NaN without resampling, the second for each
    phi of ``points`` that was resampled.  One :func:`_resample` pass,
    each phi summarized as :func:`jackknife` or :func:`bootstrap` would
    summarize it."""
    resampling = config.resampling
    if resampling.kind == "none":
        return {phi: np.full(n_terms, np.nan) for phi in points}, {}
    if not points:
        return {}, {}
    results, summary = _resample(dataset, config, resampling, points)
    ses, counts = {}, {}
    for phi, (est, n_failed, n_exact) in results.items():
        counts[phi] = len(est), n_failed, n_exact
        try:
            ses[phi] = summary(est, n_failed, n_exact).se
        except NumericError:
            pass
    return ses, counts


def sweep(dataset: Dataset, config: AnalysisConfig) -> SweepResult:
    """Run the pipeline at every phi in the grid.

    The point fits come first, in grid order.  Resampling then makes one
    pass over the jackknife deletions or bootstrap draws, which are the
    same at every phi: in each round, each resample that some phi selected
    is weighted once and fitted at every phi that selected it, started at
    that phi's point fit, and each phi gets the standard errors
    :func:`jackknife` or :func:`bootstrap` give there, bit for bit; a
    jackknife of more than 32 patients is screened at each phi as
    :func:`jackknife` screens it.  A resample that fails there,
    numerically or in validating its own rows, is counted.

    A failure at one phi yields NaN rows flagged converged=0 there and
    does not disturb the other grid points.  Each row, NaN rows included,
    counts its phi's resamples that fitted, failed and were refitted
    exactly.  The result keeps each phi's weights, which carry its visit
    model fit, also where its standard errors fail, or the PipelineError
    of a failed point fit.
    """
    names = tuple(config.model.xspec.names)
    points, fits = {}, {}
    for phi in config.phi_grid:
        try:
            points[phi] = analyze_once(dataset, config, phi)
            fits[phi] = points[phi][1]
        except NumericError as exc:
            fits[phi] = exc
    ses, counts = _sweep_ses(dataset, config, points, len(names))
    rows = []
    for phi in config.phi_grid:
        if phi in ses:
            fit, wset = points[phi]
            beta, se = fit.beta.tolist(), ses[phi].tolist()
            shared = (*_weight_summary(wset), True)
        else:
            beta = se = [float("nan")] * len(names)
            shared = (float("nan"),) * 3 + (False,)
        shared += counts.get(phi, (0, 0, 0))
        rows.extend(dict(zip(_SWEEP_COLUMNS, (
            phi, term, est, se_j, est - _CI_Z * se_j, est + _CI_Z * se_j, *shared)))
            for term, est, se_j in zip(names, beta, se))
    return SweepResult(tuple(rows), names, fits)
