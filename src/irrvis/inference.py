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
makes one resample-major pass: each resample's weighted structure is
made once, fitted at every phi whose point fit succeeded, and dropped
before the next is made.  :func:`jackknife` and :func:`bootstrap` are
that pass over a one-phi grid after its point fit, and each phi's
standard errors in a sweep equal theirs bit for bit.

Besides its table, a :class:`SweepResult` keeps, for each phi, the visit
model fit and the weights of the point fit, or the PipelineError that
stopped it; the command line writes its per-phi files from these.
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

    Returns ``(GeeFit, WeightSet or None)``.  Any numeric failure is
    re-raised as a PipelineError naming the stage and the phi value.
    Validation errors pass through untouched: a bad term or column name
    fails the same way at every phi, so the sweep must not absorb it
    into a NaN row.
    """
    _require_finite(phi=phi)
    return _run_stages(_DatasetStages(dataset, config), config, phi)


class _Pass(tuple):
    """The ``(GeeFit, WeightSet or None)`` pair of one pipeline pass, with
    the visit model fit behind the weights as ``visit_model`` (None when
    unweighted): :func:`analyze_once` returns a pair, and :func:`sweep`,
    which calls it, keeps the visit model as well."""

    def __new__(cls, fit, wset, visit_model):
        self = super().__new__(cls, (fit, wset))
        self.visit_model = visit_model
        return self

    def __getnewargs__(self):
        return (*self, self.visit_model)


def _run_stages(stages, config: AnalysisConfig, phi: float) -> _Pass:
    """The pipeline of :func:`analyze_once` over ``stages``, which computes
    each stage on one dataset or on one resample of it."""
    if config.weight_kind == "none":
        fit = _stage("marginal fit", phi, lambda: stages.marginal(None))
        return _Pass(fit, None, None)

    q = _stage("selection values", phi, lambda: stages.selection(phi))
    cox = _stage("visit model fit", phi, lambda: stages.visit_model(q))
    wset = _stage("weights", phi, lambda: stages.weights(cox, q))
    fit = _stage("marginal fit", phi, lambda: stages.marginal(wset.weights))
    return _Pass(fit, wset, cox)


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
        self.n = int(copies.sum())
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
    """Per-term standard errors plus how many resamples failed."""

    se: np.ndarray
    n_used: int
    n_failed: int


def _refits(prepared: _Prepared, draws, points: dict) -> dict:
    """``{phi: (estimates, n_failed)}`` for each phi of ``points``: the
    coefficient rows of the resamples in ``draws`` that fitted at that phi,
    in draw order, and how many failed.  A point fit has passed validation,
    so a resample's ValidationError (a standardized term constant on its
    rows) is its own and counts as a failure, as a NumericError does.

    The pass is resample-major: each resample is weighted once and fitted
    at every phi before the next is weighted, so one resample's arrays are
    alive at a time.  Each resample lies O(1/n) from the whole data, so
    its visit model and balance solves at a phi start at the solution of
    ``points[phi]``, that phi's :func:`analyze_once`, or at zero where it
    is None.
    """
    starts = {phi: None if point is None or point.visit_model is None
              else (point.visit_model.gamma, point[1].gamma)
              for phi, point in points.items()}
    estimates = {phi: [] for phi in points}
    failed = dict.fromkeys(points, 0)
    for copies in draws:
        stages = _ResampleStages(prepared, copies)
        for phi in points:
            try:
                fit, _ = stages.analyze(phi, starts[phi])
            except IrrvisError:
                failed[phi] += 1
                continue
            estimates[phi].append(fit.beta)
        del stages
    return {phi: (np.asarray(estimates[phi]), failed[phi]) for phi in points}


def _jackknife_se(est: np.ndarray, n_failed: int) -> ResampleSE:
    m = len(est)
    if m < 2:
        raise NumericError("jackknife: fewer than 2 deletions converged")
    dev = est - est.mean(axis=0)
    se = np.sqrt((m - 1) / m * (dev * dev).sum(axis=0))
    return ResampleSE(se, m, n_failed)


def _bootstrap_se(est: np.ndarray, n_failed: int, b: int) -> ResampleSE:
    if len(est) == 0:
        raise NumericError("bootstrap: no replicate converged")
    if n_failed > 0.1 * b:
        warnings.warn(f"bootstrap: {n_failed} of {b} replicates failed")
    se = est.std(axis=0, ddof=1) if est.shape[0] > 1 else np.full(est.shape[1], np.nan)
    return ResampleSE(se, est.shape[0], n_failed)


def _resampler(resampling: Resampling, n: int):
    """``(draws, summary)`` of the jackknife or the bootstrap on ``n``
    patients: the copies of each patient in each resample, and the function
    from one phi's ``(estimates, n_failed)`` to its :class:`ResampleSE`."""
    if resampling.kind == "jackknife":
        if n < 2:
            raise ValidationError("jackknife needs at least 2 patients")
        return ((np.arange(n) != k).astype(np.int64) for k in range(n)), _jackknife_se
    draws = (np.bincount(substream(resampling.seed, r).integers(0, n, size=n),
                         minlength=n) for r in range(resampling.b))
    return draws, lambda est, n_failed: _bootstrap_se(est, n_failed, resampling.b)


def _resample_se(dataset: Dataset, config: AnalysisConfig, phi: float,
                 resampling: Resampling) -> ResampleSE:
    """The resampling pass of :func:`sweep` over the one-phi grid ``phi``."""
    draws, summary = _resampler(resampling, dataset.n_patients)
    try:
        point = analyze_once(dataset, config, phi)
    except NumericError:
        point = None
    return summary(*_refits(_Prepared(dataset, config), draws, {phi: point})[phi])


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
    relative (1e-10 from the same start).  This is the pass of
    :func:`sweep` over the one-phi grid ``phi``, so a sweep gives the same
    standard errors bit for bit.
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
                  "weight_min", "weight_median", "weight_max", "converged")


@dataclass(frozen=True)
class SweepResult:
    """Long-format sweep table: one row per (phi, term).  ``fits`` maps each
    phi to the ``(CoxFit, WeightSet)`` of its point fit (both None when
    unweighted), or to the PipelineError that stopped the point fit.
    ``resample_counts`` maps each phi that was resampled (its point fit
    succeeded) to ``(n_used, n_failed)`` as :class:`ResampleSE` counts
    them, also where too few resamples fitted for a standard error; it is
    empty without resampling and not written to the table."""

    rows: tuple          # dicts keyed by _SWEEP_COLUMNS
    names: tuple
    fits: dict = field(default_factory=dict, compare=False, repr=False)
    resample_counts: dict = field(default_factory=dict, compare=False, repr=False)

    def to_csv(self, path) -> None:
        _write_csv(path, _SWEEP_COLUMNS, (
            [_format_float(row["phi"]), row["term"],
             *(_format_float(row[c]) for c in _SWEEP_COLUMNS[2:-1]),
             int(row["converged"])]
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
    """``({phi: standard errors}, {phi: (n_used, n_failed)})``: the first
    for each phi of the successful point fits ``points`` whose resampling
    succeeds, all NaN without resampling, the second for each phi of
    ``points`` that was resampled.  One pass of :func:`_refits`, each phi
    summarized as :func:`jackknife` or :func:`bootstrap` would summarize
    it."""
    resampling = config.resampling
    if resampling.kind == "none":
        return {phi: np.full(n_terms, np.nan) for phi in points}, {}
    if not points:
        return {}, {}
    draws, summary = _resampler(resampling, dataset.n_patients)
    ses, counts = {}, {}
    for phi, (est, n_failed) in _refits(_Prepared(dataset, config), draws,
                                        points).items():
        counts[phi] = (len(est), n_failed)
        try:
            ses[phi] = summary(est, n_failed).se
        except NumericError:
            pass
    return ses, counts


def sweep(dataset: Dataset, config: AnalysisConfig) -> SweepResult:
    """Run the pipeline at every phi in the grid.

    The point fits come first, in grid order.  Resampling then makes one
    pass over the jackknife deletions or bootstrap draws, which are the
    same at every phi: each resample is weighted once and fitted at every
    phi whose point fit succeeded, started at that fit's solution, and
    each phi gets the standard errors :func:`jackknife` or
    :func:`bootstrap` give there, bit for bit.  A resample that fails
    there, numerically or in validating its own rows, is counted.

    A failure at one phi yields NaN rows flagged converged=0 there and
    does not disturb the other grid points.  The result keeps each phi's
    visit model fit and weights, or the PipelineError of a failed point
    fit; a point fit whose standard errors fail keeps its fits.  It also
    keeps how many resamples fitted and failed at each resampled phi.
    """
    names = tuple(config.model.xspec.names)
    points = {}
    fits = {}
    for phi in config.phi_grid:
        try:
            points[phi] = point = analyze_once(dataset, config, phi)
        except NumericError as exc:
            fits[phi] = exc
            continue
        fits[phi] = (point.visit_model, point[1])
    ses, counts = _sweep_ses(dataset, config, points, len(names))
    rows = []
    for phi in config.phi_grid:
        if phi not in ses:
            failed = dict.fromkeys(_SWEEP_COLUMNS, float("nan"))
            rows.extend({**failed, "phi": phi, "term": term, "converged": False}
                        for term in names)
            continue
        fit, wset = points[phi]
        se = ses[phi]
        w_min, w_med, w_max = _weight_summary(wset)
        for j, term in enumerate(names):
            est = float(fit.beta[j])
            se_j = float(se[j])
            rows.append(dict(phi=phi, term=term, estimate=est, se=se_j,
                             ci_lo=est - _CI_Z * se_j, ci_hi=est + _CI_Z * se_j,
                             weight_min=w_min, weight_median=w_med,
                             weight_max=w_max, converged=True))
    return SweepResult(tuple(rows), names, fits, counts)
