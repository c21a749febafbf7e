"""Sensitivity sweeps over phi with resampling-based uncertainty.

A single analysis is a fixed pipeline: selection values from phi, visit
intensity fit, baseline increments, weights, weighted marginal fit.  The
sweep repeats it over a phi grid, isolating failures per grid point, and
attaches standard errors from leave-one-patient-out jackknife or a
patient-level bootstrap.  Confidence intervals in sweep output are always
normal-theory, estimate +/- 1.96 * SE.

A resample is a list of patient indices and is analysed exactly as
``analyze_once`` would analyse ``dataset.take_patients`` of it, bit for
bit, without building that dataset.  The sweep prepares the full data
once (its risk structure and the design of each spec on its incidence
pairs and visit rows, grouped by patient); each resample gathers its
patients' blocks in its own order, drops the event times at which none
of its visits falls together with the pairs covering them, and runs the
same pipeline stages on the fitting cores of :mod:`irrvis.cox`,
:mod:`irrvis.weights` and :mod:`irrvis.gee` that the public functions
call.

Besides its table, a :class:`SweepResult` keeps, for each phi, the visit
model fit and the weights of the point fit, or the PipelineError that
stopped it; the command line writes its per-phi files from these.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cox, gee, weights
from .cox import fit_cox
from .data import Dataset, _format_float
from .design import BoundDesign, ModelMatrixSpec
from .errors import NumericError, ValidationError, _stage
from .gee import MarginalModelSpec, fit_weighted_gee
from .riskset import RiskStructure
from .rng import substream
from .weights import (SelectionSpec, WeightSet, balancing_weights,
                      mle_weights, q_values, BalanceSpec)

__all__ = ["Resampling", "AnalysisConfig", "analyze_once", "jackknife",
           "bootstrap", "sweep", "SweepResult", "ResampleSE",
           "BootstrapResult"]

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
        if self.kind == "bootstrap":
            if self.b < 2:
                raise ValidationError("bootstrap needs at least 2 draws")
            if self.seed < 0:
                raise ValidationError("bootstrap seed must be non-negative")


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
    balance: BalanceSpec = None

    def __post_init__(self):
        if self.weight_kind not in _WEIGHT_KINDS:
            raise ValidationError(f"unknown weight kind {self.weight_kind!r}")
        if self.weight_kind != "none" and self.zspec is None:
            raise ValidationError("weighted analysis needs visit-model terms")
        if self.weight_kind == "balancing" and self.hspec is None \
                and self.balance is None:
            raise ValidationError("balancing weights need balance terms")
        grid = tuple(float(p) for p in self.phi_grid)
        if not grid:
            raise ValidationError("phi grid must be non-empty")
        if any(not math.isfinite(p) for p in grid):
            raise ValidationError("phi grid must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("phi grid must be strictly increasing")
        object.__setattr__(self, "phi_grid", grid)
        if self.balance is None and self.hspec is not None:
            object.__setattr__(self, "balance", BalanceSpec(self.hspec))


def analyze_once(dataset: Dataset, config: AnalysisConfig, phi: float):
    """One pipeline pass at a single phi.

    Returns ``(GeeFit, WeightSet or None)``.  Any numeric failure is
    re-raised as a PipelineError naming the stage and the phi value.
    Validation errors pass through untouched: a bad term or column name
    fails the same way at every phi, so the sweep must not absorb it
    into a NaN row.
    """
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


def _take_rows(design: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rows ``ids`` of a column-major design, kept column-major as
    :meth:`BoundDesign.evaluate` returns it, so that the fits run on the
    same memory layout as on a dataset built from those rows."""
    return np.take(design.T, ids, axis=1).T


def _blocks(bounds: np.ndarray, patients: np.ndarray) -> np.ndarray:
    """Positions of the given patients' entries, patient by patient, in an
    array whose patient ``k`` holds positions ``bounds[k]:bounds[k+1]``."""
    starts = bounds[patients]
    counts = bounds[patients + 1] - starts
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return offsets + np.arange(offsets.size)


class _Prepared:
    """One dataset's pipeline inputs, from which any resample's are gathered.

    A resample is a sequence of patient indices, possibly repeated; it
    stands for ``dataset.take_patients(indices)``.  The full dataset's
    :class:`RiskStructure` and the designs of every spec on its incidence
    pairs and visit rows are built once.  Visit rows and at-risk rows are
    grouped by patient; the event-major pairs are reached through
    ``pair_order``, a permutation that groups them by patient.  So a
    resample's pairs, visit rows and at-risk rows are gathered patient
    block by patient block, in the resample's order.  A spec with
    standardized terms is bound on each resample's own rows and evaluated
    there instead, as :func:`analyze_once` on the resample would; its
    full-data design is None.
    """

    def __init__(self, dataset: Dataset, config: AnalysisConfig):
        self.dataset = dataset
        self.config = config
        bounds = dataset.patient_row_bounds
        self.visit_rows = dataset.visit_row_indices()
        self.visit_bounds = np.searchsorted(self.visit_rows, bounds)
        self.y = dataset.outcome[self.visit_rows]
        self.x = self._full(config.model.xspec, "visits")
        if config.weight_kind == "none":
            return
        self.risk_rows = dataset.at_risk_row_indices()
        self.risk_bounds = np.searchsorted(self.risk_rows, bounds)
        self.rs = RiskStructure(dataset)
        # patient-major, and within a patient in row order (then event)
        self.pair_order = np.argsort(self.rs.cover_row, kind="stable")
        self.pair_bounds = np.searchsorted(self.rs.cover_row[self.pair_order], bounds)
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

    def analyze(self, patients: np.ndarray, phi: float):
        """:func:`analyze_once` on ``dataset.take_patients(patients)``."""
        return _run_stages(_ResampleStages(self, patients), self.config, phi)


class _ResampleStages:
    """Pipeline stages on one resample, through the fitting cores."""

    def __init__(self, prepared: _Prepared, patients: np.ndarray):
        self.prepared = prepared
        self.patients = np.asarray(patients, dtype=np.int64)
        self.n = self.patients.size
        self.visits = _blocks(prepared.visit_bounds, self.patients)
        self.y = prepared.y[self.visits]

    def _bind(self, spec):
        """``spec`` bound on the resample's at-risk rows."""
        p = self.prepared
        rows = p.risk_rows[_blocks(p.risk_bounds, self.patients)]
        return BoundDesign(p.dataset, spec, "at_risk", rows)

    def _design(self, bound, full):
        """The design on the resample's pairs and visit rows: gathered from
        the full data's ``full``, or evaluated by ``bound`` where the spec
        standardizes and ``full`` is None."""
        if full is None:
            return self.rs.design(bound, self.prepared.dataset)
        return _take_rows(full[0], self.pairs), _take_rows(full[1], self.visits)

    def selection(self, phi):
        return weights._selection_factors(self.y, self.prepared.config.selection, phi)

    def visit_model(self, q):
        p = self.prepared
        zspec = p.config.zspec
        pairs = p.pair_order[_blocks(p.pair_bounds, self.patients)]
        # fit_cox binds before it builds the structure; a resample without
        # pairs has no at-risk rows or no visits, and binding names the first
        bound = self._bind(zspec) if p.z is None or not pairs.size else None
        self.rs, self.pairs = p.rs.subset(pairs, self.visits, self.n)
        z_cover, self.z_visit = self._design(bound, p.z)
        return cox._fit(self.rs, z_cover, self.z_visit, zspec, q.values)

    def weights(self, fit, q):
        p = self.prepared
        if p.config.weight_kind == "mle":
            return weights._inverse_intensity(fit, self.z_visit @ fit.gamma,
                                              q.values, q.phi)
        hspec = p.config.balance.hspec
        bound = self._bind(hspec) if p.h is None else None
        h_cover, h_visit = self._design(bound, p.h)
        system = weights._BalanceSystem(self.rs, h_cover, h_visit, q.values, fit)
        return weights._balance(system, hspec, q.phi)

    def marginal(self, w):
        p = self.prepared
        model = p.config.model
        rows = p.visit_rows[self.visits]
        bound = gee._bind(p.dataset, model, rows)
        if bound.standardizes:
            x = bound.evaluate(p.dataset, rows)
        else:
            x = _take_rows(p.x, self.visits)
        return gee._fit(x, self.y, w, model, self.n)


@dataclass(frozen=True)
class ResampleSE:
    """Per-term standard errors plus how many resamples failed."""

    se: np.ndarray
    n_used: int
    n_failed: int


@dataclass(frozen=True)
class BootstrapResult:
    se: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    n_used: int
    n_failed: int


def jackknife(dataset: Dataset, config: AnalysisConfig, phi: float, *,
              _prepared: Optional[_Prepared] = None) -> ResampleSE:
    """Leave-one-patient-out standard errors.

    SE_j = sqrt( (n-1)/n * sum_k (beta_(-k),j - mean_j)^2 ) over the
    deletions that converged; failures are dropped and counted.

    Deletion ``k`` is fitted exactly as ``analyze_once`` on
    ``dataset.take_patients`` of every patient but ``k`` would fit it, and
    gives the same estimate bit for bit; its inputs are gathered from
    arrays prepared once for the whole dataset (see :class:`_Prepared`)
    rather than rebuilt.
    """
    n = dataset.n_patients
    if n < 2:
        raise ValidationError("jackknife needs at least 2 patients")
    prepared = _prepared if _prepared is not None else _Prepared(dataset, config)
    keep = np.arange(n)
    estimates = []
    n_failed = 0
    for k in range(n):
        try:
            fit, _ = prepared.analyze(np.delete(keep, k), phi)
        except NumericError:
            n_failed += 1
            continue
        estimates.append(fit.beta)
    if len(estimates) < 2:
        raise NumericError("jackknife: fewer than 2 deletions converged")
    est = np.asarray(estimates)
    m = est.shape[0]
    dev = est - est.mean(axis=0)
    se = np.sqrt((m - 1) / m * (dev * dev).sum(axis=0))
    return ResampleSE(se, m, n_failed)


def bootstrap(dataset: Dataset, config: AnalysisConfig, phi: float,
              b: int, seed: int, *,
              _prepared: Optional[_Prepared] = None) -> BootstrapResult:
    """Patient-level bootstrap: SE from the replicate SD, percentile CIs.

    Replicate r draws patients with a dedicated substream(seed, r), so any
    subset of replicates is reproducible in isolation.  A drawn patient
    enters once per draw, as in ``dataset.take_patients``; the replicate
    is fitted like a jackknife deletion, from arrays prepared once.
    """
    n = dataset.n_patients
    prepared = _prepared if _prepared is not None else _Prepared(dataset, config)
    estimates = []
    n_failed = 0
    for r in range(b):
        rng = substream(seed, r)
        try:
            fit, _ = prepared.analyze(rng.integers(0, n, size=n), phi)
        except NumericError:
            n_failed += 1
            continue
        estimates.append(fit.beta)
    if not estimates:
        raise NumericError("bootstrap: no replicate converged")
    if n_failed > 0.1 * b:
        import warnings

        warnings.warn(f"bootstrap: {n_failed} of {b} replicates failed")
    est = np.asarray(estimates)
    se = est.std(axis=0, ddof=1) if est.shape[0] > 1 else np.full(est.shape[1], np.nan)
    ci_lo = np.quantile(est, 0.025, axis=0)
    ci_hi = np.quantile(est, 0.975, axis=0)
    return BootstrapResult(se, ci_lo, ci_hi, est.shape[0], n_failed)


_SWEEP_COLUMNS = ("phi", "term", "estimate", "se", "ci_lo", "ci_hi",
                  "weight_min", "weight_median", "weight_max", "converged")


@dataclass(frozen=True)
class SweepResult:
    """Long-format sweep table: one row per (phi, term).  ``fits`` maps each
    phi to the ``(CoxFit, WeightSet)`` of its point fit (both None when
    unweighted), or to the PipelineError that stopped the point fit."""

    rows: tuple          # dicts keyed by _SWEEP_COLUMNS
    names: tuple
    fits: dict = field(default_factory=dict, compare=False, repr=False)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_SWEEP_COLUMNS)
            for row in self.rows:
                writer.writerow([
                    _format_float(row["phi"]), row["term"],
                    *(_format_float(row[c]) for c in _SWEEP_COLUMNS[2:-1]),
                    int(row["converged"]),
                ])

    def estimates(self, term: str) -> np.ndarray:
        return np.array([r["estimate"] for r in self.rows if r["term"] == term])


def _weight_summary(wset: Optional[WeightSet]):
    if wset is None:
        # unweighted analysis: every visit row counts once
        return 1.0, 1.0, 1.0
    w = wset.weights
    return float(w.min()), float(np.median(w)), float(w.max())


def sweep(dataset: Dataset, config: AnalysisConfig) -> SweepResult:
    """Run the pipeline at every phi in the grid.

    A failure at one phi yields NaN rows flagged converged=0 there and
    does not disturb the other grid points.  The result keeps each phi's
    visit model fit and weights, or the PipelineError of a failed point
    fit; a point fit whose standard errors fail keeps its fits.
    """
    names = tuple(config.model.xspec.names)
    rows = []
    fits = {}
    prepared = None
    for phi in config.phi_grid:
        try:
            fit, wset = point = analyze_once(dataset, config, phi)
            fits[phi] = (point.visit_model, wset)
            if config.resampling.kind != "none" and prepared is None:
                prepared = _Prepared(dataset, config)
            if config.resampling.kind == "jackknife":
                se = jackknife(dataset, config, phi, _prepared=prepared).se
            elif config.resampling.kind == "bootstrap":
                se = bootstrap(dataset, config, phi, config.resampling.b,
                               config.resampling.seed, _prepared=prepared).se
            else:
                se = np.full(len(names), np.nan)
        except NumericError as exc:
            fits.setdefault(phi, exc)
            failed = dict.fromkeys(_SWEEP_COLUMNS, float("nan"))
            rows.extend({**failed, "phi": phi, "term": term, "converged": False}
                        for term in names)
            continue
        w_min, w_med, w_max = _weight_summary(wset)
        for j, term in enumerate(names):
            est = float(fit.beta[j])
            se_j = float(se[j])
            rows.append(dict(phi=phi, term=term, estimate=est, se=se_j,
                             ci_lo=est - _CI_Z * se_j, ci_hi=est + _CI_Z * se_j,
                             weight_min=w_min, weight_median=w_med,
                             weight_max=w_max, converged=True))
    return SweepResult(tuple(rows), names, fits)
