"""Sensitivity sweeps over phi with resampling-based uncertainty.

A single analysis is a fixed pipeline: selection values from phi, visit
intensity fit, baseline increments, weights, weighted marginal fit.  The
sweep repeats it over a phi grid, isolating failures per grid point, and
attaches standard errors from leave-one-patient-out jackknife or a
patient-level bootstrap.  Confidence intervals in sweep output are always
normal-theory, estimate +/- 1.96 * SE.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cox import fit_cox
from .data import Dataset
from .design import ModelMatrixSpec
from .errors import IrrvisError, NumericError, PipelineError, ValidationError
from .gee import GeeFit, MarginalModelSpec, fit_weighted_gee
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

    def stage(name, fn):
        try:
            return fn()
        except ValidationError:
            raise
        except IrrvisError as exc:
            raise PipelineError(name, phi, exc) from exc

    if config.weight_kind == "none":
        fit = stage("marginal fit", lambda: fit_weighted_gee(
            dataset, config.model, weights=None))
        return fit, None

    q = stage("selection values", lambda: q_values(
        dataset, config.selection, phi))
    cox = stage("visit model fit", lambda: fit_cox(dataset, config.zspec, q))
    if config.weight_kind == "mle":
        wset = stage("weights", lambda: mle_weights(cox, dataset, q))
    else:
        wset = stage("weights", lambda: balancing_weights(
            dataset, config.balance, q, cox))
    fit = stage("marginal fit", lambda: fit_weighted_gee(
        dataset, config.model, weights=wset.weights))
    return fit, wset


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


def jackknife(dataset: Dataset, config: AnalysisConfig, phi: float) -> ResampleSE:
    """Leave-one-patient-out standard errors.

    SE_j = sqrt( (n-1)/n * sum_k (beta_(-k),j - mean_j)^2 ) over the
    deletions that converged; failures are dropped and counted.
    """
    n = dataset.n_patients
    if n < 2:
        raise ValidationError("jackknife needs at least 2 patients")
    keep = np.arange(n)
    estimates = []
    n_failed = 0
    for k in range(n):
        sub = dataset.take_patients(np.delete(keep, k))
        try:
            fit, _ = analyze_once(sub, config, phi)
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
              b: int, seed: int) -> BootstrapResult:
    """Patient-level bootstrap: SE from the replicate SD, percentile CIs.

    Replicate r draws patients with a dedicated substream(seed, r), so any
    subset of replicates is reproducible in isolation.
    """
    n = dataset.n_patients
    estimates = []
    n_failed = 0
    for r in range(b):
        rng = substream(seed, r)
        sub = dataset.take_patients(rng.integers(0, n, size=n))
        try:
            fit, _ = analyze_once(sub, config, phi)
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
    """Long-format sweep table: one row per (phi, term)."""

    rows: tuple          # dicts keyed by _SWEEP_COLUMNS
    names: tuple

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_SWEEP_COLUMNS)
            for row in self.rows:
                writer.writerow([
                    repr(float(row["phi"])), row["term"],
                    repr(float(row["estimate"])), repr(float(row["se"])),
                    repr(float(row["ci_lo"])), repr(float(row["ci_hi"])),
                    repr(float(row["weight_min"])),
                    repr(float(row["weight_median"])),
                    repr(float(row["weight_max"])),
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
    does not disturb the other grid points.
    """
    names = tuple(config.model.xspec.names)
    rows = []
    for phi in config.phi_grid:
        try:
            fit, wset = analyze_once(dataset, config, phi)
            if config.resampling.kind == "jackknife":
                se = jackknife(dataset, config, phi).se
            elif config.resampling.kind == "bootstrap":
                se = bootstrap(dataset, config, phi,
                               config.resampling.b, config.resampling.seed).se
            else:
                se = np.full(len(names), np.nan)
        except NumericError:
            nan = float("nan")
            for term in names:
                rows.append(dict(phi=phi, term=term, estimate=nan, se=nan,
                                 ci_lo=nan, ci_hi=nan, weight_min=nan,
                                 weight_median=nan, weight_max=nan,
                                 converged=False))
            continue
        w_min, w_med, w_max = _weight_summary(wset)
        for j, term in enumerate(names):
            est = float(fit.beta[j])
            se_j = float(se[j])
            rows.append(dict(phi=phi, term=term, estimate=est, se=se_j,
                             ci_lo=est - _CI_Z * se_j, ci_hi=est + _CI_Z * se_j,
                             weight_min=w_min, weight_median=w_med,
                             weight_max=w_max, converged=True))
    return SweepResult(tuple(rows), names)
