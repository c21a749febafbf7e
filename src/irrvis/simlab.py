"""Simulation laboratory.

Generates longitudinal data on a fine grid where visiting may depend on
covariates and, through a sensitivity parameter, on the concurrent outcome
itself; runs the four estimators (complete-data, naive, inverse-intensity
with fitted weights, inverse-intensity with balancing weights) over
replicated datasets; and scores bias, SD and RMSE against the known
marginal coefficients.

Each patient visits at grid step t = 0.01, ..., 5.00 with probability
``min(1, exp(alpha(t) + gamma' z + phi * S(y)))``, ``alpha(t) = -3.05 - 2t``.
That is a proportional visit intensity only where the cap does not bind,
and at strong covariate dependence it binds often: with ``gamma_z = 1.25``
and a continuous outcome, capped rows carry about 29% of the expected
visit mass at ``phi = 0`` and 45% at ``phi = 0.3``.  The ``correctZ`` weight
models are therefore exact only where the cap does not bind.

The weight models come in four scenarios crossing two misspecifications:
omitting the outcome term from the weights, and replacing the time-varying
covariates by noisy transforms.  When the outcome term is kept with
transformed covariates, the plugged-in sensitivity value is the limiting
coefficient from a very large one-off fit (:func:`limiting_phi`).
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._newton import maximize
from .cox import fit_cox
from .data import Dataset
from .design import ModelMatrixSpec
from .errors import IrrvisError, NumericError, ValidationError
from .gee import MarginalModelSpec, fit_weighted_gee
from .rng import substream
from .weights import SelectionSpec, balancing_weights, mle_weights, q_values

__all__ = ["ScenarioConfig", "MetricsTable", "generate", "limiting_phi",
           "run_study", "GRID_TIMES"]

N_GRID = 500
GRID_TIMES = np.round(np.arange(1, N_GRID + 1) * 0.01, 2)
TAU = 5.0

SCENARIOS = ("s1_noSF_correctZ", "s2_noSF_transformedZ",
             "s3_SF_correctZ", "s4_SF_transformedZ")
ESTIMATORS = ("complete", "naive", "mle", "balancing")

# marginal regression truths: coefficients of X and t; the count outcome's
# X coefficient is 0.67 plus log E[exp(z1 + z2 - z1 z2 / 2)] at x = 1 minus
# that at x = 0, which is -5/3 for z ~ N(-x, I)
TRUE_BETA = {"continuous": (-4.5, -0.5), "count": (0.67 - 5.0 / 3.0, -0.5)}

# stream indices far above any replicate index
_LIMITING_STREAM_BASE = 1 << 32
_TRUTH_STREAM_BASE = 1 << 33


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: outcome type, visit-model strength, scenario."""

    outcome: str
    gamma_z: float
    phi_true: float
    n: int
    scenario: str
    n_reps: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.outcome not in ("continuous", "count"):
            raise ValidationError("outcome must be continuous or count")
        if self.scenario not in SCENARIOS:
            raise ValidationError(f"scenario must be one of {SCENARIOS}")
        if self.n < 2:
            raise ValidationError("n must be at least 2")
        if self.n_reps < 1:
            raise ValidationError("n_reps must be at least 1")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")

    def selection(self) -> SelectionSpec:
        kind = "identity" if self.outcome == "continuous" else "log1p"
        return SelectionSpec(transform=kind)

    def weight_covariates(self) -> list:
        if self.scenario in ("s1_noSF_correctZ", "s3_SF_correctZ"):
            return ["z1", "z2", "z1*z2", "x"]
        return ["z1s", "z2s", "z1s*z2s", "x"]

    def balance_terms(self) -> list:
        z = self.weight_covariates()
        return ["1"] + z + ["t"] + [f"t*{term}" for term in z]

    def marginal_model(self) -> MarginalModelSpec:
        xspec = ModelMatrixSpec(["1", "x", "t"])
        if self.outcome == "continuous":
            return MarginalModelSpec(xspec, link="identity", variance="constant")
        return MarginalModelSpec(xspec, link="log", variance="poisson")


def _draw_panel(cfg: ScenarioConfig, rng: np.random.Generator, n: int):
    """Raw per-patient-by-grid draws: x, z1, z2, y, s_y, visit, z1s, z2s."""
    t = GRID_TIMES
    x = (rng.random(n) < 0.5).astype(np.float64)[:, None]
    z1 = rng.normal(-x, 1.0, (n, N_GRID))
    z2 = rng.normal(-x, 1.0, (n, N_GRID))
    if cfg.outcome == "continuous":
        eps = rng.normal(0.0, 0.5, (n, N_GRID))
        y = 5.0 + z1 + z2 - 0.5 * z1 * z2 - 2.0 * x - 0.5 * t + eps
        s_y = y
    else:
        mu = np.exp(1.69 + z1 + z2 - 0.5 * z1 * z2 + 0.67 * x - 0.5 * t)
        shape = 1.0 / 0.5
        lam = rng.gamma(shape, 0.5 * mu)
        y = rng.poisson(lam).astype(np.float64)
        s_y = np.log1p(y)
    log_pi = (-3.05 - 2.0 * t + cfg.gamma_z * z1 + cfg.gamma_z * z2
              + 0.5 * z1 * z2 + x + cfg.phi_true * s_y)
    pi = np.minimum(1.0, np.exp(log_pi))
    visit = rng.random((n, N_GRID)) < pi
    e = rng.normal(0.0, 0.1, (n, N_GRID))
    z1s = z1 - z2
    z2s = z2 + e
    return x, z1, z2, y, s_y, visit, z1s, z2s


_COV_NAMES = ("z1", "z2", "x", "z1s", "z2s")


def _panel_dataset(x, z1, z2, z1s, z2s, y, visit) -> Dataset:
    n = x.shape[0]
    rows = n * N_GRID
    pidx = np.repeat(np.arange(n, dtype=np.int32), N_GRID)
    start = np.tile(np.concatenate(([0.0], GRID_TIMES[:-1])), n)
    end = np.tile(GRID_TIMES, n)
    cov = np.empty((rows, len(_COV_NAMES)))
    cov[:, 0] = z1.ravel()
    cov[:, 1] = z2.ravel()
    cov[:, 2] = np.repeat(x[:, 0], N_GRID)
    cov[:, 3] = z1s.ravel()
    cov[:, 4] = z2s.ravel()
    v = visit.ravel()
    outcome = np.where(v, y.ravel(), np.nan)
    return Dataset(list(range(n)), pidx, start, end,
                   np.ones(rows, dtype=bool), v, outcome, cov, _COV_NAMES,
                   tau=TAU, validate=False)


def generate(cfg: ScenarioConfig, rep: int):
    """Generate replicate ``rep``: returns (observed, complete) datasets.

    The observed dataset keeps the outcome at visit rows only.  The
    complete companion marks every grid row as a visit with its outcome,
    which is what the complete-data reference estimator consumes.
    """
    rng = substream(cfg.seed, rep)
    x, z1, z2, y, s_y, visit, z1s, z2s = _draw_panel(cfg, rng, cfg.n)
    observed = _panel_dataset(x, z1, z2, z1s, z2s, y, visit)
    all_rows = np.ones_like(visit)
    complete = _panel_dataset(x, z1, z2, z1s, z2s, y, all_rows)
    return observed, complete


# -- limiting sensitivity value ---------------------------------------------


def _limiting_design(cfg: ScenarioConfig, n_large: int,
                     correct_covariates: bool, chunk: int = 4000):
    """Covariate matrix (float32) and visit flags for the limiting fit.

    Columns: the scenario's weight covariates (transformed by default)
    followed by S(Y) at every grid row.  Chunked generation keeps peak
    memory proportional to ``chunk``, and the per-chunk streams make the
    result independent of the chunk size.
    """
    p = 5
    design = np.empty((n_large * N_GRID, p), dtype=np.float32)
    visit = np.empty(n_large * N_GRID, dtype=bool)
    done = 0
    c = 0
    while done < n_large:
        m = min(chunk, n_large - done)
        rng = substream(cfg.seed, _LIMITING_STREAM_BASE + c)
        x, z1, z2, y, s_y, v, z1s, z2s = _draw_panel(cfg, rng, m)
        if correct_covariates:
            a, b = z1, z2
        else:
            a, b = z1s, z2s
        sl = slice(done * N_GRID, (done + m) * N_GRID)
        block = design[sl]
        block[:, 0] = a.ravel()
        block[:, 1] = b.ravel()
        block[:, 2] = (a * b).ravel()
        block[:, 3] = np.repeat(x[:, 0], N_GRID)
        block[:, 4] = s_y.ravel()
        visit[sl] = v.ravel()
        done += m
        c += 1
    return design, visit


def _fit_grid_cox(design: np.ndarray, visit: np.ndarray,
                  row_chunk: int = 4_000_000) -> np.ndarray:
    """Unweighted proportional-intensity fit on grid data.

    Specialized to the simulated layout: every row is at risk, rows cycle
    through the grid, each row covers exactly its own grid time.  Streams
    over row chunks, so the design may stay in float32; all accumulation
    is float64.  Dimensions here are small (p at most a handful, one event
    per grid time), so the per-event second moments fit in memory.
    """
    rows, p = design.shape
    n = rows // N_GRID
    grid_counts = np.bincount(np.flatnonzero(visit) % N_GRID, minlength=N_GRID)
    event_mask = grid_counts > 0
    event_id = np.cumsum(event_mask) - 1                     # grid -> event index
    k = int(event_mask.sum())
    a = grid_counts[event_mask].astype(np.float64)           # visits per event
    visit_cols = np.zeros(p)
    for lo in range(0, rows, row_chunk):
        hi = min(lo + row_chunk, rows)
        vs = visit[lo:hi]
        visit_cols += design[lo:hi][vs].astype(np.float64).sum(axis=0)

    pairs = [(j, l) for j in range(p) for l in range(j, p)]

    def evaluate(g):
        s0 = np.zeros(k)
        s1 = np.zeros((k, p))
        s2 = np.zeros((k, len(pairs)))
        for lo in range(0, rows, row_chunk):
            hi = min(lo + row_chunk, rows)
            block = design[lo:hi].astype(np.float64)
            idx = np.arange(lo, hi) % N_GRID
            keep = event_mask[idx]
            block = block[keep]
            idx = event_id[idx[keep]]
            e = np.exp(block @ g)
            s0 += np.bincount(idx, weights=e, minlength=k)
            for j in range(p):
                s1[:, j] += np.bincount(idx, weights=e * block[:, j], minlength=k)
            for m, (j, l) in enumerate(pairs):
                s2[:, m] += np.bincount(
                    idx, weights=e * block[:, j] * block[:, l], minlength=k)
        if np.any(s0 <= 0) or not np.all(np.isfinite(s0)):
            raise NumericError("limiting fit: risk-set sum not positive")
        loglik = (visit_cols @ g - a @ np.log(s0)) / n
        mean = s1 / s0[:, None]
        score = (visit_cols - a @ mean) / n
        ratio = a / s0
        hessian = np.zeros((p, p))
        for m, (j, l) in enumerate(pairs):
            hessian[j, l] = hessian[l, j] = ratio @ s2[:, m]
        hessian = (hessian - (mean * a[:, None]).T @ mean) / n
        return loglik, score, hessian

    gamma, _, _, _ = maximize(
        evaluate, np.zeros(p), "limiting fit",
        "limiting fit: information matrix is not positive definite")
    return gamma


def limiting_phi(cfg: ScenarioConfig, n_large: int = 100_000,
                 correct_covariates: bool = False) -> float:
    """Coefficient of S(Y) in a large-sample visit-intensity fit.

    Fits the visit process on ``n_large`` fresh patients with the
    scenario's (by default transformed) covariates plus the outcome term
    S(Y) available at every grid time, and returns the fitted coefficient
    of S(Y).  Deterministic given ``cfg``: the internal streams are keyed
    by ``cfg.seed`` on a reserved index range.
    """
    design, visit = _limiting_design(cfg, n_large, correct_covariates)
    gamma = _fit_grid_cox(design, visit)
    return float(gamma[-1])


def complete_data_fit(cfg: ScenarioConfig, n_large: int = 100_000,
                      chunk: int = 4000) -> np.ndarray:
    """Complete-data marginal fit on ``n_large`` fresh patients.

    The marginal design is (1, X, t) with X binary and t on the fixed
    grid, and the independence estimating equations are linear in the
    outcome within an (X, t) cell for every working variance used here.
    Summing outcomes per cell while streaming therefore reproduces the
    full-data fit exactly with 2 * N_GRID aggregated rows, which is what
    makes this size feasible.  Returns the coefficient vector.
    """
    sums = np.zeros((2, N_GRID))
    n_arm = np.zeros(2)
    done = 0
    c = 0
    while done < n_large:
        m = min(chunk, n_large - done)
        rng = substream(cfg.seed, _TRUTH_STREAM_BASE + c)
        x, z1, z2, y, s_y, v, z1s, z2s = _draw_panel(cfg, rng, m)
        arm = x[:, 0].astype(np.intp)
        for a in (0, 1):
            block = y[arm == a]
            if block.size:
                sums[a] += block.sum(axis=0)
        n_arm += np.bincount(arm, minlength=2)
        done += m
        c += 1
    cells = 2 * N_GRID
    pidx = np.arange(cells, dtype=np.int32)
    end = np.tile(GRID_TIMES, 2)
    cov = np.repeat([0.0, 1.0], N_GRID)[:, None]
    counts = np.repeat(n_arm, N_GRID)
    agg = Dataset(list(range(cells)), pidx, np.zeros(cells), end,
                  np.ones(cells, dtype=bool), np.ones(cells, dtype=bool),
                  (sums / n_arm[:, None]).ravel(), cov, ("x",),
                  tau=TAU, validate=False)
    fit = fit_weighted_gee(agg, cfg.marginal_model(), counts)
    return fit.beta


# -- study harness -----------------------------------------------------------


@dataclass
class MetricsTable:
    """Bias / SD / RMSE per (estimator, parameter) with MC standard errors."""

    rows: list
    n_reps: int
    estimates: dict          # estimator -> (n_reps, 2) array, NaN where failed
    n_failed: dict
    max_balance_residual: Optional[float]

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["estimator", "parameter", "bias", "sd", "rmse",
                             "mc_se_bias", "n_failed"])
            for r in self.rows:
                writer.writerow([r["estimator"], r["parameter"],
                                 repr(r["bias"]), repr(r["sd"]), repr(r["rmse"]),
                                 repr(r["mc_se_bias"]), r["n_failed"]])


def _weight_phi(cfg: ScenarioConfig) -> float:
    if cfg.scenario in ("s1_noSF_correctZ", "s2_noSF_transformedZ"):
        return 0.0
    if cfg.scenario == "s3_SF_correctZ":
        return cfg.phi_true
    return limiting_phi(cfg)


def _run_replicate(cfg: ScenarioConfig, rep: int, phi_w: float,
                   estimators: Sequence[str]):
    """One replicate: returns (estimates dict, balancing residual or None).

    Estimates are (x, t) coefficient pairs; failed estimators map to None.
    """
    observed, complete = generate(cfg, rep)
    model = cfg.marginal_model()
    out: dict = {}
    residual = None

    def coef(fit):
        return (float(fit.beta[1]), float(fit.beta[2]))

    if "complete" in estimators:
        try:
            out["complete"] = coef(fit_weighted_gee(complete, model))
        except IrrvisError:
            out["complete"] = None
    if "naive" in estimators:
        try:
            out["naive"] = coef(fit_weighted_gee(observed, model))
        except IrrvisError:
            out["naive"] = None

    need_weights = [e for e in ("mle", "balancing") if e in estimators]
    if need_weights:
        try:
            q = q_values(observed, cfg.selection(), phi_w)
            zspec = ModelMatrixSpec(cfg.weight_covariates())
            cox = fit_cox(observed, zspec, q)
        except IrrvisError:
            for e in need_weights:
                out[e] = None
            return out, residual
        if "mle" in estimators:
            try:
                ws = mle_weights(cox, observed, q)
                out["mle"] = coef(fit_weighted_gee(observed, model, ws))
            except IrrvisError:
                out["mle"] = None
        if "balancing" in estimators:
            try:
                hspec = ModelMatrixSpec(cfg.balance_terms())
                bal = balancing_weights(observed, hspec, q, cox)
                residual = float(bal.max_abs_residual)
                out["balancing"] = coef(fit_weighted_gee(observed, model, bal))
            except IrrvisError:
                out["balancing"] = None
    return out, residual


def _resolve_threads(threads: Optional[int]) -> int:
    if threads is None:
        env = os.environ.get("IRRVIS_THREADS", "")
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise ValidationError(f"IRRVIS_THREADS is not an integer: {env!r}")
        else:
            threads = os.cpu_count() or 1
    if threads < 1:
        raise ValidationError("thread count must be at least 1")
    return threads


def run_study(cfg: ScenarioConfig, threads: Optional[int] = None,
              estimators: Sequence[str] = ESTIMATORS) -> MetricsTable:
    """Run the full replicated study for one configuration.

    Replicates are independent (stream-keyed by replicate index) and may
    run in parallel; aggregation orders by replicate index, so the result
    is a pure function of ``cfg`` whatever the thread count.
    """
    for e in estimators:
        if e not in ESTIMATORS:
            raise ValidationError(f"unknown estimator {e!r}")
    threads = _resolve_threads(threads)
    phi_w = _weight_phi(cfg)
    reps = range(cfg.n_reps)
    if threads == 1 or cfg.n_reps == 1:
        results = [_run_replicate(cfg, r, phi_w, estimators) for r in reps]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunk = max(1, cfg.n_reps // (threads * 4))
            results = list(pool.map(_run_replicate, [cfg] * cfg.n_reps, reps,
                                    [phi_w] * cfg.n_reps,
                                    [tuple(estimators)] * cfg.n_reps,
                                    chunksize=chunk))

    truth = np.array(TRUE_BETA[cfg.outcome])
    estimates = {e: np.full((cfg.n_reps, 2), np.nan) for e in estimators}
    residuals = []
    for r, (est, resid) in enumerate(results):
        if resid is not None:
            residuals.append(resid)
        for e in estimators:
            if est.get(e) is not None:
                estimates[e][r] = est[e]

    rows = []
    n_failed = {}
    for e in estimators:
        ok = ~np.isnan(estimates[e][:, 0])
        n_ok = int(ok.sum())
        n_failed[e] = cfg.n_reps - n_ok
        if n_ok == 0:
            raise NumericError(f"estimator {e!r} failed on every replicate")
        if n_failed[e] > 0.1 * cfg.n_reps:
            warnings.warn(f"estimator {e!r}: {n_failed[e]} of {cfg.n_reps} "
                          "replicates failed and were dropped")
        vals = estimates[e][ok]
        for j, param in enumerate(("beta1", "beta2")):
            err = vals[:, j] - truth[j]
            bias = float(err.mean())
            sd = float(vals[:, j].std(ddof=1)) if n_ok > 1 else 0.0
            sq = err ** 2
            rmse = float(np.sqrt(sq.mean()))
            mc_se_bias = sd / np.sqrt(n_ok) if n_ok > 1 else float("nan")
            mc_se_sd = sd / np.sqrt(2.0 * (n_ok - 1)) if n_ok > 1 else float("nan")
            if rmse > 0 and n_ok > 1:
                mc_se_rmse = float(sq.std(ddof=1) / (2.0 * rmse * np.sqrt(n_ok)))
            else:
                mc_se_rmse = float("nan")
            rows.append({
                "estimator": e, "parameter": param, "bias": bias, "sd": sd,
                "rmse": rmse, "mc_se_bias": float(mc_se_bias),
                "mc_se_sd": float(mc_se_sd), "mc_se_rmse": mc_se_rmse,
                "n_failed": n_failed[e],
            })
    max_resid = max(residuals) if residuals else None
    return MetricsTable(rows=rows, n_reps=cfg.n_reps, estimates=estimates,
                        n_failed=n_failed, max_balance_residual=max_resid)
