"""Simulation laboratory.

Generates longitudinal data on a fine grid where visiting may depend on
covariates and, through a sensitivity parameter, on the concurrent outcome
itself; runs the four estimators (complete-data, naive, inverse-intensity
with fitted weights, inverse-intensity with balancing weights) over
replicated datasets; and scores bias, SD and RMSE against the known
marginal coefficients.

The complete-data estimator sees the outcome at every grid time.  Its
marginal design (1, X, t) has only 2 * N_GRID distinct rows, so both the
per-replicate estimator and the large :func:`complete_data_fit` are fit
from per-(X, t) cell sums (:func:`_cell_fit`); no complete-data dataset
is built during a study.

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

That fit draws its float32 design (1 GB at the default 100 000 patients)
in fixed blocks of patients, each from its own substream, and stores it
grid-time-major: every row is at risk at exactly its own grid time, the
grid form of :class:`~irrvis.riskset.RiskStructure`.  It runs on the
partial likelihood of :func:`~irrvis.cox.fit_cox`, which sums in float64
over blocks of pairs and so needs only a few MB beyond the design.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._newton import maximize
from .cox import _PartialLikelihood, fit_cox
from .data import Dataset, _format_float, _write_csv
from .design import ModelMatrixSpec
from .errors import IrrvisError, NumericError, ValidationError
from .gee import GeeFit, MarginalModelSpec, fit_weighted_gee
from .gee import _fit as _fit_marginal
from .riskset import RiskStructure
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
# patients per substream in the large one-off draws: block c of a
# limiting or complete-data fit comes from stream BASE + c
_DRAW_BLOCK = 4000


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
        for key in ("gamma_z", "phi_true"):
            if not math.isfinite(getattr(self, key)):
                raise ValidationError(f"{key} must be finite")
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
    del log_pi
    visit = rng.random((n, N_GRID)) < pi
    del pi
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
    cov = np.empty((rows, len(_COV_NAMES)), order="F")
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


def _replicate(cfg: ScenarioConfig, rep: int):
    """Replicate ``rep``'s draws and the observed dataset built from them."""
    draws = _draw_panel(cfg, substream(cfg.seed, rep), cfg.n)
    x, z1, z2, y, s_y, visit, z1s, z2s = draws
    return draws, _panel_dataset(x, z1, z2, z1s, z2s, y, visit)


def generate(cfg: ScenarioConfig, rep: int):
    """Generate replicate ``rep``: returns (observed, complete) datasets.

    The observed dataset keeps the outcome at visit rows only.  The
    complete companion marks every grid row as a visit with its outcome.
    Both come from the one draw of the replicate that :func:`run_study`
    uses; the study itself builds only the observed dataset and fits the
    complete-data estimator from per-(X, t) cell sums of the same draws.
    """
    (x, z1, z2, y, _, visit, z1s, z2s), observed = _replicate(cfg, rep)
    complete = _panel_dataset(x, z1, z2, z1s, z2s, y, np.ones_like(visit))
    return observed, complete


# -- limiting sensitivity value ---------------------------------------------


def _limiting_design(cfg: ScenarioConfig, n_large: int,
                     correct_covariates: bool):
    """Covariate matrix (float32) and visit flags for the limiting fit.

    Rows: the scenario's weight covariates (transformed by default) and
    S(Y).  Column ``k * n_large + i`` is patient ``i`` at grid time ``k``,
    the pair order of :meth:`RiskStructure.grid`.  Patients are drawn in
    blocks of :data:`_DRAW_BLOCK`, block ``c`` from its own substream, so
    the draws are fixed by ``cfg`` and ``n_large``; one block's float64
    draws are held at a time besides the design (20 bytes per grid row).
    """
    design = np.empty((5, N_GRID, n_large), dtype=np.float32)
    visit = np.empty((N_GRID, n_large), dtype=bool)

    def write(lo, x, z1, z2, y, s_y, v, z1s, z2s):
        a, b = (z1, z2) if correct_covariates else (z1s, z2s)
        for out, values in zip((*design, visit), (a, b, a * b, x, s_y, v)):
            out[:, lo:lo + len(x)] = values.T

    for c, lo in enumerate(range(0, n_large, _DRAW_BLOCK)):
        rng = substream(cfg.seed, _LIMITING_STREAM_BASE + c)
        write(lo, *_draw_panel(cfg, rng, min(_DRAW_BLOCK, n_large - lo)))
    return design.reshape(5, -1), visit.ravel()


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
    rs = RiskStructure.grid(GRID_TIMES, n_large, visit)
    z_visit = design[:, rs.visit_rows].T.astype(np.float64)
    pl = _PartialLikelihood(rs, design.T, z_visit, np.ones(rs.visit_rows.size))
    gamma, _, _, _ = maximize(
        pl.at, np.zeros(design.shape[0]), "limiting fit",
        "limiting fit: information matrix is not positive definite")
    return float(gamma[-1])


def _cell_fit(blocks, model: MarginalModelSpec) -> GeeFit:
    """Complete-data marginal fit from per-(X, t) cell sums.

    ``blocks`` yields ``(x, y)`` pairs: the binary arm of each patient and
    the ``(patients, N_GRID)`` outcomes at every grid time.  The marginal
    design (1, X, t) has 2 * N_GRID distinct rows, and the independence
    estimating equations are linear in the outcome within an (X, t) cell
    for every working variance used here, so the fit on the cell means,
    weighted by the cell sizes, solves the same equations as the fit on
    every grid row of every patient.  The equations are normalized by the
    number of patients, as the row fit's are, which keeps its stopping
    rule.  The cells of an empty arm are dropped; the design is then rank
    deficient and the fit raises :class:`~irrvis.errors.RankDeficiencyError`.
    """
    sums = np.zeros((2, N_GRID))
    n_arm = np.zeros(2)
    for x, y in blocks:
        arm = x.ravel().astype(np.intp)
        for a in (0, 1):
            block = y[arm == a]
            if block.size:
                sums[a] += block.sum(axis=0)
        n_arm += np.bincount(arm, minlength=2)
    present = n_arm > 0
    arms = np.flatnonzero(present).astype(np.float64)
    design = np.column_stack((np.ones(arms.size * N_GRID),
                              np.repeat(arms, N_GRID),
                              np.tile(GRID_TIMES, arms.size)))
    means = (sums[present] / n_arm[present, None]).ravel()
    counts = np.repeat(n_arm[present], N_GRID)
    return _fit_marginal(design, means, counts, model, int(n_arm.sum()))


def complete_data_fit(cfg: ScenarioConfig,
                      n_large: int = 100_000) -> np.ndarray:
    """Complete-data marginal fit on ``n_large`` fresh patients.

    The fit runs on per-(X, t) cell sums (see :func:`_cell_fit`, which
    also fits each replicate's complete-data estimator in
    :func:`run_study`), so memory holds one block's draws.  Patients are
    drawn in blocks of :data:`_DRAW_BLOCK`, block ``c`` from its own
    substream, so the result is fixed by ``cfg`` and ``n_large``.  An arm
    with no patient, possible at tiny ``n_large``, raises
    :class:`~irrvis.errors.RankDeficiencyError`.  Returns the coefficient
    vector.
    """
    def blocks():
        for c, lo in enumerate(range(0, n_large, _DRAW_BLOCK)):
            m = min(_DRAW_BLOCK, n_large - lo)
            rng = substream(cfg.seed, _TRUTH_STREAM_BASE + c)
            x, _, _, y, *_ = _draw_panel(cfg, rng, m)
            yield x, y

    return _cell_fit(blocks(), cfg.marginal_model()).beta


# -- study harness -----------------------------------------------------------


@dataclass
class MetricsTable:
    """Bias / SD / RMSE per (estimator, parameter) with the MC standard
    error of the bias."""

    rows: list
    n_reps: int
    estimates: dict          # estimator -> (n_reps, 2) array, NaN where failed
    n_failed: dict
    max_balance_residual: Optional[float]

    def to_csv(self, path) -> None:
        floats = ("bias", "sd", "rmse", "mc_se_bias")
        _write_csv(path, ["estimator", "parameter", *floats, "n_failed"],
                   ([r["estimator"], r["parameter"],
                     *(_format_float(r[k]) for k in floats), r["n_failed"]]
                    for r in self.rows))


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
    (x, _, _, y, *_), observed = _replicate(cfg, rep)
    model = cfg.marginal_model()
    out: dict = {}
    residual = None

    def coef(fit):
        return (float(fit.beta[1]), float(fit.beta[2]))

    if "complete" in estimators:
        try:
            out["complete"] = coef(_cell_fit([(x, y)], model))
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
    is a pure function of ``cfg`` whatever the thread count.  Each
    replicate draws the panel of :func:`generate` once and builds only its
    observed dataset; the complete-data estimator is fit from per-(X, t)
    cell sums of the same draws, not from the complete companion.
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
            rmse = float(np.sqrt((err ** 2).mean()))
            mc_se_bias = sd / np.sqrt(n_ok) if n_ok > 1 else float("nan")
            rows.append({
                "estimator": e, "parameter": param, "bias": bias, "sd": sd,
                "rmse": rmse, "mc_se_bias": float(mc_se_bias),
                "n_failed": n_failed[e],
            })
    max_resid = max(residuals) if residuals else None
    return MetricsTable(rows=rows, n_reps=cfg.n_reps, estimates=estimates,
                        n_failed=n_failed, max_balance_residual=max_resid)
