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
grid form of :class:`~irrvis.riskset.RiskStructure`.  It is fitted by
``cox._fit``, as :func:`~irrvis.cox.fit_cox` is, which sums in float64
over blocks of pairs and so needs only a few MB beyond the design.  From
5 000 patients on, the Newton search starts at a pilot fit of the first
500 patients on their own grid structure, which halves the evaluations
of the full partial likelihood; otherwise, and wherever the pilot or the
started fit fails, it starts at zero.
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .cox import _fit as _fit_intensity
# unused here since replicates fit through cox._fit; perfbench/selfcheck.py
# requires this module to hold fit_cox, as perfbench/spans.py rebinds it
from .cox import fit_cox  # noqa: F401
from .data import Dataset, _format_float, _write_csv
from .design import BoundDesign, ModelMatrixSpec
from .errors import IrrvisError, NumericError, ValidationError, _require_integers
from .gee import GeeFit, MarginalModelSpec, fit_weighted_gee
from .gee import _fit as _fit_marginal
from .riskset import RiskStructure
from .rng import substream
from .weights import (SelectionSpec, _BalanceSystem, _balance,
                      _inverse_intensity, q_values)

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
# patients of the pilot fit that starts the limiting fit (see limiting_phi)
_PILOT_PATIENTS = 500


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
        for key, value in (("gamma_z", self.gamma_z), ("phi_true", self.phi_true)):
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValidationError(f"{key} must be finite and real, got {value!r}")
        _require_integers("scenario", n=self.n, n_reps=self.n_reps, seed=self.seed)
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
    """Raw per-patient-by-grid draws: x, z1, z2, y, s_y, visit, z1s, z2s.

    With ``t`` the grid times, ``y = 5 + z1 + z2 - z1 z2 / 2 - 2x - t/2 + eps``
    for a continuous outcome, and a gamma-Poisson count with mean
    ``mu = exp(1.69 + z1 + z2 - z1 z2 / 2 + 0.67x - t/2)`` otherwise; the
    visit flag is a Bernoulli draw with the probability of the module
    docstring.  Each formula is summed left to right in place, in the
    order written, into buffers reused once their values are spent, so
    the draws equal those of one-expression formulas bit for bit while a
    draw holds at most five ``(n, N_GRID)`` float arrays at once for a
    continuous outcome and six for a count, counting those it returns.
    """
    t = GRID_TIMES
    x = (rng.random(n) < 0.5).astype(np.float64)[:, None]
    z1 = rng.normal(-x, 1.0, (n, N_GRID))
    z2 = rng.normal(-x, 1.0, (n, N_GRID))
    term = np.multiply(z1, 0.5)                              # z1 z2 / 2
    term *= z2
    if cfg.outcome == "continuous":
        log_pi = rng.normal(0.0, 0.5, (n, N_GRID))          # eps, then reused
        y = np.add(z1, 5.0)
        y += z2
        y -= term
        y -= 2.0 * x
        y -= 0.5 * t
        y += log_pi
        s_y = y
    else:
        y = np.add(z1, 1.69)                                 # mu, then y
        y += z2
        y -= term
        y += 0.67 * x
        y -= 0.5 * t
        np.exp(y, out=y)
        y *= 0.5
        s_y = rng.gamma(1.0 / 0.5, y)                        # lam, then S(y)
        y[...] = rng.poisson(s_y)
        np.log1p(y, out=s_y)
        log_pi, term = term, np.empty_like(term)
    np.multiply(z1, cfg.gamma_z, out=log_pi)
    log_pi += -3.05 - 2.0 * t
    np.multiply(z2, cfg.gamma_z, out=term)
    log_pi += term
    np.multiply(z1, 0.5, out=term)                           # z1 z2 / 2 again
    term *= z2
    log_pi += term
    log_pi += x
    np.multiply(s_y, cfg.phi_true, out=term)
    log_pi += term
    pi = np.exp(log_pi, out=log_pi)
    np.minimum(pi, 1.0, out=pi)
    visit = rng.random((n, N_GRID), out=term) < pi
    del log_pi, pi
    z2s = rng.normal(0.0, 0.1, (n, N_GRID))                  # e, then z2 + e
    z2s += z2
    z1s = np.subtract(z1, z2, out=term)
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


def _require_n_large(n_large) -> None:
    _require_integers("simulation", n_large=n_large)
    if n_large < 1:
        raise ValidationError("n_large must be at least 1")


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
        cols = slice(lo, lo + len(x))
        design[0, :, cols], design[1, :, cols] = a.T, b.T
        a *= b                                      # a is written; reuse it
        for out, values in zip((design[2], design[3], design[4], visit),
                               (a, x, s_y, v)):
            out[:, cols] = values.T

    for c, lo in enumerate(range(0, n_large, _DRAW_BLOCK)):
        rng = substream(cfg.seed, _LIMITING_STREAM_BASE + c)
        write(lo, *_draw_panel(cfg, rng, min(_DRAW_BLOCK, n_large - lo)))
    return design.reshape(5, -1), visit.ravel()


def _grid_fit(design: np.ndarray, visit: np.ndarray, n: int,
              start: Optional[np.ndarray] = None) -> np.ndarray:
    """Coefficients of the unit-Q visit model on ``n`` patients'
    time-major ``design`` and ``visit`` flags (see :func:`_limiting_design`),
    with the Newton search started at ``start`` (zero if None)."""
    rs = RiskStructure.grid(GRID_TIMES, n, visit)
    z_visit = design[:, rs.visit_rows].T.astype(np.float64)
    spec = ModelMatrixSpec(["a", "b", "ab", "x", "sy"])     # the design's rows
    return _fit_intensity(rs, design.T, z_visit, spec,
                          np.ones(rs.visit_rows.size), start).gamma


def _pilot_fit(design: np.ndarray, visit: np.ndarray,
               n: int) -> Optional[np.ndarray]:
    """:func:`_grid_fit` on the first :data:`_PILOT_PATIENTS` of the ``n``
    patients, or None where it fails: the pilot may lack visits or fail
    where the full data do not."""
    m = _PILOT_PATIENTS
    try:
        return _grid_fit(design.reshape(5, N_GRID, n)[:, :, :m].reshape(5, -1),
                         visit.reshape(N_GRID, n)[:, :m].ravel(), m)
    except IrrvisError:
        return None


def limiting_phi(cfg: ScenarioConfig, n_large: int = 100_000,
                 correct_covariates: bool = False) -> float:
    """Coefficient of S(Y) in a large-sample visit-intensity fit.

    Fits the visit process on ``n_large`` fresh patients with the
    scenario's (by default transformed) covariates plus the outcome term
    S(Y) available at every grid time, and returns the fitted coefficient
    of S(Y).  Deterministic given ``cfg``: the internal streams are keyed
    by ``cfg.seed`` on a reserved index range.

    From ``n_large`` = 10 * :data:`_PILOT_PATIENTS` on, the Newton search
    starts at a pilot fit of the first :data:`_PILOT_PATIENTS` patients on
    their own grid structure, whose evaluations each cost at most a tenth
    of a full one.  That start lies O(1 / sqrt(_PILOT_PATIENTS)) from the
    full solution, so the full fit needs about half the evaluations it
    needs from zero.  It stops at a different iterate within its
    tolerance: over both outcomes and both covariate choices at seed 1,
    with 10 000 and 100 000 patients, the result moved by at most 5.4e-11
    relative against a start at zero.  Below that size, and wherever the
    pilot or the started fit fails, the search starts at zero, so the
    function fails where a fit from zero fails.
    """
    _require_n_large(n_large)
    design, visit = _limiting_design(cfg, n_large, correct_covariates)
    start = None
    if n_large >= 10 * _PILOT_PATIENTS:
        start = _pilot_fit(design, visit, n_large)
    if start is not None:
        try:
            return float(_grid_fit(design, visit, n_large, start)[-1])
        except IrrvisError:
            pass
    return float(_grid_fit(design, visit, n_large)[-1])


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
        # free this block's draws before the next block is drawn
        del x, y, arm, block
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
    _require_n_large(n_large)

    def blocks():
        # binds no draws, so block c's are freed while block c + 1 is drawn
        for c, lo in enumerate(range(0, n_large, _DRAW_BLOCK)):
            yield itemgetter(0, 3)(_draw_panel(  # x, y
                cfg, substream(cfg.seed, _TRUTH_STREAM_BASE + c),
                min(_DRAW_BLOCK, n_large - lo)))

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
    Each estimator gets what :func:`fit_weighted_gee` after
    :func:`~irrvis.cox.fit_cox` and :func:`~irrvis.weights.mle_weights` or
    :func:`~irrvis.weights.balancing_weights` on :func:`generate`'s
    observed dataset gives, bit for bit, but the dataset's
    :class:`RiskStructure` and its weight-covariate design are built once
    and shared by the visit model and both kinds of weights, through the
    fitting cores those functions call.
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
            bound = BoundDesign(observed, zspec)
            rs = RiskStructure(observed)
            z_cover, z_visit = rs.design(bound, observed)
            cox = _fit_intensity(rs, z_cover, z_visit, zspec, q.values)
        except IrrvisError:
            for e in need_weights:
                out[e] = None
            return out, residual
        if "mle" in estimators:
            try:
                ws = _inverse_intensity(cox, z_visit @ cox.gamma, q.values, q.phi)
                out["mle"] = coef(fit_weighted_gee(observed, model, ws))
            except IrrvisError:
                out["mle"] = None
        if "balancing" in estimators:
            try:
                hspec = ModelMatrixSpec(cfg.balance_terms())
                h_cover, h_visit = rs.design(BoundDesign(observed, hspec), observed)
                bal = _balance(_BalanceSystem(rs, h_cover, h_visit, q.values, cox),
                               hspec, q.phi)
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
    _require_integers("run_study", threads=threads)
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
