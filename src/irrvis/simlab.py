"""Simulation laboratory.

Generates longitudinal data on a fine grid where visiting may depend on
covariates and, through a sensitivity parameter, on the concurrent outcome
itself; runs the four estimators (complete-data, naive, inverse-intensity
with fitted weights, inverse-intensity with balancing weights) over
replicated datasets; and scores bias, SD and RMSE against the known
marginal coefficients.

Every simulated patient is at risk on every grid interval, so a
replicate's :class:`~irrvis.riskset.RiskStructure` is built in closed form
from its visit grid rather than by searching the dataset's rows.  A draw
skips what nothing reads: the transformed covariates in the ``correctZ``
cells' replicates, in :func:`complete_data_fit` and in :func:`limiting_phi`
with the correct covariates, and S(y) wherever it returns whole arrays.

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
grid form of :class:`~irrvis.riskset.RiskStructure`.  A draw takes z1 and
z2 whole and everything after them in tiles of a few dozen patients,
which the limiting fit copies straight into its design; so besides the
design a block holds three float64 ``(patients, N_GRID)`` arrays: z1, z2
and the visit probabilities.  It is fitted by
``cox._fit``, as :func:`~irrvis.cox.fit_cox` is, which sums in float64
over blocks of pairs and so needs only a few MB beyond the design.  From
5 000 patients on, the Newton search starts at a pilot fit of the first
500 patients on their own grid structure, which halves the evaluations
of the full partial likelihood; otherwise, and wherever the pilot or the
started fit fails, it starts at zero.
"""

from __future__ import annotations

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
from .errors import (IrrvisError, NumericError, ValidationError, _require_finite,
                     _require_integers)
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
# patients per tile of a draw after z1 and z2 (see _draw_panel): a tile of
# float64 draws is 128 kB, so a tile's buffers stay in cache
_TILE = 32


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
        _require_finite(gamma_z=self.gamma_z, phi_true=self.phi_true)
        _require_integers("scenario", n=self.n, n_reps=self.n_reps, seed=self.seed)
        if self.n < 2:
            raise ValidationError("n must be at least 2")
        if self.n_reps < 1:
            raise ValidationError("n_reps must be at least 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValidationError("seed must be non-negative, below 2**64")

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


class _Arrays:
    """The :func:`_draw_panel` writer that gathers each quantity's tiles into
    one whole ``(n, N_GRID)`` array, but keeps no S(y).  ``drawn`` holds
    them in draw order; an array is made when its first tile comes."""

    def __init__(self, n: int):
        self.n = n
        self.drawn: dict = {}

    def _put(self, rows: slice, **tiles) -> None:
        for name, tile in tiles.items():
            if rows.start == 0:
                self.drawn[name] = np.empty((self.n, N_GRID), tile.dtype)
            self.drawn[name][rows] = tile

    def outcome(self, rows, x, z1, z2, y, s_y) -> None:
        self._put(rows, y=y)

    def visit(self, rows, visit) -> None:
        self._put(rows, visit=visit)

    def transformed(self, rows, z1s, z2s) -> None:
        self._put(rows, z1s=z1s, z2s=z2s)


def _draw_panel(cfg: ScenarioConfig, rng: np.random.Generator, n: int,
                transformed: bool = True, write=None, visits: bool = True):
    """Raw per-patient-by-grid draws: x, z1, z2, y, visit, then z1s and z2s
    where ``transformed``.

    With ``t`` the grid times, ``y = 5 + z1 + z2 - z1 z2 / 2 - 2x - t/2 + eps``
    for a continuous outcome, and a gamma-Poisson count with mean
    ``mu = exp(1.69 + z1 + z2 - z1 z2 / 2 + 0.67x - t/2)`` otherwise; the
    visit flag is a Bernoulli draw with the probability of the module
    docstring.  Each formula is summed left to right in place, in the
    order written, so the draws equal those of one-expression formulas
    bit for bit.

    x, z1 and z2 are drawn whole.  Every later draw is taken in stream
    order in tiles of :data:`_TILE` patients: numpy fills a stream in the
    same order whether an array is drawn whole or in tiles, so the tiles
    change no draw.  One pass over the tiles draws the continuous noise,
    or the Poisson counts after a pass that draws the gamma rates, and
    computes y, S(y) and the visit probabilities; the next draws the visit
    uniforms and flags, and the last the transformed covariates.  Only the
    probabilities (for a count, first the Poisson rates) are held whole
    between passes, so a draw holds three float64 ``(n, N_GRID)`` arrays,
    z1, z2 and the probabilities, besides what ``write`` keeps.  ``write``
    gets each tile as it is made, by ``write.outcome(rows, x, z1, z2, y,
    s_y)``, ``write.visit(rows, visit)`` and ``write.transformed(rows, z1s,
    z2s)``, ``rows`` the tile's slice of patients; its arrays are buffers
    reused by the next tile.  With no ``write``, the draw returns whole
    arrays but S(y) (see :class:`_Arrays`), and holds at most five such
    arrays, counting those it returns.

    ``z ~ N(-x, 1)`` is drawn as a standard normal less ``x``, and the gamma
    rate as a standard gamma times its scale: numpy's ``normal`` and
    ``gamma`` compute ``-x + 1.0 * z`` and ``scale * g`` from the same
    stream, which are the same floats.  The transformed covariates' noise
    is the last draw, so leaving them out (``transformed=False``, for the
    callers that read only z1, z2, x, y and the visits) changes no other
    draw; the draw then returns five arrays, not seven.  The visit uniforms
    come after the outcome's draws, so a draw without ``visits`` ends after
    the outcome, changing none of its draws: it neither computes S(y) and
    the visit probabilities nor draws the visits and the transformed
    covariates, and returns x, z1, z2 and y.
    """
    t = GRID_TIMES
    alpha = -3.05 - 2.0 * t
    x = (rng.random(n) < 0.5).astype(np.float64)[:, None]
    z1 = rng.standard_normal((n, N_GRID))
    z1 -= x
    z2 = rng.standard_normal((n, N_GRID))
    z2 -= x
    whole = write is None
    if whole:
        write = _Arrays(n)
    count = cfg.outcome == "count"
    tiles = [(slice(lo, min(lo + _TILE, n)), min(_TILE, n - lo))
             for lo in range(0, n, _TILE)]
    # tile buffers: z1 z2 / 2, the outcome, S(y) of a count, a product
    half, y_buf, s_buf, tmp = np.empty((4, min(_TILE, n), N_GRID))

    def half_z1z2(r, m):
        out = np.multiply(z1[r], 0.5, out=half[:m])
        out *= z2[r]
        return out

    # the visit probabilities; for a count, first the Poisson rates
    pi = np.empty((n, N_GRID)) if count or visits else None
    if count:
        for r, m in tiles:
            mu = np.add(z1[r], 1.69, out=y_buf[:m])
            mu += z2[r]
            mu -= half_z1z2(r, m)
            mu += 0.67 * x[r]
            mu -= 0.5 * t
            np.exp(mu, out=mu)
            mu *= 0.5
            rng.standard_gamma(1.0 / 0.5, out=pi[r])
            pi[r] *= mu
    for r, m in tiles:
        y = y_buf[:m]
        if count:
            y[...] = rng.poisson(pi[r])
            s_y = np.log1p(y, out=s_buf[:m]) if visits else None
        else:
            eps = rng.normal(0.0, 0.5, (m, N_GRID))
            np.add(z1[r], 5.0, out=y)
            y += z2[r]
            y -= half_z1z2(r, m)
            y -= 2.0 * x[r]
            y -= 0.5 * t
            y += eps
            s_y = y
        if visits:
            log_pi = np.multiply(z1[r], cfg.gamma_z, out=pi[r])
            log_pi += alpha
            log_pi += np.multiply(z2[r], cfg.gamma_z, out=tmp[:m])
            log_pi += half_z1z2(r, m)
            log_pi += x[r]
            log_pi += np.multiply(s_y, cfg.phi_true, out=tmp[:m])
            np.exp(log_pi, out=log_pi)
            np.minimum(log_pi, 1.0, out=log_pi)
        write.outcome(r, x[r], z1[r], z2[r], y, s_y)
    if visits:
        for r, m in tiles:
            write.visit(r, rng.random((m, N_GRID), out=tmp[:m]) < pi[r])
        del pi, log_pi              # freed before the transformed covariates
        if transformed:
            for r, m in tiles:
                z2s = rng.normal(0.0, 0.1, (m, N_GRID))  # e, then z2 + e
                z2s += z2[r]
                write.transformed(r, np.subtract(z1[r], z2[r], out=half[:m]), z2s)
    return (x, z1, z2, *write.drawn.values()) if whole else None


_COV_NAMES = ("z1", "z2", "x", "z1s", "z2s")


def _panel_dataset(x, z1, z2, y, visit, *transformed) -> Dataset:
    """The dataset of :func:`_draw_panel`'s draws: covariates z1, z2, x and,
    where given, the transformed ``(z1s, z2s)``."""
    n = x.shape[0]
    rows = n * N_GRID
    pidx = np.repeat(np.arange(n, dtype=np.int32), N_GRID)
    start = np.tile(np.concatenate(([0.0], GRID_TIMES[:-1])), n)
    end = np.tile(GRID_TIMES, n)
    columns = (z1, z2, x, *transformed)
    cov = np.empty((rows, len(columns)), order="F")
    for j, values in enumerate(columns):
        cov[:, j].reshape(n, N_GRID)[...] = values      # x is broadcast
    v = visit.ravel()
    outcome = np.where(v, y.ravel(), np.nan)
    return Dataset(list(range(n)), pidx, start, end,
                   np.ones(rows, dtype=bool), v, outcome, cov,
                   _COV_NAMES[:len(columns)], tau=TAU, validate=False)


def _replicate(cfg: ScenarioConfig, rep: int, transformed: bool = True):
    """Replicate ``rep``'s draws and the observed dataset built from them,
    with the transformed covariates where ``transformed``."""
    draws = _draw_panel(cfg, substream(cfg.seed, rep), cfg.n, transformed)
    return draws, _panel_dataset(*draws)


def generate(cfg: ScenarioConfig, rep: int):
    """Generate replicate ``rep``: returns (observed, complete) datasets.

    The observed dataset keeps the outcome at visit rows only.  The
    complete companion marks every grid row as a visit with its outcome.
    Both come from the one draw of the replicate that :func:`run_study`
    uses; the study itself builds only the observed dataset and fits the
    complete-data estimator from per-(X, t) cell sums of the same draws.
    ``rep`` is an integer in [0, 2**32): the stream indices above are kept
    for :func:`limiting_phi` and :func:`complete_data_fit`.
    """
    _require_integers("generate", rep=rep)
    if not 0 <= rep < _LIMITING_STREAM_BASE:
        raise ValidationError(f"generate rep must be in [0, 2**32), got {rep!r}")
    (x, z1, z2, y, visit, *zs), observed = _replicate(cfg, rep)
    complete = _panel_dataset(x, z1, z2, y, np.ones_like(visit), *zs)
    return observed, complete


# -- limiting sensitivity value ---------------------------------------------


def _require_n_large(n_large) -> None:
    _require_integers("simulation", n_large=n_large)
    if n_large < 1:
        raise ValidationError("n_large must be at least 1")


class _TimeMajor:
    """The :func:`_draw_panel` writer of one block of the limiting design:
    it copies each tile, transposed and as float32, into the block's columns
    of the time-major ``design`` and ``visit`` flags (see
    :func:`_limiting_design`), the block's patient ``i`` into column
    ``lo + i``."""

    def __init__(self, design, visit, lo: int, correct_covariates: bool):
        self.design, self.visits, self.lo = design, visit, lo
        self.correct_covariates = correct_covariates

    def _columns(self, rows: slice) -> slice:
        return slice(self.lo + rows.start, self.lo + rows.stop)

    def _covariates(self, cols: slice, a, b) -> None:
        self.design[0, :, cols] = a.T
        self.design[1, :, cols] = b.T
        self.design[2, :, cols] = np.multiply(a, b).T

    def outcome(self, rows, x, z1, z2, y, s_y) -> None:
        cols = self._columns(rows)
        if self.correct_covariates:
            self._covariates(cols, z1, z2)
        self.design[3, :, cols] = x.T
        self.design[4, :, cols] = s_y.T

    def visit(self, rows, visit) -> None:
        self.visits[:, self._columns(rows)] = visit.T

    def transformed(self, rows, z1s, z2s) -> None:
        self._covariates(self._columns(rows), z1s, z2s)


def _limiting_design(cfg: ScenarioConfig, n_large: int,
                     correct_covariates: bool):
    """Covariate matrix (float32) and visit flags for the limiting fit.

    Rows: the scenario's weight covariates (transformed by default) and
    S(Y).  Column ``k * n_large + i`` is patient ``i`` at grid time ``k``,
    the pair order of :meth:`RiskStructure.grid`.  Patients are drawn in
    blocks of :data:`_DRAW_BLOCK`, block ``c`` from its own substream, so
    the draws are fixed by ``cfg`` and ``n_large``.  Each block's draws go
    into the design tile by tile (:class:`_TimeMajor`), so besides the
    design (20 bytes per grid row) a block holds three float64
    ``(_DRAW_BLOCK, N_GRID)`` arrays, z1, z2 and the visit probabilities,
    and a few tiles.
    """
    design = np.empty((5, N_GRID, n_large), dtype=np.float32)
    visit = np.empty((N_GRID, n_large), dtype=bool)
    for c, lo in enumerate(range(0, n_large, _DRAW_BLOCK)):
        rng = substream(cfg.seed, _LIMITING_STREAM_BASE + c)
        _draw_panel(cfg, rng, min(_DRAW_BLOCK, n_large - lo),
                    transformed=not correct_covariates,
                    write=_TimeMajor(design, visit, lo, correct_covariates))
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
    if not isinstance(correct_covariates, (bool, np.bool_)):
        raise ValidationError(f"correct_covariates must be a bool, got {correct_covariates!r}")
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
    :func:`run_study`), so memory holds one block's draws: z1, z2 and y,
    and for a count the Poisson rates, as the draw ends after the
    outcome.  Patients are
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
                min(_DRAW_BLOCK, n_large - lo), transformed=False,
                visits=False))

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
    fitting cores those functions call.  The structure is built in closed
    form from the visit grid (:meth:`RiskStructure.complete_grid`), as every
    simulated patient is at risk on every grid interval.  In the
    ``correctZ`` cells nothing reads the transformed covariates, so they
    are not drawn and the dataset carries z1, z2 and x only.
    """
    transformed = "z1s" in cfg.weight_covariates()
    (x, _, _, y, visit, *_), observed = _replicate(cfg, rep, transformed)
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
            rs = RiskStructure.complete_grid(GRID_TIMES, visit)
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
    replicate draws the panel of :func:`generate` once, without the
    transformed covariates in the ``correctZ`` cells, and builds only its
    observed dataset; the complete-data estimator is fit from per-(X, t)
    cell sums of the same draws, not from the complete companion.
    ``estimators`` is a non-empty sequence of distinct names from
    :data:`ESTIMATORS`, checked before anything is drawn.
    """
    if isinstance(estimators, str):
        raise ValidationError(f"estimators must be a sequence of names, "
                              f"got the string {estimators!r}")
    estimators = tuple(estimators)
    if not estimators:
        raise ValidationError("estimators must name at least one estimator")
    for e in estimators:
        if e not in ESTIMATORS:
            raise ValidationError(f"estimators: unknown estimator {e!r}")
    if len(set(estimators)) < len(estimators):
        raise ValidationError(f"estimators has duplicates: {estimators}")
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
                                    [estimators] * cfg.n_reps,
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
