"""The screened jackknife: the influences it ranks deletions by, the
standard errors it gives and the passes that refit every resample."""

import dataclasses

import numpy as np
import pytest

import oracles
from helpers import random_panel
from test_inference import PARITY_CONFIGS, STD_H, STD_X, STD_Z, parity_dataset
from irrvis import (AnalysisConfig, MarginalModelSpec, ModelMatrixSpec,
                    Resampling, ScenarioConfig,
                    analyze_once, bootstrap, generate, inference, jackknife, sweep)
from irrvis.inference import _Prepared, _ResampleStages, _influences, _schedules


NEGBIN = MarginalModelSpec(ModelMatrixSpec(["1", "z1", "t"]), link="log",
                           variance="negative_binomial", theta=0.5)
LOG_CONSTANT = MarginalModelSpec(ModelMatrixSpec(["1", "z1", "t"]), link="log")

# every non-standardized parity config, and the working variances and
# links it lacks, whose -du/dbeta is not the Fisher information
INFLUENCE_CONFIGS = {
    **{name: cfg for name, cfg in PARITY_CONFIGS.items() if "std" not in name},
    "none-negbin": AnalysisConfig(model=NEGBIN),
    "mle-log-constant": AnalysisConfig(model=LOG_CONSTANT, weight_kind="mle",
                                       zspec=ModelMatrixSpec(["z1", "z2"])),
    "balancing-negbin": AnalysisConfig(model=NEGBIN, weight_kind="balancing",
                                       zspec=ModelMatrixSpec(["z1"]),
                                       hspec=ModelMatrixSpec(["1", "z1", "t"])),
}


@pytest.mark.parametrize("phi", [0.0, 0.4])
@pytest.mark.parametrize("name", sorted(INFLUENCE_CONFIGS))
def test_influences_match_central_differences(name, phi):
    # a resample of fractional copies, started at the point fit, moves
    # beta by the analytic influence to first order: 2.4e-7 of the largest
    # influence at most on these configs
    ds = parity_dataset()
    cfg = INFLUENCE_CONFIGS[name]
    prepared = _Prepared(ds, cfg)
    point = analyze_once(ds, cfg, phi)
    start = None if point[1] is None else (point[1].visit_model.gamma,
                                           point[1].gamma)

    def beta(copies):
        return _ResampleStages(prepared, copies).analyze(phi, start)[0].beta

    n = ds.n_patients
    want = np.array([oracles.weight_derivative(beta, n, i) for i in range(n)])
    got, leverage = _influences(prepared, point, phi)
    scale = np.abs(want).max()
    assert np.all(np.abs(got - want) <= 1e-5 * scale)
    # every equation is homogeneous in the weights: scaling them all moves
    # no root, up to the solvers' tolerance (7.7e-9 of the scale seen)
    assert np.all(np.abs(got.sum(axis=0)) <= 1e-6 * scale)
    assert leverage.shape == (n,) and np.all(np.isfinite(leverage))


def test_leverage_is_the_marginal_fit_hat_trace_without_weights():
    # an unweighted identity-link fit is least squares: a patient's leverage
    # is the trace of its block of the hat matrix, and deleting it moves
    # beta by (I - X_i' X_i (X' X)^-1)^-1 times its linear term, exactly
    ds = parity_dataset()
    cfg = PARITY_CONFIGS["none"]
    prepared = _Prepared(ds, cfg)
    point = analyze_once(ds, cfg, 0.0)
    d, leverage = _influences(prepared, point, 0.0)
    x = prepared.x
    inverse = np.linalg.inv(x.T @ x)
    for i in range(ds.n_patients):
        own = x[prepared.visit_patient == i]
        assert leverage[i] == pytest.approx(np.trace(own @ inverse @ own.T),
                                            rel=1e-12, abs=1e-15)
        copies = (np.arange(ds.n_patients) != i).astype(np.int64)
        deleted = _ResampleStages(prepared, copies).analyze(0.0)[0].beta
        move = np.linalg.solve(np.eye(x.shape[1]) - inverse @ own.T @ own, d[i])
        assert np.allclose(point[0].beta - deleted, move, rtol=1e-9, atol=1e-12)


def bench_config(n, seed, grid=(0.0, 0.15, 0.3)):
    """The benchmark's panel and balancing sweep at ``n`` patients."""
    cell = ScenarioConfig(outcome="continuous", gamma_z=1.25, phi_true=0.3, n=n,
                          scenario="s3_SF_correctZ", seed=seed)
    cfg = AnalysisConfig(model=cell.marginal_model(), weight_kind="balancing",
                         zspec=ModelMatrixSpec(cell.weight_covariates()),
                         hspec=ModelMatrixSpec(cell.balance_terms()),
                         phi_grid=grid, resampling=Resampling("jackknife"))
    return generate(cell, 0)[0], cfg


def ses(result):
    return np.array([r["se"] for r in result.rows])


def per_phi(result, column):
    """``{phi: value}`` of a sweep column that is the same on every row of
    a phi, as the resample counts are."""
    out = {}
    for r in result.rows:
        assert out.setdefault(r["phi"], r[column]) == r[column]
    return out


@pytest.mark.parametrize("n, seed", [(100, s) for s in range(1, 7)] + [(200, 1)])
def test_screened_se_is_within_half_a_percent_of_the_exact(monkeypatch, n, seed):
    # n = 200, seed 1 holds a patient of small influence whose deletion is
    # 3-7 times its linear term; ranked by influence alone it is refitted
    # late or not at all, and the error reaches 1.6%
    ds, cfg = bench_config(n, seed)
    screened = sweep(ds, cfg)
    # the standalone jackknife ranks and refits as the sweep does at its phi
    alone = jackknife(ds, cfg, 0.15)
    assert np.array_equal(alone.se, [r["se"] for r in screened.rows
                                     if r["phi"] == 0.15])
    assert alone.n_exact == per_phi(screened, "n_exact")[0.15]
    monkeypatch.setattr(inference, "_STOP_SHARE", 0.0)
    exact = sweep(ds, cfg)
    for column, want in (("n_used", n), ("n_failed", 0)):
        assert per_phi(screened, column) == per_phi(exact, column) == dict.fromkeys(
            cfg.phi_grid, want)
    assert all(k < n for k in per_phi(screened, "n_exact").values())
    assert per_phi(exact, "n_exact") == dict.fromkeys(cfg.phi_grid, n)
    assert np.all(np.abs(ses(screened) / ses(exact) - 1.0) < 0.005)


def test_every_deletion_refitted_is_the_full_jackknife(monkeypatch):
    # a stopping share of 0 refits every deletion, in rounds; that gives
    # the standard errors of a loop over the deletions in patient order,
    # each started at the point fit, bit for bit
    ds, cfg = bench_config(60, 1, grid=(0.0, 0.3))
    n = ds.n_patients
    monkeypatch.setattr(inference, "_STOP_SHARE", 0.0)
    rounds = sweep(ds, cfg)
    assert per_phi(rounds, "n_exact") == dict.fromkeys(cfg.phi_grid, n)
    prepared = _Prepared(ds, cfg)
    for phi in cfg.phi_grid:
        point = analyze_once(ds, cfg, phi)
        start = (point[1].visit_model.gamma, point[1].gamma)
        est = np.asarray([
            _ResampleStages(prepared, (np.arange(n) != k).astype(np.int64))
            .analyze(phi, start)[0].beta for k in range(n)])
        dev = est - est.mean(axis=0)
        want = np.sqrt((n - 1) / n * (dev * dev).sum(axis=0))
        assert np.array_equal([r["se"] for r in rounds.rows if r["phi"] == phi], want)


def test_screening_goes_past_the_second_round_on_a_count_cell():
    # on the benchmark's continuous cell every screened sweep stops after
    # two rounds, 32 + 16 refits; this count panel with inverse-intensity
    # weights stops there at phi 0 and takes a third round at phi 0.3
    cell = ScenarioConfig(outcome="count", gamma_z=1.25, phi_true=0.3, n=100,
                          scenario="s3_SF_correctZ", seed=2)
    ds = generate(cell, 0)[0]
    cfg = AnalysisConfig(model=cell.marginal_model(), weight_kind="mle",
                         zspec=ModelMatrixSpec(cell.weight_covariates()),
                         selection=cell.selection(), phi_grid=(0.0, 0.3),
                         resampling=Resampling("jackknife"))
    result = sweep(ds, cfg)
    assert per_phi(result, "n_exact") == {0.0: 48, 0.3: 64}
    assert per_phi(result, "n_used") == {0.0: 100, 0.3: 100}
    alone = jackknife(ds, cfg, 0.3)
    assert alone.n_exact == 64
    assert np.array_equal(alone.se, [r["se"] for r in result.rows if r["phi"] == 0.3])


FULL_PASS_CONFIGS = {
    "none-std": AnalysisConfig(model=STD_X),
    "mle-std": AnalysisConfig(model=STD_X, weight_kind="mle", zspec=STD_Z),
    "balancing-std": AnalysisConfig(model=STD_X, weight_kind="balancing",
                                    zspec=STD_Z, hspec=STD_H),
}


def wide_panel():
    """Forty patients: more than the first round of a screened jackknife."""
    ds = random_panel(11, n_patients=40, n_periods=6, p_visit=0.5, n_cov=2)
    assert ds.n_patients > inference._FIRST_REFITS
    return ds


@pytest.mark.parametrize("name", sorted(FULL_PASS_CONFIGS))
def test_standardized_specs_take_the_full_pass(name):
    ds = wide_panel()
    cfg = FULL_PASS_CONFIGS[name]
    point = analyze_once(ds, cfg, 0.2)
    schedule = _schedules(_Prepared(ds, cfg), {0.2: point}, ds.n_patients, True)[0.2]
    assert schedule.linear is None
    got = jackknife(ds, cfg, 0.2)
    assert got.n_exact == got.n_used == ds.n_patients - got.n_failed


def test_bootstrap_takes_the_full_pass():
    ds = wide_panel()
    cfg = PARITY_CONFIGS["mle"]
    prepared = _Prepared(ds, cfg)
    points = {0.2: analyze_once(ds, cfg, 0.2)}
    # the same panel and config are screened as a jackknife
    assert _schedules(prepared, points, ds.n_patients, True)[0.2].linear is not None
    assert _schedules(prepared, points, 50, False)[0.2].linear is None
    got = bootstrap(ds, cfg, 0.2, b=50, seed=3)
    assert got.n_exact == got.n_used == 50 - got.n_failed


def test_non_finite_influences_take_the_full_pass(monkeypatch):
    ds = wide_panel()
    cfg = PARITY_CONFIGS["balancing"]
    prepared = _Prepared(ds, cfg)
    points = {phi: analyze_once(ds, cfg, phi) for phi in (0.0, 0.2)}
    influences = inference._influences

    def blown(prepared, point, phi):
        d, leverage = influences(prepared, point, phi)
        if phi == 0.0:
            d[3, 0] = np.nan
        return d, leverage

    monkeypatch.setattr(inference, "_influences", blown)
    schedules = _schedules(prepared, points, ds.n_patients, True)
    assert schedules[0.0].linear is None
    assert schedules[0.2].linear is not None
