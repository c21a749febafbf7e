"""End-to-end acceptance gates.

Each test prints one ``criterion k: PASS/FAIL`` line (visible under
``pytest -s``) before asserting, so a full run gives a ten-line scorecard.
The replicated studies are module-scoped fixtures shared across criteria;
everything runs single-threaded and is exactly reproducible.
"""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from helpers import build_design, random_panel
from irrvis import (Dataset, MarginalModelSpec, ModelMatrixSpec, QValues,
                    ScenarioConfig, complete_data_fit, fit_cox,
                    fit_weighted_gee, implicit_r2, phi_from_target, calibrate,
                    q_values, run_study)
from irrvis.cox import breslow_increments
from irrvis.simlab import GRID_TIMES, TAU, _replicate
from irrvis.weights import _BalanceReport


def check(criterion, gates):
    """gates: list of (label, ok, detail); prints the scorecard line."""
    ok = all(g[1] for g in gates)
    detail = ", ".join(f"{label}={text}" for label, _, text in gates)
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def metric(table, estimator, parameter, field):
    for row in table.rows:
        if row["estimator"] == estimator and row["parameter"] == parameter:
            return row[field]
    raise KeyError((estimator, parameter))


@pytest.fixture(scope="module")
def study_strong_dependence():
    cfg = ScenarioConfig("continuous", 1.25, 0.0, 200, "s1_noSF_correctZ",
                         n_reps=200, seed=0)
    return run_study(cfg, threads=1, estimators=("naive", "mle", "balancing"))


@pytest.fixture(scope="module")
def study_informative_visits():
    cfg = ScenarioConfig("continuous", 1.25, 0.3, 200, "s3_SF_correctZ",
                         n_reps=200, seed=0)
    return run_study(cfg, threads=1, estimators=("balancing",))


@pytest.fixture(scope="module")
def study_moderate_dependence():
    cfg = ScenarioConfig("continuous", 0.5, 0.0, 200, "s1_noSF_correctZ",
                         n_reps=200, seed=0)
    return run_study(cfg, threads=1, estimators=("balancing",))


def test_criterion_01_strong_dependence_cell(study_strong_dependence):
    t = study_strong_dependence
    naive_bias = metric(t, "naive", "beta1", "bias")
    mle_rmse = metric(t, "mle", "beta1", "rmse")
    bal_rmse = metric(t, "balancing", "beta1", "rmse")
    bal_bias2 = metric(t, "balancing", "beta2", "bias")
    check(1, [
        ("naive_bias_b1", abs(naive_bias - 0.99) <= 0.10, f"{naive_bias:.3f}"),
        ("mle_rmse_b1", 1.4 <= mle_rmse <= 2.7, f"{mle_rmse:.3f}"),
        ("bal_rmse_b1", 0.30 <= bal_rmse <= 0.55, f"{bal_rmse:.3f}"),
        ("bal_bias_b2", abs(bal_bias2) <= 0.03, f"{bal_bias2:.4f}"),
    ])


def test_criterion_02_informative_visits_cell(study_informative_visits):
    t = study_informative_visits
    bias2 = metric(t, "balancing", "beta2", "bias")
    rmse2 = metric(t, "balancing", "beta2", "rmse")
    check(2, [
        ("bal_bias_b2", abs(bias2) <= 0.04, f"{bias2:.4f}"),
        ("bal_rmse_b2", 0.06 <= rmse2 <= 0.13, f"{rmse2:.3f}"),
    ])


def test_criterion_03_moderate_dependence_cell(study_moderate_dependence):
    rmse1 = metric(study_moderate_dependence, "balancing", "beta1", "rmse")
    check(3, [("bal_rmse_b1", 0.13 <= rmse1 <= 0.25, f"{rmse1:.3f}")])


def test_criterion_04_balance_residual_contract(study_strong_dependence,
                                                study_informative_visits,
                                                study_moderate_dependence):
    tables = (study_strong_dependence, study_informative_visits,
              study_moderate_dependence)
    worst = max(t.max_balance_residual for t in tables)
    failed = sum(t.n_failed["balancing"] for t in tables)
    check(4, [
        ("max_residual", worst <= 1e-8, f"{worst:.2e}"),
        ("failed_solves", failed == 0, str(failed)),
    ])


@pytest.mark.filterwarnings("error::RuntimeWarning:irrvis.cox")
def test_criterion_05_true_weights_satisfy_balance():
    # The generator visits with probability min(1, exp(lp)), where
    # lp = alpha(t) + gamma'Z + phi*y and alpha(t) = -3.05 - 2t.  Under that
    # cap the factor with E[Q dN | Z] = exp(alpha(t) + gamma'Z), row by row,
    # is Q* = max(exp(-phi*y), exp(alpha(t) + gamma'Z)): the model's
    # exp(-phi*y) where the cap does not bind, exp(alpha(t) + gamma'Z) where
    # it does.  The generating weights exp(-gamma'Z) * Q* equal
    # exp(alpha(t)) / min(1, exp(lp)).  The visit model and the Breslow
    # baseline are fitted with the same Q*, so the residual means are zero.
    cfg = ScenarioConfig("continuous", 1.25, 0.3, 500, "s3_SF_correctZ",
                         n_reps=500, seed=0)
    zspec = ModelMatrixSpec(cfg.weight_covariates())
    hspec = ModelMatrixSpec(cfg.balance_terms())
    sel = cfg.selection()
    gamma_true = np.array([1.25, 1.25, 0.5, 1.0])
    sums = np.zeros((2, len(cfg.balance_terms())))
    sq = np.zeros_like(sums)
    # each replicate is generate's observed dataset, drawn without the
    # transformed covariates and the complete companion, which nothing here
    # reads; one balance report serves both baselines, as balance_report
    # would give for each
    for rep in range(cfg.n_reps):
        observed = _replicate(cfg, rep, False)[1]
        q = q_values(observed, sel, cfg.phi_true)
        vis = observed.visit_row_indices()
        z1 = observed.covariate_column("z1")[vis]
        z2 = observed.covariate_column("z2")[vis]
        x = observed.covariate_column("x")[vis]
        lin = np.column_stack([z1, z2, z1 * z2, x]) @ gamma_true
        alpha = -3.05 - 2.0 * observed.end[vis]
        q_star = QValues(phi=q.phi,
                         values=np.maximum(q.values, np.exp(alpha + lin)))
        cox = fit_cox(observed, zspec, q_star)
        w_true = np.exp(-lin) * q_star.values
        pinned = dataclasses.replace(cox, gamma=gamma_true)
        report = _BalanceReport(observed, hspec)
        for row_i, breslow in enumerate(
                (cox, breslow_increments(pinned, observed, q_star))):
            r = np.array([row["residual"] for row in report.rows(w_true, breslow)])
            sums[row_i] += r
            sq[row_i] += r * r
    n = cfg.n_reps
    mean = sums / n
    se = np.sqrt((sq - n * mean ** 2) / (n - 1) / n)
    ratio = np.abs(mean) / se
    check(5, [
        ("max_abs_mean_over_se", float(ratio[0].max()) <= 3.0,
         f"{float(ratio[0].max()):.2f}"),
        ("at_generating_coefficients", float(ratio[1].max()) <= 3.0,
         f"{float(ratio[1].max()):.2f}"),
    ])


def test_criterion_06_visit_model_matches_direct_maximizer():
    matched = 0
    worst = 0.0
    seed = 1000
    while matched < 50:
        seed += 1
        rng = np.random.default_rng(seed)
        n_pat = int(rng.integers(3, 7))
        n_cov = int(rng.integers(1, 3))
        ds = random_panel(seed, n_patients=n_pat, n_periods=4, p_visit=0.5,
                          n_cov=n_cov)
        qv = rng.uniform(0.5, 2.0, int(ds.visit.sum()))
        names = [f"z{j + 1}" for j in range(n_cov)]
        try:
            direct = oracles.cox_fit(ds, names, q=qv)
        except Exception:
            continue
        if np.max(np.abs(direct)) > 6.0:
            continue  # near-separated draw, neither side is well posed
        try:
            fit = fit_cox(ds, ModelMatrixSpec(names),
                          QValues(phi=0.0, values=qv))
        except Exception:
            continue
        worst = max(worst, float(np.max(np.abs(fit.gamma - direct))))
        matched += 1
    check(6, [("max_coef_diff_50_fits", worst <= 1e-6, f"{worst:.2e}")])


def test_criterion_07_marginal_fit_matches_closed_forms():
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(4000 + i)
        n_cov = 1 + i % 2
        ds = random_panel(2000 + i, n_patients=6 + i % 4, n_periods=4,
                          n_cov=n_cov)
        w = rng.uniform(0.2, 3.0, int(ds.visit.sum()))
        terms = ["1"] + [f"z{j + 1}" for j in range(n_cov)] + ["t"]
        model = MarginalModelSpec(ModelMatrixSpec(terms))
        fit = fit_weighted_gee(ds, model, weights=w)
        x, _ = build_design(ds, model.xspec, subset="visits")
        y = ds.outcome[ds.visit_row_indices()]
        worst = max(worst, float(np.max(np.abs(fit.beta - oracles.wls(x, y, w)))))
    log_worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(5000 + i)
        ds = random_panel(3000 + i, n_patients=6, n_periods=4,
                          outcome_shift=6.0)
        w = rng.uniform(0.2, 3.0, int(ds.visit.sum()))
        model = MarginalModelSpec(ModelMatrixSpec(["1"]), link="log",
                                  variance="poisson")
        fit = fit_weighted_gee(ds, model, weights=w)
        y = ds.outcome[ds.visit_row_indices()]
        want = math.log(float(np.sum(w * y) / np.sum(w)))
        log_worst = max(log_worst, abs(float(fit.beta[0]) - want))
    check(7, [
        ("wls_max_diff", worst <= 1e-10, f"{worst:.2e}"),
        ("log_mean_max_diff", log_worst <= 1e-10, f"{log_worst:.2e}"),
    ])


def no_signal_panel(n, seed):
    """Visits Bernoulli(exp(-3.05 - 2t)) on the fine grid; covariates and
    outcomes are pure noise."""
    rng = np.random.default_rng(seed)
    k = GRID_TIMES.size
    pi = np.exp(-3.05 - 2.0 * GRID_TIMES)
    visit = rng.random((n, k)) < pi[None, :]
    z1 = rng.normal(size=(n, k))
    z2 = rng.normal(size=(n, k))
    y = rng.normal(size=(n, k))
    rows = n * k
    cov = np.column_stack([z1.ravel(), z2.ravel()])
    return Dataset(list(range(n)),
                   np.repeat(np.arange(n, dtype=np.int32), k),
                   np.tile(np.concatenate(([0.0], GRID_TIMES[:-1])), n),
                   np.tile(GRID_TIMES, n), np.ones(rows, dtype=bool),
                   visit.ravel(), np.where(visit.ravel(), y.ravel(), np.nan),
                   cov, ("z1", "z2"), tau=TAU, validate=False)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_08_calibration_consistency():
    phi = phi_from_target(0.0315, 1.51, 0.349)
    exact_half = implicit_r2(math.pi ** 2 / 3.0)
    res = calibrate(no_signal_panel(1500, 42), ModelMatrixSpec(["z1", "z2"]),
                    "identity")
    check(8, [
        ("phi_from_target", abs(phi - 1.132) <= 0.005, f"{phi:.4f}"),
        ("implicit_r2_logistic_var", exact_half == 0.5, repr(exact_half)),
        ("no_signal_phi_abs", res.phi_abs < 0.1, f"{res.phi_abs:.4f}"),
    ])


def test_criterion_09_marginal_truth_recovery():
    cont = complete_data_fit(
        ScenarioConfig("continuous", 0.5, 0.0, 100, "s1_noSF_correctZ",
                       n_reps=1, seed=0), n_large=100_000)
    cnt = complete_data_fit(
        ScenarioConfig("count", 0.5, 0.0, 100, "s1_noSF_correctZ",
                       n_reps=1, seed=0), n_large=100_000)
    check(9, [
        ("continuous_b1", abs(cont[1] + 4.5) <= 0.02, f"{cont[1]:.4f}"),
        ("continuous_b2", abs(cont[2] + 0.5) <= 0.01, f"{cont[2]:.4f}"),
        ("count_b1", abs(cnt[1] + 1.0) <= 0.04, f"{cnt[1]:.4f}"),
        ("count_b2", abs(cnt[2] + 0.5) <= 0.02, f"{cnt[2]:.4f}"),
    ])


def test_criterion_10_simulation_determinism(tmp_path):
    import yaml

    from irrvis.cli import main

    cfg_path = tmp_path / "sim.yaml"
    with open(cfg_path, "w") as fh:
        yaml.safe_dump({
            "seed": 11,
            "simulate": {"outcome": "continuous", "gamma_z": 0.5,
                         "phi_true": 0.0, "n": 50,
                         "scenario": "s1_noSF_correctZ", "n_reps": 3},
        }, fh)
    outs = []
    for tag, threads in (("a", "1"), ("b", "2"), ("c", "2")):
        out = tmp_path / tag
        code = main(["simulate", "--config", str(cfg_path),
                     "--output", str(out), "--threads", threads])
        assert code == 0
        outs.append((out / "metrics.csv").read_bytes())
    check(10, [
        ("threads_1_vs_2", outs[0] == outs[1], "byte-identical"),
        ("rerun", outs[1] == outs[2], "byte-identical"),
    ])
