import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from irrvis import (MetricsTable, RankDeficiencyError, ScenarioConfig,
                    ValidationError, complete_data_fit, fit_weighted_gee,
                    generate, limiting_phi, run_study)
from irrvis.simlab import (GRID_TIMES, TAU, TRUE_BETA, _run_replicate,
                           _weight_phi)


def cont_cfg(**kw):
    base = dict(outcome="continuous", gamma_z=0.5, phi_true=0.0, n=100,
                scenario="s1_noSF_correctZ", n_reps=2, seed=0)
    base.update(kw)
    return ScenarioConfig(**base)


def test_grid_times():
    assert GRID_TIMES.shape == (500,)
    assert GRID_TIMES[0] == 0.01
    assert GRID_TIMES[-1] == 5.0
    assert np.allclose(np.diff(GRID_TIMES), 0.01, atol=1e-12)
    assert TAU == GRID_TIMES[-1]


def test_config_validation():
    with pytest.raises(ValidationError, match="continuous or count"):
        cont_cfg(outcome="binary")
    with pytest.raises(ValidationError, match="scenario must be one of"):
        cont_cfg(scenario="s5")
    with pytest.raises(ValidationError, match="n must be at least 2"):
        cont_cfg(n=1)
    with pytest.raises(ValidationError, match="n_reps"):
        cont_cfg(n_reps=0)
    with pytest.raises(ValidationError, match="seed"):
        cont_cfg(seed=-1)
    for key in ("gamma_z", "phi_true"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValidationError, match=f"{key} must be finite"):
                cont_cfg(**{key: value})


def test_config_derived_specs():
    c = cont_cfg()
    assert c.selection().transform == "identity"
    assert cont_cfg(outcome="count").selection().transform == "log1p"
    assert c.weight_covariates() == ["z1", "z2", "z1*z2", "x"]
    noisy = cont_cfg(scenario="s2_noSF_transformedZ").weight_covariates()
    assert noisy == ["z1s", "z2s", "z1s*z2s", "x"]
    terms = c.balance_terms()
    assert terms[0] == "1"
    assert "t" in terms and "t*z1*z2" in terms
    assert len(terms) == 10
    m = c.marginal_model()
    assert tuple(m.xspec.names) == ("1", "x", "t")
    assert (m.link, m.variance) == ("identity", "constant")
    mc = cont_cfg(outcome="count").marginal_model()
    assert (mc.link, mc.variance) == ("log", "poisson")


def test_weight_phi_by_scenario():
    assert _weight_phi(cont_cfg(phi_true=0.3, scenario="s1_noSF_correctZ")) == 0.0
    assert _weight_phi(cont_cfg(phi_true=0.3, scenario="s2_noSF_transformedZ")) == 0.0
    assert _weight_phi(cont_cfg(phi_true=0.3, scenario="s3_SF_correctZ")) == 0.3


def test_generate_is_keyed_by_replicate():
    cfg = cont_cfg(n=20)
    obs_a, comp_a = generate(cfg, 3)
    obs_b, comp_b = generate(cfg, 3)
    obs_c, _ = generate(cfg, 4)
    assert np.array_equal(obs_a.outcome, obs_b.outcome, equal_nan=True)
    assert np.array_equal(comp_a.outcome, comp_b.outcome)
    assert not np.array_equal(obs_a.visit, obs_c.visit)


def test_generated_panel_structure():
    cfg = cont_cfg(n=25)
    observed, complete = generate(cfg, 0)
    assert observed.n_patients == 25
    assert observed.tau == 5.0
    assert len(observed.end) == 25 * 500
    assert np.array_equal(observed.end[:500], GRID_TIMES)
    assert np.array_equal(observed.covariates, complete.covariates)
    assert observed.at_risk.all()
    assert complete.visit.all()
    assert np.isfinite(complete.outcome).all()
    # outcomes exist exactly at visit rows
    assert np.isfinite(observed.outcome[observed.visit]).all()
    assert np.isnan(observed.outcome[~observed.visit]).all()
    # and agree with the complete panel there
    assert np.array_equal(observed.outcome[observed.visit],
                          complete.outcome[observed.visit])
    x = observed.covariate_column("x")
    assert set(np.unique(x)) <= {0.0, 1.0}
    assert np.all(np.ptp(x.reshape(25, 500), axis=1) == 0.0)
    z1 = observed.covariate_column("z1")
    z2 = observed.covariate_column("z2")
    assert np.array_equal(observed.covariate_column("z1s"), z1 - z2)


def test_continuous_outcome_structure():
    cfg = cont_cfg(n=400, seed=5)
    _, complete = generate(cfg, 0)
    z1 = complete.covariate_column("z1")
    z2 = complete.covariate_column("z2")
    x = complete.covariate_column("x")
    t = complete.end
    formula = 5.0 + z1 + z2 - 0.5 * z1 * z2 - 2.0 * x - 0.5 * t
    eps = complete.outcome - formula
    assert abs(eps.mean()) < 0.005
    assert abs(eps.std() - 0.5) < 0.005
    assert stats.kstest(eps, "norm", args=(0.0, 0.5)).pvalue > 1e-4


def test_count_outcome_marginal_distribution():
    cfg = cont_cfg(outcome="count", n=300, seed=4)
    _, complete = generate(cfg, 0)
    z1 = complete.covariate_column("z1")
    z2 = complete.covariate_column("z2")
    x = complete.covariate_column("x")
    mu = np.exp(1.69 + z1 + z2 - 0.5 * z1 * z2 + 0.67 * x - 0.5 * complete.end)
    y = complete.outcome
    assert np.all(y >= 0) and np.all(y == np.floor(y))
    # gamma-mixed poisson: negative binomial, size 2, mean mu
    p = 1.0 / (1.0 + 0.5 * mu)
    v = np.random.default_rng(99).random(y.size)
    pit = stats.nbinom.cdf(y - 1, 2, p) + v * stats.nbinom.pmf(y, 2, p)
    assert stats.kstest(pit, "uniform").pvalue > 1e-4


def test_count_truth_is_the_generators_marginal_law():
    # E[Y | x, t] = E_z exp(1.69 + z1 + z2 - z1 z2 / 2 + 0.67 x - 0.5 t) with
    # z ~ N(-x, I), by 2-D Gauss-Hermite quadrature; the marginal mean is
    # log-linear in binary x and in t, so two differences give the truth
    u, w = np.polynomial.hermite_e.hermegauss(40)
    w = w / np.sqrt(2.0 * np.pi)

    def log_mean(x, t):
        z1, z2 = -x + u[:, None], -x + u[None, :]
        mu = np.exp(1.69 + z1 + z2 - 0.5 * z1 * z2 + 0.67 * x - 0.5 * t)
        return np.log(w @ mu @ w)

    beta_x = log_mean(1.0, 2.0) - log_mean(0.0, 2.0)
    beta_t = (log_mean(1.0, 3.0) - log_mean(1.0, 1.0)) / 2.0
    assert TRUE_BETA["count"] == pytest.approx((beta_x, beta_t), rel=1e-12)


def test_first_interval_visit_rate_matches_formula():
    cfg = cont_cfg(n=4000, seed=7)
    observed, _ = generate(cfg, 0)
    first = observed.end == GRID_TIMES[0]
    rate = observed.visit[first].mean()
    rng = np.random.default_rng(123)
    m = 200_000
    x = (rng.random(m) < 0.5).astype(float)
    z1 = rng.normal(-x, 1.0)
    z2 = rng.normal(-x, 1.0)
    pi = np.minimum(1.0, np.exp(-3.05 - 2.0 * 0.01 + 0.5 * z1 + 0.5 * z2
                                + 0.5 * z1 * z2 + x))
    se = np.sqrt(rate * (1 - rate) / 4000 + pi.var() / m)
    assert abs(rate - pi.mean()) < 3.5 * se
    assert 0.05 < rate < 0.10


def test_limiting_fit_matches_general_engine():
    from irrvis import Dataset, ModelMatrixSpec, cox, fit_cox
    from irrvis.simlab import _limiting_design

    cfg = cont_cfg(phi_true=0.3, scenario="s3_SF_correctZ", seed=1, n=400)
    # n = 20 leaves most grid times without a visit.  The block sizes put
    # many events in a range, one event in a range (400), and split an
    # event into pieces (97 and 7 at n = 400, 7 at n = 20)
    for n, min_empty in ((400, 0), (20, 250)):
        design, visit = _limiting_design(cfg, n, correct_covariates=True)
        assert int(np.sum(visit.reshape(500, n).sum(axis=1) == 0)) >= min_empty
        # the same draws patient-major, as a general dataset
        cov = design.reshape(5, 500, n).transpose(2, 1, 0).reshape(-1, 5)
        flags = visit.reshape(500, n).T.ravel()
        ds = Dataset(list(range(n)), np.repeat(np.arange(n, dtype=np.int32), 500),
                     np.tile(np.concatenate(([0.0], GRID_TIMES[:-1])), n),
                     np.tile(GRID_TIMES, n), np.ones(flags.size, dtype=bool), flags,
                     np.where(flags, 0.0, np.nan), cov.astype(np.float64),
                     ("a", "b", "ab", "x", "sy"), tau=TAU, validate=False)
        ref = fit_cox(ds, ModelMatrixSpec(["a", "b", "ab", "x", "sy"]))
        for block in (1 << 15, 3500, 1501, 400, 97, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cox, "_BLOCK_PAIRS", block)
                phi = limiting_phi(cfg, n, correct_covariates=True)
            assert np.isclose(phi, ref.gamma[-1], rtol=0.0, atol=1e-10)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(8, 40))
def test_limiting_fit_is_independent_of_patient_chunk(seed, n):
    # the limiting fit sums over blocks of incidence pairs rather than
    # chunks of patients: the fit is the same at every block size (pieces
    # of one grid time, about one grid time, many grid times) and repeats
    # exactly at one
    from irrvis import cox

    cfg = cont_cfg(gamma_z=1.25, phi_true=0.3, scenario="s4_SF_transformedZ",
                   seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cox, "_BLOCK_PAIRS", 500 * n)
        whole = limiting_phi(cfg, n)
        for block in (7, n - 1, 64 * n + 3):
            mp.setattr(cox, "_BLOCK_PAIRS", block)
            phi = limiting_phi(cfg, n)
            assert abs(phi - whole) <= 1e-12 * max(abs(whole), 1.0)
            assert limiting_phi(cfg, n) == phi


def test_limiting_phi_deterministic_and_near_truth():
    # the probability cap binds at moderate covariates, attenuating the
    # fitted outcome coefficient a little below the generating value
    cfg = cont_cfg(phi_true=0.3, scenario="s3_SF_correctZ", seed=1)
    est = limiting_phi(cfg, n_large=8000, correct_covariates=True)
    assert abs(est - 0.3) < 0.12
    assert limiting_phi(cfg, n_large=8000, correct_covariates=True) == est


def test_run_study_is_thread_invariant():
    cfg = cont_cfg(n=120, n_reps=4, seed=2)
    one = run_study(cfg, threads=1)
    two = run_study(cfg, threads=2)
    for name in one.estimates:
        assert np.array_equal(one.estimates[name], two.estimates[name],
                              equal_nan=True)
    assert one.rows == two.rows
    assert all(v == 0 for v in one.n_failed.values())
    assert one.max_balance_residual is not None
    assert one.max_balance_residual < 1e-6


def test_run_study_metric_identities():
    cfg = cont_cfg(n=100, n_reps=3, seed=8)
    table = run_study(cfg, threads=1, estimators=("naive", "complete"))
    truth = {"beta1": -4.5, "beta2": -0.5}
    col = {"beta1": 0, "beta2": 1}
    for row in table.rows:
        vals = table.estimates[row["estimator"]][:, col[row["parameter"]]]
        bias = vals.mean() - truth[row["parameter"]]
        sd = vals.std(ddof=1)
        assert row["bias"] == pytest.approx(bias, rel=1e-12)
        assert row["sd"] == pytest.approx(sd, rel=1e-12)
        # population mean square identity over converged replicates
        want = np.sqrt(bias ** 2 + sd ** 2 * (len(vals) - 1) / len(vals))
        assert row["rmse"] == pytest.approx(want, rel=1e-12)
        assert row["mc_se_bias"] == pytest.approx(sd / np.sqrt(len(vals)),
                                                  rel=1e-12)
    assert [r["estimator"] for r in table.rows] == ["naive"] * 2 + ["complete"] * 2
    assert table.max_balance_residual is None


def test_run_study_validation(monkeypatch):
    cfg = cont_cfg(n=10, n_reps=1)
    with pytest.raises(ValidationError, match="unknown estimator"):
        run_study(cfg, threads=1, estimators=("naive", "oracle"))
    with pytest.raises(ValidationError, match="at least 1"):
        run_study(cfg, threads=0)
    monkeypatch.setenv("IRRVIS_THREADS", "two")
    with pytest.raises(ValidationError, match="IRRVIS_THREADS"):
        run_study(cfg, threads=None)


def test_metrics_csv_golden(tmp_path):
    cfg = cont_cfg(n=60, n_reps=2, seed=3)
    table = run_study(cfg, threads=1, estimators=("naive",))
    path = tmp_path / "metrics.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "estimator,parameter,bias,sd,rmse,mc_se_bias,n_failed"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "naive" and first[1] == "beta1"
    assert float(first[2]) == table.rows[0]["bias"]
    assert first[6] == "0"


def test_complete_data_fit_deterministic_and_near_truth():
    cfg = cont_cfg(seed=0)
    beta = complete_data_fit(cfg, n_large=20000)
    again = complete_data_fit(cfg, n_large=20000)
    assert np.array_equal(beta, again)
    assert beta[0] == pytest.approx(5.0, abs=0.05)
    assert beta[1] == pytest.approx(-4.5, abs=0.05)
    assert beta[2] == pytest.approx(-0.5, abs=0.01)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("outcome", ["count", "continuous"])
def test_complete_data_fit_with_an_empty_arm_is_rank_deficient(outcome):
    # one patient leaves an arm empty: its cells are dropped, not divided
    # by zero, and the design (1, x, t) loses its rank
    cfg = cont_cfg(outcome=outcome, seed=1)
    with pytest.raises(RankDeficiencyError, match="rank deficient"):
        complete_data_fit(cfg, n_large=1)


@pytest.mark.parametrize("outcome, n, seed", [("count", 150, 3),
                                              ("continuous", 120, 4)])
def test_replicate_cell_fit_equals_row_fit(outcome, n, seed):
    cfg = cont_cfg(outcome=outcome, n=n, seed=seed)
    for rep in range(2):
        est, _ = _run_replicate(cfg, rep, 0.0, ("complete",))
        row = fit_weighted_gee(generate(cfg, rep)[1], cfg.marginal_model())
        np.testing.assert_allclose(est["complete"], row.beta[1:],
                                   rtol=1e-12, atol=0.0)


def test_complete_estimator_fails_where_an_arm_is_empty():
    # both patients share one arm in replicates 2 (x = 1) and 3 (x = 0)
    cfg = cont_cfg(outcome="count", n=2, n_reps=4, seed=1)
    arms = [set(generate(cfg, r)[0].covariate_column("x")) for r in range(4)]
    assert arms == [{0.0, 1.0}, {0.0, 1.0}, {1.0}, {0.0}]
    for rep in (2, 3):
        with pytest.raises(RankDeficiencyError):
            fit_weighted_gee(generate(cfg, rep)[1], cfg.marginal_model())
    with pytest.warns(UserWarning, match="2 of 4 replicates failed"):
        table = run_study(cfg, threads=1, estimators=("complete",))
    assert table.n_failed["complete"] == 2
    assert np.isnan(table.estimates["complete"][2:]).all()
    assert np.isfinite(table.estimates["complete"][:2]).all()
