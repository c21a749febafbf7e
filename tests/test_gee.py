import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import build_design, grid_rows, random_panel
from irrvis import (Dataset, CountingProcessRow, MarginalModelSpec,
                    ModelMatrixSpec, NumericError, RankDeficiencyError,
                    ValidationError, estimate_dispersion, fit_weighted_gee)
from irrvis._newton import TOL


def outcome_panel(values, cov=None):
    """One patient per outcome, each visiting once at t=1."""
    rows = []
    for i, y in enumerate(values):
        c = cov[i] if cov is not None else {"z": 0.0}
        rows += grid_rows(f"p{i}", c, {1: y}, n_periods=1)
    return Dataset.from_rows(rows, tau=1.0)


def identity_model(terms=("1",)):
    return MarginalModelSpec(ModelMatrixSpec(list(terms)))


# -- spec validation ---------------------------------------------------------


def test_model_spec_validation():
    xspec = ModelMatrixSpec(["1"])
    with pytest.raises(ValidationError, match="link must be one of"):
        MarginalModelSpec(xspec, link="probit")
    with pytest.raises(ValidationError, match="variance must be one of"):
        MarginalModelSpec(xspec, variance="gamma")
    with pytest.raises(ValidationError):
        MarginalModelSpec(xspec, link="log", variance="negative_binomial")
    with pytest.raises(ValidationError, match="theta only applies"):
        MarginalModelSpec(xspec, link="log", variance="poisson", theta=0.5)
    with pytest.raises(ValidationError):
        MarginalModelSpec(xspec, link="log", variance="negative_binomial",
                          theta=-1.0)


@pytest.mark.parametrize("theta", ["1", True, float("nan"), float("inf"), -0.5])
def test_model_spec_rejects_a_bad_dispersion(theta):
    with pytest.raises(ValidationError, match="finite dispersion theta >= 0"):
        MarginalModelSpec(ModelMatrixSpec(["1"]), link="log",
                          variance="negative_binomial", theta=theta)


@pytest.mark.parametrize("theta", [0, 0.5, np.float32(2.0), np.int64(1)])
def test_model_spec_accepts_a_real_dispersion(theta):
    spec = MarginalModelSpec(ModelMatrixSpec(["1"]), link="log",
                             variance="negative_binomial", theta=theta)
    assert spec.theta == theta


# -- closed-form cases -------------------------------------------------------


def test_identity_intercept_is_sample_mean():
    ds = outcome_panel([1.0, 4.0, 7.0])
    fit = fit_weighted_gee(ds, identity_model())
    assert np.allclose(fit.beta, [4.0])


def test_log_intercept_is_log_mean():
    ds = outcome_panel([1.0, 2.0, 3.0])
    fit = fit_weighted_gee(ds, MarginalModelSpec(ModelMatrixSpec(["1"]),
                                                 link="log",
                                                 variance="poisson"))
    assert np.allclose(fit.beta, [np.log(2.0)], atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_identity_link_matches_wls_oracle(seed):
    rng = np.random.default_rng(seed)
    ds = random_panel(1000 + seed, n_patients=8, n_periods=4, n_cov=2)
    w = rng.uniform(0.2, 3.0, int(ds.visit.sum()))
    model = MarginalModelSpec(ModelMatrixSpec(["1", "z1", "z2", "t"]))
    fit = fit_weighted_gee(ds, model, weights=w)
    x, _ = build_design(ds, model.xspec, subset="visits")
    y = ds.outcome[ds.visit_row_indices()]
    assert np.max(np.abs(fit.beta - oracles.wls(x, y, w))) < 1e-10
    assert fit.max_eq_norm <= 1e-8


def test_weight_scale_invariance():
    ds = random_panel(55, n_patients=8, n_periods=4)
    w = np.random.default_rng(1).uniform(0.5, 2.0, int(ds.visit.sum()))
    model = identity_model(("1", "z1", "t"))
    a = fit_weighted_gee(ds, model, weights=w)
    b = fit_weighted_gee(ds, model, weights=17.5 * w)
    assert np.allclose(a.beta, b.beta, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), log_c=st.floats(-3.0, 3.0))
@pytest.mark.parametrize("link, variance", [("identity", "constant"),
                                            ("log", "poisson")])
def test_estimates_do_not_depend_on_weight_scale(link, variance, seed, log_c):
    if link == "identity":
        ds = random_panel(seed, n_patients=8, n_periods=4)
        terms = ["1", "z1", "t"]
    else:
        ds = count_panel(seed, n_patients=30)
        terms = ["1", "z", "t"]
    model = MarginalModelSpec(ModelMatrixSpec(terms), link=link, variance=variance)
    w = np.random.default_rng(seed).uniform(0.2, 3.0, int(ds.visit.sum()))
    c = 10.0 ** log_c
    a = fit_weighted_gee(ds, model, weights=w).beta
    b = fit_weighted_gee(ds, model, weights=c * w).beta
    if link == "identity":
        # closed form: the weights cancel up to rounding
        assert np.max(np.abs(b - a)) <= 1e-9 * np.max(np.abs(a))
        return
    # Fisher scoring stops once max|u| / n <= TOL for the equations u of
    # the weights it is given, so the equations of the unscaled weights are
    # only known to be below TOL / c at b: the estimates may differ by
    # about |H^-1|_inf TOL (1 + 1 / c), H the information per patient.
    # At c = 1e-3 that is up to 2e-6 relative, so relative 1e-9 fails.
    x, _ = build_design(ds, model.xspec, subset="visits")
    info = (x.T * (w * np.exp(x @ a))) @ x / ds.n_patients
    kappa = np.abs(np.linalg.inv(info)).sum(axis=1).max()
    assert np.max(np.abs(b - a)) <= kappa * TOL * (1.0 + 1.0 / c)


# -- log link ----------------------------------------------------------------


def count_panel(seed, n_patients=60, beta=(0.4, 0.7)):
    rng = np.random.default_rng(seed)
    rows = []
    for pid in range(n_patients):
        z = float(rng.normal())
        for k in range(3):
            visit = bool(rng.random() < 0.6)
            y = None
            if visit:
                y = float(rng.poisson(np.exp(beta[0] + beta[1] * z)))
            rows.append(CountingProcessRow(f"p{pid}", float(k), float(k + 1),
                                           True, visit, y, {"z": z}))
    return Dataset.from_rows(rows, tau=3.0)


def test_log_poisson_matches_direct_minimizer():
    ds = count_panel(2)
    w = np.random.default_rng(3).uniform(0.5, 2.0, int(ds.visit.sum()))
    model = MarginalModelSpec(ModelMatrixSpec(["1", "z"]), link="log",
                              variance="poisson")
    fit = fit_weighted_gee(ds, model, weights=w)
    x, _ = build_design(ds, model.xspec, subset="visits")
    y = ds.outcome[ds.visit_row_indices()]
    ref = oracles.glm_log_poisson(x, y, w)
    assert np.max(np.abs(fit.beta - ref)) < 1e-7
    assert fit.max_eq_norm <= 1e-8


def test_log_negbin_matches_direct_minimizer():
    ds = count_panel(4)
    model = MarginalModelSpec(ModelMatrixSpec(["1", "z"]), link="log",
                              variance="negative_binomial", theta=0.5)
    fit = fit_weighted_gee(ds, model)
    x, _ = build_design(ds, model.xspec, subset="visits")
    y = ds.outcome[ds.visit_row_indices()]
    ref = oracles.glm_log_negbin(x, y, np.ones(y.size), 0.5)
    assert np.max(np.abs(fit.beta - ref)) < 1e-6


def test_log_constant_variance_matches_nonlinear_least_squares():
    ds = count_panel(6)
    model = MarginalModelSpec(ModelMatrixSpec(["1", "z"]), link="log",
                              variance="constant")
    fit = fit_weighted_gee(ds, model)
    x, _ = build_design(ds, model.xspec, subset="visits")
    y = ds.outcome[ds.visit_row_indices()]
    ref = oracles.nls_log(x, y, np.ones(y.size))
    assert np.max(np.abs(fit.beta - ref)) < 1e-7


def test_poisson_and_negbin_agree_for_intercept_only():
    ds = outcome_panel([0.0, 1.0, 3.0, 4.0])
    base = MarginalModelSpec(ModelMatrixSpec(["1"]), link="log",
                             variance="poisson")
    nb = MarginalModelSpec(ModelMatrixSpec(["1"]), link="log",
                           variance="negative_binomial", theta=0.5)
    a = fit_weighted_gee(ds, base)
    b = fit_weighted_gee(ds, nb)
    assert np.allclose(a.beta, b.beta, atol=1e-10)
    assert np.allclose(a.beta, [np.log(2.0)], atol=1e-10)


def test_log_link_rejects_non_positive_mean():
    ds = outcome_panel([-1.0, -2.0])
    model = MarginalModelSpec(ModelMatrixSpec(["1"]), link="log",
                              variance="constant")
    with pytest.raises(NumericError, match="positive weighted outcome mean"):
        fit_weighted_gee(ds, model)


# -- failure modes -----------------------------------------------------------


def test_rank_deficient_design_rejected():
    ds = outcome_panel([1.0, 2.0, 3.0])
    with pytest.raises(RankDeficiencyError, match="rank deficient"):
        fit_weighted_gee(ds, identity_model(("1", "z", "t")))


def test_weight_validation():
    ds = outcome_panel([1.0, 2.0])
    with pytest.raises(ValidationError, match="one entry per visit row"):
        fit_weighted_gee(ds, identity_model(), weights=np.ones(3))
    with pytest.raises(ValidationError, match="non-negative and finite"):
        fit_weighted_gee(ds, identity_model(), weights=np.array([1.0, -2.0]))
    with pytest.raises(ValidationError, match="all weights are zero"):
        fit_weighted_gee(ds, identity_model(), weights=np.zeros(2))


def test_no_visits_rejected():
    rows = grid_rows("a", {"z": 0.0}, {}, n_periods=2)
    ds = Dataset.from_rows(rows, tau=2.0)
    with pytest.raises(ValidationError, match="no visit rows"):
        fit_weighted_gee(ds, identity_model())


# -- dispersion --------------------------------------------------------------


def test_dispersion_zero_for_exact_fit():
    ds = outcome_panel([2.0, 2.0, 2.0])
    fit = fit_weighted_gee(ds, MarginalModelSpec(ModelMatrixSpec(["1"]),
                                                 link="log",
                                                 variance="poisson"))
    assert estimate_dispersion(fit, ds) == 0.0


def test_dispersion_near_zero_for_poisson_data():
    rng = np.random.default_rng(8)
    mu = 5.0
    ds = outcome_panel([float(v) for v in rng.poisson(mu, 1000)])
    fit = fit_weighted_gee(ds, MarginalModelSpec(ModelMatrixSpec(["1"]),
                                                 link="log",
                                                 variance="poisson"))
    assert estimate_dispersion(fit, ds) < 0.05


def test_dispersion_recovers_gamma_poisson_mixture():
    # draws from the count mechanism at one fixed stratum: lambda from a
    # gamma with shape 2 and scale mu/2, then poisson, giving
    # Var = mu + 0.5 mu^2
    rng = np.random.default_rng(9)
    mu = float(np.exp(1.69 + 0.67 - 0.5))
    lam = rng.gamma(2.0, 0.5 * mu, 100_000)
    ys = rng.poisson(lam).astype(float)
    ds = outcome_panel(ys)
    fit = fit_weighted_gee(ds, MarginalModelSpec(ModelMatrixSpec(["1"]),
                                                 link="log",
                                                 variance="poisson"))
    theta = estimate_dispersion(fit, ds)
    assert abs(theta - 0.5) < 0.05


def test_dispersion_accepts_weights():
    ds = outcome_panel([0.0, 1.0, 5.0])
    fit = fit_weighted_gee(ds, MarginalModelSpec(ModelMatrixSpec(["1"]),
                                                 link="log",
                                                 variance="poisson"))
    w = np.array([1.0, 1.0, 0.0])
    theta_w = estimate_dispersion(fit, ds, weights=w)
    assert theta_w >= 0.0



@pytest.mark.parametrize("weights, message", [
    (np.ones(2), "one entry per visit row"),
    (np.array([1.0, -1.0, 1.0]), "non-negative and finite"),
    (np.array([1.0, np.nan, 1.0]), "non-negative and finite"),
    (np.array([1.0, np.inf, 1.0]), "non-negative and finite"),
    (np.zeros(3), "all weights are zero"),
])
def test_dispersion_checks_weights_as_the_fit_does(weights, message):
    ds = outcome_panel([0.0, 1.0, 5.0])
    model = MarginalModelSpec(ModelMatrixSpec(["1"]), link="log", variance="poisson")
    fit = fit_weighted_gee(ds, model)
    with pytest.raises(ValidationError, match=message):
        fit_weighted_gee(ds, model, weights=weights)
    with pytest.raises(ValidationError, match=message):
        estimate_dispersion(fit, ds, weights=weights)
