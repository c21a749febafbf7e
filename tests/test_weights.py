import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from helpers import dataset_rows, grid_rows, random_panel
from irrvis import (BalanceInfeasibleError, CountingProcessRow, Dataset,
                    ModelMatrixSpec, NumericError, QValues,
                    RankDeficiencyError, ScenarioConfig, SelectionSpec,
                    ValidationError, balance_report, balancing_weights,
                    fit_cox, generate, mle_weights, q_values)
from irrvis.cox import CoxFit
from irrvis.design import BoundDesign
from irrvis.weights import _BalanceReport, export_weights


def visit_outcome_map(values):
    return {k + 1: v for k, v in enumerate(values)}


# -- selection factors -------------------------------------------------------


def test_phi_zero_gives_unit_q():
    ds = random_panel(1)
    q = q_values(ds, SelectionSpec(), 0.0)
    assert q.phi == 0.0
    assert np.all(q.values == 1.0)


def test_log1p_at_zero_outcome():
    rows = grid_rows("a", {"z": 0.0}, {1: 0.0})
    ds = Dataset.from_rows(rows, tau=4.0)
    q = q_values(ds, SelectionSpec("log1p"), 0.3)
    assert np.allclose(q.values, [1.0])


def test_log1p_at_e_minus_one():
    rows = grid_rows("a", {"z": 0.0}, {1: np.e - 1.0})
    ds = Dataset.from_rows(rows, tau=4.0)
    q = q_values(ds, SelectionSpec("log1p"), 0.3)
    assert np.allclose(q.values, [np.exp(-0.3)], atol=1e-12)


def test_identity_transform_uses_outcome_directly():
    rows = grid_rows("a", {"z": 0.0}, {1: 2.0, 3: -1.0})
    ds = Dataset.from_rows(rows, tau=4.0)
    q = q_values(ds, SelectionSpec("identity"), 0.3)
    assert np.allclose(q.values, np.exp([-0.6, 0.3]))


def test_log1p_domain_enforced():
    rows = grid_rows("a", {"z": 0.0}, {1: -1.0})
    ds = Dataset.from_rows(rows, tau=4.0)
    with pytest.raises(ValidationError, match="log1p.*> -1"):
        q_values(ds, SelectionSpec("log1p"), 0.3)


def test_unknown_transform_rejected():
    with pytest.raises(ValidationError, match="selection transform"):
        SelectionSpec("square")


def test_non_finite_phi_rejected():
    ds = random_panel(1)
    with pytest.raises(ValidationError, match="phi must be finite"):
        q_values(ds, SelectionSpec(), float("inf"))


@pytest.mark.parametrize("phi", [None, "0.3", True, np.bool_(True), complex(0.3, 0.0)])
def test_non_number_phi_rejected(phi):
    ds = random_panel(1)
    with pytest.raises(ValidationError, match="phi must be finite and real"):
        q_values(ds, SelectionSpec(), phi)


def test_integer_and_numpy_phi_accepted():
    ds = random_panel(1)
    want = q_values(ds, SelectionSpec(), 1.0)
    for phi in (1, np.int64(1), np.float32(1.0), np.float64(1.0)):
        got = q_values(ds, SelectionSpec(), phi)
        assert type(got.phi) is float and got.phi == 1.0
        assert np.array_equal(got.values, want.values)


# -- mle weights -------------------------------------------------------------


def test_zero_gamma_zero_phi_gives_unit_weights():
    ds = random_panel(3)
    cox = fit_cox(ds, ModelMatrixSpec([]))
    ws = mle_weights(cox, ds, q_values(ds, SelectionSpec(), 0.0))
    assert ws.kind == "mle"
    assert np.all(ws.weights == 1.0)


def test_log_two_gamma_halves_weight():
    rows = grid_rows("a", {"z": 1.0}, {1: 0.0})
    rows += grid_rows("b", {"z": 0.0}, {})
    ds = Dataset.from_rows(rows, tau=4.0)
    cox = CoxFit(gamma=np.array([np.log(2.0)]), names=("z",),
                 spec=ModelMatrixSpec(["z"]), loglik=0.0, max_score_norm=0.0,
                 n_iter=0, event_times=np.array([1.0]),
                 increments=np.array([0.5]))
    ws = mle_weights(cox, ds, q_values(ds, SelectionSpec(), 0.0))
    assert np.allclose(ws.weights, [0.5])


def test_selection_factor_multiplies_in():
    rows = grid_rows("a", {"z": 0.0}, {1: np.e - 1.0})
    ds = Dataset.from_rows(rows, tau=4.0)
    cox = fit_cox(ds, ModelMatrixSpec([]))
    ws = mle_weights(cox, ds, q_values(ds, SelectionSpec("log1p"), 0.3))
    assert np.allclose(ws.weights, [np.exp(-0.3)])
    assert ws.phi == 0.3


def test_product_structure():
    ds = random_panel(17, n_patients=8, n_periods=4)
    q = q_values(ds, SelectionSpec(), 0.2)
    cox = fit_cox(ds, ModelMatrixSpec(["z1"]), q=q)
    ws = mle_weights(cox, ds, q)
    eta = cox.linear_predictor(ds, ds.visit_row_indices())
    assert np.allclose(ws.weights, np.exp(-eta) * q.values, rtol=1e-14)
    assert np.all(ws.weights > 0)
    assert ws.names == ("z1",)


# -- balancing weights -------------------------------------------------------


def test_intercept_only_with_matching_breslow_is_unit_scale():
    # with increments built from the same q, the constant condition is
    # already balanced at gamma = 0
    ds = random_panel(8, n_patients=6)
    q = q_values(ds, SelectionSpec(), 0.0)
    cox = fit_cox(ds, ModelMatrixSpec([]), q=q)
    ws = balancing_weights(ds, ModelMatrixSpec(["1"]), q, cox)
    assert np.allclose(ws.gamma, [0.0], atol=1e-9)
    assert np.allclose(ws.weights, 1.0, atol=1e-9)


def test_intercept_only_matches_closed_form():
    # covariate-dependent increments make the scale nontrivial:
    # exp(gamma) * sum(q) = sum over (row, event) pairs of the increment
    ds = random_panel(9, n_patients=7, n_periods=4)
    q = q_values(ds, SelectionSpec(), 0.25)
    cox = fit_cox(ds, ModelMatrixSpec(["z1"]), q=q)
    ws = balancing_weights(ds, ModelMatrixSpec(["1"]), q, cox)

    times = np.unique(ds.end[ds.visit])
    target = 0.0
    for row in range(ds.n_rows):
        if not ds.at_risk[row]:
            continue
        for k, s in enumerate(times):
            if ds.start[row] < s <= ds.end[row]:
                target += cox.increments[k]
    expect = np.log(target / q.values.sum())
    assert np.allclose(ws.gamma, [expect], atol=1e-10)
    assert np.allclose(ws.weights, np.exp(expect) * q.values)


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_balance_residuals_vanish_by_hand(seed):
    ds = random_panel(seed, n_patients=8, n_periods=5)
    q = q_values(ds, SelectionSpec(), 0.15)
    cox = fit_cox(ds, ModelMatrixSpec(["z1"]), q=q)
    hnames = ["1", "z1", "t", "t*z1"]
    ws = balancing_weights(ds, ModelMatrixSpec(hnames), q, cox)
    assert ws.max_abs_residual <= 1e-8
    assert np.allclose(ws.weights, np.exp(_h_visit(ds, hnames) @ ws.gamma) * q.values)

    # recompute every condition with explicit loops
    times = np.unique(ds.end[ds.visit])
    visit_rows = np.flatnonzero(ds.visit)
    for j, name in enumerate(hnames):
        lhs = sum(oracles._design_row(ds, row, ds.end[row], [name])[0] * ws.weights[v]
                  for v, row in enumerate(visit_rows))
        rhs = sum(oracles._design_row(ds, row, s, [name])[0] * cox.increments[k]
                  for row in range(ds.n_rows) if ds.at_risk[row]
                  for k, s in enumerate(times)
                  if ds.start[row] < s <= ds.end[row])
        assert abs(lhs - rhs) / ds.n_patients <= 1e-8


def _h_visit(ds, hnames):
    visit_rows = np.flatnonzero(ds.visit)
    return np.array([oracles._design_row(ds, row, ds.end[row], hnames)
                     for row in visit_rows])


def test_phi_zero_matches_explicit_unit_q():
    ds = random_panel(12, n_patients=6)
    cox = fit_cox(ds, ModelMatrixSpec(["z1"]))
    spec = ModelMatrixSpec(["1", "z1"])
    a = balancing_weights(ds, spec, q_values(ds, SelectionSpec(), 0.0), cox)
    ones = QValues(phi=0.0, values=np.ones(int(ds.visit.sum())))
    b = balancing_weights(ds, spec, ones, cox)
    assert np.array_equal(a.weights, b.weights)


def test_weights_carry_the_visit_model_they_were_built_from():
    ds = random_panel(12, n_patients=6)
    q = q_values(ds, SelectionSpec(), 0.2)
    cox = fit_cox(ds, ModelMatrixSpec(["z1"]), q=q)
    spec = ModelMatrixSpec(["1", "z1"])
    assert mle_weights(cox, ds, q).visit_model is cox
    fitted = balancing_weights(ds, spec, q, cox)
    assert fitted.visit_model is cox
    # bare increments name no visit model; the weights are the same
    bare = balancing_weights(ds, spec, q, (cox.event_times, cox.increments))
    assert bare.visit_model is None
    assert np.array_equal(bare.weights, fitted.weights)
    # equality and the repr ignore the field
    assert dataclasses.replace(bare, visit_model=cox) == bare
    assert "visit_model" not in repr(fitted)


def test_collinear_balance_terms_rejected():
    ds = random_panel(31, n_patients=6, n_cov=1)
    doubled = Dataset.from_rows([
        CountingProcessRow(r.patient_id, r.start, r.end, r.at_risk, r.visit,
                           r.outcome,
                           {"z1": r.covariates["z1"],
                            "z2": 2.0 * r.covariates["z1"]})
        for r in dataset_rows(ds)
    ], tau=ds.tau)
    q = q_values(doubled, SelectionSpec(), 0.0)
    cox = fit_cox(doubled, ModelMatrixSpec(["z1"]), q=q)
    with pytest.raises(RankDeficiencyError, match="collinear balance terms"):
        balancing_weights(doubled, ModelMatrixSpec(["1", "z1", "z2"]), q, cox)


def test_infeasible_balance_conditions_reported():
    # the Jacobian is positive definite at the start (eigenvalues 0.22 to
    # 166), but no weights satisfy the ten conditions: the dual diverges
    # until the Jacobian is numerically singular
    cfg = ScenarioConfig(outcome="continuous", gamma_z=1.25, phi_true=0.3,
                         n=30, scenario="s3_SF_correctZ", seed=1)
    observed, _ = generate(cfg, 0)
    q = q_values(observed, cfg.selection(), 0.0)
    cox = fit_cox(observed, ModelMatrixSpec(cfg.weight_covariates()), q)
    with pytest.raises(BalanceInfeasibleError,
                       match="dual diverged.*infeasible at phi=0") as err:
        balancing_weights(observed, ModelMatrixSpec(cfg.balance_terms()), q, cox)
    assert isinstance(err.value, NumericError)
    assert not isinstance(err.value, RankDeficiencyError)


def test_degenerate_term_dropped_with_warning():
    ds = random_panel(3, n_patients=8)
    flat = Dataset.from_rows([
        CountingProcessRow(r.patient_id, r.start, r.end, r.at_risk, r.visit,
                           r.outcome,
                           {"z1": r.covariates["z1"], "flat": 1.0})
        for r in dataset_rows(ds)
    ], tau=ds.tau)
    q = q_values(flat, SelectionSpec(), 0.0)
    cox = fit_cox(flat, ModelMatrixSpec(["z1"]), q=q)
    with pytest.warns(UserWarning, match="constant at every visit row.*flat"):
        ws = balancing_weights(flat, ModelMatrixSpec(["1", "z1", "flat"]), q, cox)
    assert ws.names == ("1", "z1")
    assert ws.gamma.shape == (2,)
    assert ws.max_abs_residual <= 1e-8


# -- balance report ----------------------------------------------------------


def toy_oversampled_dataset():
    rows = grid_rows("a", {"z": 1.0}, visit_outcome_map([0.0, 0.0, 0.0]),
                     n_periods=3)
    rows += grid_rows("b", {"z": 0.0}, {2: 0.0}, n_periods=3)
    return Dataset.from_rows(rows, tau=3.0)


def test_unit_weights_show_positive_imbalance_on_oversampled_term():
    ds = toy_oversampled_dataset()
    cox = fit_cox(ds, ModelMatrixSpec([]))
    assert np.allclose(cox.increments, [0.5, 1.0, 0.5])
    report = balance_report(ds, ModelMatrixSpec(["1", "z"]), np.ones(4), cox)
    by_term = {r["term"]: r for r in report}
    # visits: z-sum 3; target: both patients cover all events, so
    # sum_k increments * (1 + 0) = 2; residual (3 - 2)/2
    assert by_term["z"]["residual"] == pytest.approx(0.5)
    assert by_term["1"]["residual"] == pytest.approx(0.0, abs=1e-12)
    sd = np.std([1.0] * 3 + [0.0] * 3, ddof=1)
    assert by_term["z"]["standardized_residual"] == pytest.approx(0.5 / sd)
    assert by_term["1"]["zero_sd"] is True
    assert not by_term["z"]["zero_sd"]


def test_balancing_weights_beat_mle_weights_on_misspecified_model():
    cfg = ScenarioConfig(outcome="continuous", gamma_z=1.25, phi_true=0.0,
                         n=200, scenario="s2_noSF_transformedZ", n_reps=1,
                         seed=11)
    observed, _ = generate(cfg, 0)
    q = q_values(observed, cfg.selection(), 0.0)
    cox = fit_cox(observed, ModelMatrixSpec(cfg.weight_covariates()), q=q)
    hspec = ModelMatrixSpec(cfg.balance_terms())
    mle = mle_weights(cox, observed, q)
    bal = balancing_weights(observed, hspec, q, cox)

    def worst(report):
        return max(abs(r["standardized_residual"]) for r in report)

    mle_imbalance = worst(balance_report(observed, hspec, mle, cox))
    bal_imbalance = worst(balance_report(observed, hspec, bal, cox))
    assert bal_imbalance <= 1e-6
    assert mle_imbalance > bal_imbalance


def test_report_standard_deviations_hold_no_at_risk_design():
    # the report needs each term's standard deviation over the at-risk
    # rows, not the terms on every row: 16 MB on this panel's 200 000 rows
    cfg = ScenarioConfig(outcome="continuous", gamma_z=1.25, phi_true=0.3,
                         n=400, scenario="s3_SF_correctZ", seed=1)
    observed, _ = generate(cfg, 0)
    hspec = ModelMatrixSpec(cfg.balance_terms())
    tracemalloc.start()
    try:
        report = _BalanceReport(observed, hspec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = observed.at_risk_row_indices()
    assert peak < rows.size * len(hspec) * 8
    h = BoundDesign(observed, hspec).evaluate(observed, rows)
    want = h.std(axis=0, ddof=1)
    assert report.sd[0] == 0.0
    assert np.allclose(report.sd, want, rtol=1e-14, atol=0.0)


def test_report_accepts_bare_arrays_with_q():
    ds = toy_oversampled_dataset()
    cox = fit_cox(ds, ModelMatrixSpec([]))
    q = QValues(phi=0.1, values=np.full(4, 0.8))
    spec = ModelMatrixSpec(["1", "z"])
    a = balance_report(ds, spec, np.full(4, 2.0), cox, q=q)
    b = balance_report(ds, spec, np.full(4, 1.6), cox)
    assert a[1]["residual"] == pytest.approx(b[1]["residual"])
    with pytest.raises(ValidationError, match="one entry per visit row"):
        balance_report(ds, spec, np.ones(3), cox)
    with pytest.raises(ValidationError, match="positive and finite"):
        balance_report(ds, spec, np.array([1.0, -1.0, 1.0, 1.0]), cox)


@pytest.mark.parametrize("weights", [2.0, np.ones((4, 1)), np.ones((1, 4))])
@pytest.mark.parametrize("with_q", [False, True])
def test_report_rejects_weights_of_the_wrong_shape(weights, with_q):
    ds = toy_oversampled_dataset()
    cox = fit_cox(ds, ModelMatrixSpec([]))
    q = QValues(phi=0.1, values=np.full(4, 0.8)) if with_q else None
    with pytest.raises(ValidationError, match="one entry per visit row"):
        balance_report(ds, ModelMatrixSpec(["1", "z"]), weights, cox, q=q)


def _unsaturated_panel(seed, gamma, phi, n_patients=60, n_steps=30):
    """Visit panel whose event probability never reaches 1.

    Intercept -3.6 keeps exp(lp) below 1 for any remotely plausible draw,
    so the inverse-intensity identity holds exactly, not just in the limit.
    """
    step = 0.1
    t = step * np.arange(1, n_steps + 1)
    rng = np.random.default_rng(seed)
    x = (rng.random(n_patients) < 0.5).astype(float)[:, None]
    z1 = rng.normal(0.0, 1.0, (n_patients, n_steps))
    y = 1.0 + 0.5 * z1 - 0.5 * x + rng.normal(0.0, 0.5, (n_patients, n_steps))
    pi = np.exp(-3.6 + gamma[0] * z1 + gamma[1] * x + phi * y)
    assert float(pi.max()) < 1.0
    visit = rng.random((n_patients, n_steps)) < pi
    n_rows = n_patients * n_steps
    cov = np.column_stack([z1.ravel(), np.repeat(x[:, 0], n_steps)])
    return Dataset([f"p{i}" for i in range(n_patients)],
                   np.repeat(np.arange(n_patients, dtype=np.int32), n_steps),
                   np.tile(np.concatenate(([0.0], t[:-1])), n_patients),
                   np.tile(t, n_patients),
                   np.ones(n_rows, dtype=bool), visit.ravel(),
                   np.where(visit, y, np.nan).ravel(), cov, ("z1", "x"),
                   tau=t[-1])


def test_true_weight_residuals_center_on_zero_without_saturation():
    # Weighting each visit by exp(-gamma' z) * q cancels the intensity tilt
    # row by row, so the report residuals have mean zero over replications.
    # With q = exp(-phi * y) this needs the event probability to stay below
    # 1.  Where a generator caps it at 1, the factor is instead
    # max(exp(-phi * y), exp(alpha(t) + gamma' z)), which differs from q
    # only on capped rows; the acceptance suite checks that construction on
    # the scenario generator.
    import dataclasses

    from irrvis.cox import breslow_increments

    gamma = np.array([0.4, 0.3])
    phi = 0.2
    zspec = ModelMatrixSpec(["z1", "x"])
    hspec = ModelMatrixSpec(["1", "z1", "x", "t", "t*z1"])
    sel = SelectionSpec(transform="identity")
    reps = 150
    at_fit, at_truth = [], []
    for rep in range(reps):
        ds = _unsaturated_panel(10_000 + rep, gamma, phi)
        q = q_values(ds, sel, phi)
        cox = fit_cox(ds, zspec, q)
        vis = ds.visit_row_indices()
        lin = (gamma[0] * ds.covariate_column("z1")[vis]
               + gamma[1] * ds.covariate_column("x")[vis])
        w_true = np.exp(-lin) * q.values
        at_fit.append([r["residual"]
                       for r in balance_report(ds, hspec, w_true, cox)])
        pinned = dataclasses.replace(cox, gamma=gamma)
        at_truth.append([r["residual"]
                         for r in balance_report(ds, hspec, w_true,
                                                 breslow_increments(pinned, ds, q))])
    for acc in (at_fit, at_truth):
        a = np.array(acc)
        ratio = np.abs(a.mean(axis=0)) / (a.std(axis=0, ddof=1) / np.sqrt(reps))
        assert float(ratio.max()) < 4.0


# -- export ------------------------------------------------------------------


def test_export_weights_layout(tmp_path):
    ds = random_panel(6, n_patients=5)
    q = q_values(ds, SelectionSpec(), 0.0)
    cox = fit_cox(ds, ModelMatrixSpec(["z1"]), q=q)
    ws = mle_weights(cox, ds, q)
    path = tmp_path / "w.csv"
    export_weights(ds, ws, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "patient_id,visit_time,weight,kind"
    assert len(lines) == 1 + int(ds.visit.sum())
    assert all(line.endswith(",mle") for line in lines[1:])


@pytest.mark.parametrize("weights", [lambda w: w[0], lambda w: w[:, None]])
def test_export_weights_rejects_weights_of_the_wrong_shape(tmp_path, weights):
    ds = random_panel(6, n_patients=5)
    q = q_values(ds, SelectionSpec(), 0.0)
    ws = mle_weights(fit_cox(ds, ModelMatrixSpec(["z1"]), q=q), ds, q)
    bad = dataclasses.replace(ws, weights=weights(ws.weights))
    with pytest.raises(ValidationError, match="does not match the dataset"):
        export_weights(ds, bad, tmp_path / "w.csv")
    assert not (tmp_path / "w.csv").exists()


def test_export_weights_matches_the_row_writer(tmp_path):
    ids = ["a,b", 'q"x', "#5", " pad ", "", "two\nlines", 7]
    rows = []
    for k, pid in enumerate(ids):
        rows += grid_rows(pid, {"z1": k / 3}, {1: 0.1 * k, 2: 1.0}, n_periods=3)
    ds = Dataset.from_rows(rows, tau=3.0)
    ws = mle_weights(fit_cox(ds, ModelMatrixSpec(["z1"])), ds,
                     q_values(ds, SelectionSpec(), 0.7))
    ours, reference = tmp_path / "a.csv", tmp_path / "b.csv"
    export_weights(ds, ws, ours)
    oracles.export_weights_rows(ds, ws, reference)
    assert ours.read_bytes() == reference.read_bytes()
    assert b'"a,b"' in ours.read_bytes()
