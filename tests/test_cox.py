import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (dataset_rows, drawn_positions, grid_rows, pair_events,
                     random_panel)
from irrvis import (CountingProcessRow, Dataset, ModelMatrixSpec, QValues,
                    RankDeficiencyError,
                    ScenarioConfig, SeparationError, ValidationError,
                    breslow_increments, fit_cox, generate)
from irrvis import cox
from irrvis.cox import _PartialLikelihood
from irrvis.design import BoundDesign
from irrvis.riskset import RiskStructure


def three_patient_dataset():
    rows = grid_rows("a", {"z": 1.0}, {1: 0.0, 3: 0.0}, n_periods=4)
    rows += grid_rows("b", {"z": 0.0}, {2: 0.0, 3: 0.0}, n_periods=4)
    rows += grid_rows("c", {"z": 1.0}, {}, n_periods=4, censored_from=3)
    return Dataset.from_rows(rows, tau=4.0)


def unit_q(ds):
    return QValues(phi=0.0, values=np.ones(int(ds.visit.sum())))


# -- coefficient correctness -------------------------------------------------


def test_binary_covariate_matches_oracle():
    ds = three_patient_dataset()
    fit = fit_cox(ds, ModelMatrixSpec(["z"]))
    ref = oracles.cox_fit(ds, ["z"])
    assert np.max(np.abs(fit.gamma - ref)) < 1e-6


def test_doubling_q_leaves_gamma_unchanged():
    ds = three_patient_dataset()
    one = fit_cox(ds, ModelMatrixSpec(["z"]), q=unit_q(ds))
    two = fit_cox(ds, ModelMatrixSpec(["z"]),
                  q=QValues(phi=0.0, values=2.0 * np.ones(4)))
    assert np.allclose(one.gamma, two.gamma, atol=1e-10)


def test_random_q_matches_oracle():
    ds = random_panel(2024, n_patients=6, n_periods=4, n_cov=2)
    rng = np.random.default_rng(99)
    q = rng.uniform(0.5, 2.0, int(ds.visit.sum()))
    fit = fit_cox(ds, ModelMatrixSpec(["z1", "z2"]),
                  q=QValues(phi=0.3, values=q))
    ref = oracles.cox_fit(ds, ["z1", "z2"], q=q)
    assert np.max(np.abs(fit.gamma - ref)) < 1e-6


def test_time_interaction_matches_oracle():
    # a raw time main effect is constant within every risk set (everyone is
    # evaluated at the same event time) and inestimable; t*z varies
    ds = random_panel(7, n_patients=8, n_periods=5)
    fit = fit_cox(ds, ModelMatrixSpec(["z1", "t*z1"]))
    ref = oracles.cox_fit(ds, ["z1", "t*z1"])
    assert np.max(np.abs(fit.gamma - ref)) < 1e-6


def test_time_main_effect_is_rank_deficient():
    ds = random_panel(7, n_patients=8, n_periods=5)
    with pytest.raises(RankDeficiencyError):
        fit_cox(ds, ModelMatrixSpec(["z1", "t"]))


def test_empty_spec_gives_empty_gamma():
    ds = three_patient_dataset()
    fit = fit_cox(ds, ModelMatrixSpec([]))
    assert fit.gamma.shape == (0,)
    # increments fall back to event/risk ratios
    assert np.allclose(fit.increments, oracles.breslow(ds, [], [])[1])


def test_unit_q_equals_default():
    ds = random_panel(5, n_patients=6)
    a = fit_cox(ds, ModelMatrixSpec(["z1"]))
    b = fit_cox(ds, ModelMatrixSpec(["z1"]), q=unit_q(ds))
    assert np.allclose(a.gamma, b.gamma, atol=1e-8)


# -- the likelihood kernel -----------------------------------------------------


KERNEL_TERMS = ["z1", "z2", "t*z1"]


def kernel_panel(seed):
    """Tied visits on a unit grid, censoring, a patient alone at an event
    time (``alone``, on a half-unit grid) and one without visits."""
    rng = np.random.default_rng(seed)
    rows = []
    for pid in range(int(rng.integers(2, 6))):
        cov = {"z1": float(rng.normal()), "z2": float(rng.normal())}
        visits = {k: 0.0 for k in range(1, 5) if rng.random() < 0.5}
        censored = int(rng.integers(2, 5)) if rng.random() < 0.3 else None
        rows += grid_rows(f"p{pid}", cov, visits, censored_from=censored)
    rows += grid_rows("alone", {"z1": 0.4, "z2": -0.7}, {5: 0.0}, n_periods=8,
                      step=0.5)
    rows += grid_rows("silent", {"z1": -0.3, "z2": 0.2}, {})
    return Dataset.from_rows(rows, tau=4.0)


def assert_kernel_matches_oracle(pl, ds, gamma, q):
    """``pl`` at ``gamma`` matches the oracle on ``ds`` with Q ``q``.  The
    structure of ``pl`` may hold event times at which ``ds`` has no visit;
    their increments must be zero."""
    def f(g):
        return oracles.cox_loglik(ds, KERNEL_TERMS, g, q) / ds.n_patients

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        loglik, score, information = pl.at(gamma)
        increments = pl.breslow(gamma)
    assert np.isclose(loglik, f(gamma), rtol=1e-12, atol=1e-12)
    assert np.allclose(score, oracles._fd_grad(f, gamma), rtol=0.0, atol=1e-7)
    assert np.allclose(information, -oracles._fd_hess(f, gamma), rtol=0.0, atol=1e-5)
    times, want = oracles.breslow(ds, KERNEL_TERMS, gamma, q)
    visited = np.isin(pl.rs.event_times, times)
    assert np.array_equal(pl.rs.event_times[visited], times)
    assert np.allclose(increments[visited], want, rtol=1e-12)
    assert not increments[~visited].any()


def test_block_event_sums_match_loops(monkeypatch):
    # the kernel sums exp(eta) and z * exp(eta) per event over the ranges of
    # RiskStructure.blocks in one (p + 1, block) workspace; the sums over
    # its ranges match loops, and its evaluation does not depend on the
    # block size, whether a range holds whole events or a piece of one
    ds = kernel_panel(3)
    rs = RiskStructure(ds)
    z_cover, z_visit = rs.design(BoundDesign(ds, ModelMatrixSpec(KERNEL_TERMS)), ds)
    q = np.random.default_rng(1).uniform(0.5, 2.0, rs.visit_rows.size)
    gamma = np.array([0.3, -0.5, 0.2])
    block = np.random.default_rng(0).normal(size=(3, rs.cover_row.size))
    expect = np.zeros((3, rs.K))
    for i, k in enumerate(pair_events(rs)):
        expect[:, k] += block[:, i]
    assert rs.event_counts.max() > 3
    whole = _PartialLikelihood(rs, z_cover, z_visit, q).at(gamma)
    for size in (1 << 15, 3, 1):
        monkeypatch.setattr(cox, "_BLOCK_PAIRS", size)
        pl = _PartialLikelihood(rs, z_cover, z_visit, q)
        got = np.zeros((3, rs.K))
        for lo, hi, k0, k1, offsets in pl.ranges:
            assert hi - lo <= size
            got[:, k0:k1] += np.add.reduceat(block[:, lo:hi], offsets, axis=-1)
        assert np.allclose(got, expect, rtol=1e-13, atol=1e-13)
        for a, b in zip(pl.at(gamma), whole):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000),
       copies=st.lists(st.integers(0, 2), min_size=7, max_size=7).filter(any))
def test_kernel_matches_oracle_on_panels_and_resamples(seed, copies):
    ds = kernel_panel(seed)
    rng = np.random.default_rng(seed + 1)
    gamma = rng.uniform(-0.8, 0.8, len(KERNEL_TERMS))
    spec = ModelMatrixSpec(KERNEL_TERMS)
    rs = RiskStructure(ds)
    z_cover, z_visit = rs.design(BoundDesign(ds, spec), ds)
    q = rng.uniform(0.5, 2.0, rs.visit_rows.size)
    # events hold up to 7 pairs: one range for all of them, about one event
    # per range, and every larger event in pieces of 3 pairs or of 1
    for block in (1 << 15, 7, 3, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cox, "_BLOCK_PAIRS", block)
            pl = _PartialLikelihood(rs, z_cover, z_visit, q)
        assert_kernel_matches_oracle(pl, ds, gamma, q)

    # 0, 1 or 2 copies of each patient: the full structure and design, each
    # pair weighted by its patient's copies and each visit's Q multiplied by
    # them, against the oracle on the drawn dataset
    copies = np.asarray(copies[:ds.n_patients])
    draw = np.repeat(np.arange(ds.n_patients), copies)
    if not draw.size:
        return
    sub = ds.take_patients(draw)
    if not sub.visit.any():
        return
    weighted = rs.weighted(copies[ds.patient_index[rs.cover_row]].astype(float),
                           draw.size)
    own = copies[ds.patient_index[rs.visit_rows]]
    for block in (1 << 15, 3, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cox, "_BLOCK_PAIRS", block)
            pl = _PartialLikelihood(weighted, z_cover, z_visit, q * own)
        visits = drawn_positions(rs.visit_rows, ds.patient_row_bounds, draw)
        assert_kernel_matches_oracle(pl, sub, gamma, q[visits])


def test_score_residual_below_tolerance():
    ds = random_panel(13, n_patients=10, n_periods=5, n_cov=2)
    fit = fit_cox(ds, ModelMatrixSpec(["z1", "z2", "t*z1"]))
    assert fit.max_score_norm <= 1e-8


def test_covariate_shift_invariance():
    base = random_panel(21, n_patients=8, n_periods=4)
    shifted = Dataset.from_rows([
        r.__class__(r.patient_id, r.start, r.end, r.at_risk, r.visit,
                    r.outcome, {"z1": r.covariates["z1"] + 5.0})
        for r in dataset_rows(base)
    ], tau=base.tau)
    a = fit_cox(base, ModelMatrixSpec(["z1"]))
    b = fit_cox(shifted, ModelMatrixSpec(["z1"]))
    assert np.allclose(a.gamma, b.gamma, atol=1e-8)


def test_covariate_scale_equivariance():
    base = random_panel(22, n_patients=8, n_periods=4)
    scaled = Dataset.from_rows([
        r.__class__(r.patient_id, r.start, r.end, r.at_risk, r.visit,
                    r.outcome, {"z1": r.covariates["z1"] / 100.0})
        for r in dataset_rows(base)
    ], tau=base.tau)
    a = fit_cox(base, ModelMatrixSpec(["z1"]))
    b = fit_cox(scaled, ModelMatrixSpec(["z1"]))
    assert np.allclose(100.0 * a.gamma, b.gamma, rtol=1e-6)


# -- failure modes -----------------------------------------------------------


def test_constant_term_rejected():
    ds = three_patient_dataset()
    with pytest.raises(ValidationError, match="constant term"):
        fit_cox(ds, ModelMatrixSpec(["1", "z"]))


def test_separation_detected():
    # one covariate level produces every event, so the likelihood is
    # monotone; the small covariate spread makes the coefficient race off
    rows = grid_rows("a", {"z": 0.1}, {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0})
    rows += grid_rows("b", {"z": 0.0}, {})
    ds = Dataset.from_rows(rows, tau=4.0)
    with pytest.raises(SeparationError, match="diverges"):
        fit_cox(ds, ModelMatrixSpec(["z"]))


def test_collinear_covariates_rejected():
    ds = random_panel(31, n_patients=6, n_cov=1)
    doubled = Dataset.from_rows([
        r.__class__(r.patient_id, r.start, r.end, r.at_risk, r.visit,
                    r.outcome,
                    {"z1": r.covariates["z1"], "z2": 2.0 * r.covariates["z1"]})
        for r in dataset_rows(ds)
    ], tau=ds.tau)
    with pytest.raises(RankDeficiencyError, match="rank deficient"):
        fit_cox(doubled, ModelMatrixSpec(["z1", "z2"]))



def test_overflowing_trial_step_is_rejected_quietly():
    # On this replicate the first Newton step overshoots to a point where one
    # event's risk-set sum is subnormal under its range's shift, so A_k / S0_k
    # overflows; the line search must reject that trial without a warning.
    # Q follows the capped visit law (see acceptance criterion 5).
    cfg = ScenarioConfig(outcome="continuous", gamma_z=1.25, phi_true=0.3,
                         n=500, scenario="s3_SF_correctZ", n_reps=1, seed=0)
    observed, _ = generate(cfg, 25)
    vis = observed.visit_row_indices()
    z1, z2, x = (observed.covariate_column(c)[vis]
                 for c in ("z1", "z2", "x"))
    lin = 1.25 * z1 + 1.25 * z2 + 0.5 * z1 * z2 + x
    q = np.maximum(np.exp(-0.3 * observed.outcome[vis]),
                   np.exp(-3.05 - 2.0 * observed.end[vis] + lin))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = fit_cox(observed, ModelMatrixSpec(cfg.weight_covariates()),
                      QValues(phi=0.3, values=q))
    assert np.max(np.abs(fit.gamma - [1.25, 1.25, 0.5, 1.0])) < 0.1


# -- baseline increments -----------------------------------------------------


def test_nelson_aalen_with_no_covariates():
    ds = three_patient_dataset()
    times, inc = breslow_increments(fit_cox(ds, ModelMatrixSpec([])), ds)
    assert np.array_equal(times, [1.0, 2.0, 3.0])
    # risk sets: 3 at t=1 and t=2, 2 at t=3 (c censored); 2 tied events at 3
    assert np.allclose(inc, [1 / 3, 1 / 3, 2 / 2])


def test_half_weighted_single_event_increment():
    rows = grid_rows("a", {"z": 0.0}, {1: 2.0}, n_periods=1)
    rows += grid_rows("b", {"z": 0.0}, {}, n_periods=1)
    ds = Dataset.from_rows(rows, tau=1.0)
    fit = fit_cox(ds, ModelMatrixSpec([]),
                  q=QValues(phi=0.5, values=np.array([0.5])))
    assert np.allclose(fit.increments, [0.25])


def test_increments_match_brute_force():
    ds = random_panel(47, n_patients=7, n_periods=4, n_cov=2)
    rng = np.random.default_rng(3)
    qv = rng.uniform(0.5, 2.0, int(ds.visit.sum()))
    q = QValues(phi=0.1, values=qv)
    fit = fit_cox(ds, ModelMatrixSpec(["z1", "z2"]), q=q)
    times, inc = breslow_increments(fit, ds, q=q)
    ref_times, ref_inc = oracles.breslow(ds, ["z1", "z2"], fit.gamma, qv)
    assert np.array_equal(times, ref_times)
    assert np.allclose(inc, ref_inc, rtol=1e-12)
    assert np.all(inc > 0)
    assert np.array_equal(times, fit.event_times)


def test_cumulative_baseline_on_simulated_panel():
    # visit probability exp(-3.05 - 2t + covariate effects) on a 0.01 grid;
    # summing the fitted increments over (0, 5] recovers the summed baseline
    # 2.3444 up to sampling noise.  Moderate covariate effects keep the
    # probabilities below the min(1, .) cap; at gamma_z = 1.25 the cap
    # truncates enough draws to attenuate the fit and push the cumulative
    # baseline ~25% high, so that setting cannot check this identity.
    cfg = ScenarioConfig(outcome="continuous", gamma_z=0.5, phi_true=0.0,
                         n=500, scenario="s1_noSF_correctZ", n_reps=1, seed=5)
    observed, _ = generate(cfg, 0)
    fit = fit_cox(observed, ModelMatrixSpec(cfg.weight_covariates()))
    total = float(fit.increments.sum())
    truth = float(np.sum(np.exp(-3.05 - 2.0 * np.arange(1, 501) * 0.01)))
    assert abs(total - truth) / truth < 0.10


def fixed_covariate_panel(visits, ends, z, tau):
    """Patient ``i`` is at risk on ``(0, ends[i]]`` with covariates ``z[i]``
    and visits at ``visits[i]``; its at-risk span is split only at them."""
    rows = []
    for i, (times, end) in enumerate(zip(visits, ends)):
        cov = {"z1": float(z[i, 0]), "z2": float(z[i, 1])}
        start = 0.0
        for v in times:
            rows.append(CountingProcessRow(i, start, v, True, True, 0.0, cov))
            start = v
        rows.append(CountingProcessRow(i, start, end, True, False, None, cov))
        if end < tau:
            rows.append(CountingProcessRow(i, end, tau, False, False, None, cov))
    return Dataset.from_rows(rows, tau=tau)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(8, 16))
def test_splitting_a_tie_leaves_the_visit_fit_unchanged(seed, n):
    # visits fall on the integers 1..9 and at-risk spans end at k + 0.75 or
    # at tau = 10, so with delta = 0.5 no event time and no row end lies in
    # (s, s + delta]: moving one of two tied visits from s to s + delta
    # keeps every risk set, and only the tie at s is split
    rng = np.random.default_rng(seed)
    tau = 10.0
    last = rng.integers(2, 11, n)
    ends = np.where(last < 10, last + 0.75, tau)
    visits = [[float(k) for k in range(1, min(m, 9) + 1) if rng.random() < 0.4]
              for m in last]
    s = int(rng.integers(1, 10))
    eligible = np.flatnonzero(last >= s)
    if eligible.size < 2:
        s, eligible = 1, np.arange(n)
    a, b = rng.choice(eligible, 2, replace=False)
    for i in (a, b):
        visits[i] = sorted(set(visits[i]) | {float(s)})
    split = [list(v) for v in visits]
    split[a] = [v + 0.5 if v == s else v for v in split[a]]
    z = rng.normal(size=(n, 2))
    pooled_ds = fixed_covariate_panel(visits, ends, z, tau)
    split_ds = fixed_covariate_panel(split, ends, z, tau)
    # the visit rows keep their order, so one Q array serves both
    q = QValues(phi=0.2, values=rng.uniform(0.5, 2.0, int(pooled_ds.visit.sum())))
    spec = ModelMatrixSpec(["z1", "z2"])
    pooled = fit_cox(pooled_ds, spec, q)
    parted = fit_cox(split_ds, spec, q)
    scale = np.max(np.abs(pooled.gamma))
    assert np.max(np.abs(parted.gamma - pooled.gamma)) <= 1e-10 * scale
    k = int(np.searchsorted(pooled.event_times, s))
    assert np.array_equal(parted.event_times,
                          np.insert(pooled.event_times, k + 1, s + 0.5))
    both = parted.increments[k] + parted.increments[k + 1]
    assert both == pytest.approx(pooled.increments[k], rel=1e-10, abs=0.0)
    others = np.delete(parted.increments, k + 1)
    others[k] = pooled.increments[k]
    np.testing.assert_allclose(others, pooled.increments, rtol=1e-10, atol=0.0)
