import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from irrvis import (ConvergenceError, Dataset, IrrvisError, MetricsTable,
                    ModelMatrixSpec, RankDeficiencyError, ScenarioConfig,
                    SeparationError, ValidationError, balancing_weights,
                    complete_data_fit, fit_cox, fit_weighted_gee, generate,
                    limiting_phi, mle_weights, q_values, run_study, simlab,
                    weights)
from irrvis.riskset import RiskStructure
from irrvis.rng import substream
from irrvis.simlab import (ESTIMATORS, GRID_TIMES, TAU, TRUE_BETA,
                           _draw_panel, _limiting_design, _run_replicate,
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


@pytest.mark.parametrize("seed", [2 ** 64, 2 ** 70])
def test_config_rejects_a_seed_beyond_the_stream_key(seed):
    with pytest.raises(ValidationError, match="seed must be non-negative, below 2"):
        cont_cfg(seed=seed)
    cont_cfg(seed=2 ** 64 - 1)


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


@pytest.mark.parametrize("rep", [1.5, 1.0, True, "1", None])
def test_generate_rejects_a_non_integer_replicate(rep):
    with pytest.raises(ValidationError, match="generate rep must be an integer"):
        generate(cont_cfg(n=5), rep)


@pytest.mark.parametrize("rep", [-1, 2 ** 32, 2 ** 70])
def test_generate_rejects_a_replicate_outside_its_streams(rep):
    with pytest.raises(ValidationError, match=r"generate rep must be in \[0, 2\*\*32\)"):
        generate(cont_cfg(n=5), rep)


def test_generate_accepts_numpy_integers():
    cfg = cont_cfg(n=5)
    want, _ = generate(cfg, 2 ** 32 - 1)
    for rep in (np.int64(2 ** 32 - 1), np.uint32(2 ** 32 - 1)):
        got, _ = generate(cfg, rep)
        assert got.covariates.tobytes() == want.covariates.tobytes()
        assert got.visit.tobytes() == want.visit.tobytes()


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


LIMITING_SPEC = ModelMatrixSpec(["a", "b", "ab", "x", "sy"])


def dense_design(design):
    """The grid design's five rows a, b, ab, x and S(Y) as one dense float32
    ``(5, pairs)`` array, x repeated at every grid time."""
    x = np.tile(design.x.astype(np.float32), design.varying.shape[1] // design.x.size)
    return np.vstack((design.varying[:3], x, design.varying[3]))


class BlockCast:
    """A dense float32 design read by the kernel's ``fill`` interface: each
    block of pairs cast to float64 into the kernel's C-contiguous buffer,
    the arithmetic of a per-block ``astype`` of the dense stack."""

    def __init__(self, dense):
        self.dense = dense

    def fill(self, out, lo, hi):
        out[...] = self.dense[:, lo:hi]
        return out


def grid_dataset(design, visit, n):
    """The limiting fit's time-major draws patient-major, as a general dataset."""
    cov = dense_design(design).reshape(5, 500, n).transpose(2, 1, 0).reshape(-1, 5)
    flags = visit.reshape(500, n).T.ravel()
    return Dataset(list(range(n)), np.repeat(np.arange(n, dtype=np.int32), 500),
                   np.tile(np.concatenate(([0.0], GRID_TIMES[:-1])), n),
                   np.tile(GRID_TIMES, n), np.ones(flags.size, dtype=bool), flags,
                   np.where(flags, 0.0, np.nan), cov.astype(np.float64),
                   ("a", "b", "ab", "x", "sy"), tau=TAU, validate=False)


def test_limiting_fit_matches_general_engine():
    from irrvis import cox

    cfg = cont_cfg(phi_true=0.3, scenario="s3_SF_correctZ", seed=1, n=400)
    # n = 20 leaves most grid times without a visit.  The block sizes put
    # many events in a range, one event in a range (400), and split an
    # event into pieces (97 and 7 at n = 400, 7 at n = 20)
    for n, min_empty in ((400, 0), (20, 250)):
        design, visit = _limiting_design(cfg, n, correct_covariates=True)
        assert int(np.sum(visit.reshape(500, n).sum(axis=1) == 0)) >= min_empty
        ref = fit_cox(grid_dataset(design, visit, n), LIMITING_SPEC)
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


@pytest.mark.parametrize("outcome, correct", [("continuous", True), ("count", False)])
def test_pilot_started_limiting_fit_matches_general_engine(monkeypatch, outcome,
                                                           correct):
    cfg = cont_cfg(outcome=outcome, gamma_z=1.25, phi_true=0.3,
                   scenario="s4_SF_transformedZ", seed=1)
    n = 400
    ref = fit_cox(grid_dataset(*_limiting_design(cfg, n, correct), n), LIMITING_SPEC)
    fits = []
    grid_fit = simlab._grid_fit

    def spy(design, visit, m, start=None):
        fits.append((m, start is None))
        return grid_fit(design, visit, m, start)

    monkeypatch.setattr(simlab, "_grid_fit", spy)
    monkeypatch.setattr(simlab, "_PILOT_PATIENTS", 40)
    phi = limiting_phi(cfg, n, correct_covariates=correct)
    assert fits == [(40, True), (400, False)]
    assert abs(phi - ref.gamma[-1]) <= 1e-7


@pytest.mark.parametrize("failing, error", [("pilot", ConvergenceError),
                                            ("pilot", ValidationError),
                                            ("started fit", SeparationError)])
def test_a_failed_pilot_leaves_the_fit_from_zero(monkeypatch, failing, error):
    cfg = cont_cfg(gamma_z=1.25, phi_true=0.3, scenario="s4_SF_transformedZ",
                   seed=3)
    n = 300
    cold = limiting_phi(cfg, n)          # n < 10 * _PILOT_PATIENTS: no pilot
    fits = []
    grid_fit = simlab._grid_fit

    def failing_fit(design, visit, m, start=None):
        fits.append((m, start is None))
        if (m < n) if failing == "pilot" else (start is not None):
            raise error("injected failure")
        return grid_fit(design, visit, m, start)

    monkeypatch.setattr(simlab, "_grid_fit", failing_fit)
    monkeypatch.setattr(simlab, "_PILOT_PATIENTS", 30)
    assert limiting_phi(cfg, n) == cold
    assert fits[-1] == (n, True) and len(fits) == (2 if failing == "pilot" else 3)


def whole_draw(reference):
    """The arrays of a whole :func:`_draw_panel` draw among the reference
    draws: all but S(y), which only the visit probabilities and the
    limiting design read."""
    x, z1, z2, y, _, *rest = reference
    return x, z1, z2, y, *rest


@settings(max_examples=25, deadline=None)
@given(outcome=st.sampled_from(["continuous", "count"]),
       gamma_z=st.floats(-2.0, 2.0), phi_true=st.floats(-0.5, 0.5),
       seed=st.integers(0, 2 ** 16), n=st.integers(1, 12))
def test_draw_panel_equals_reference_formulas(outcome, gamma_z, phi_true, seed, n):
    cfg = cont_cfg(outcome=outcome, gamma_z=gamma_z, phi_true=phi_true)
    got = _draw_panel(cfg, substream(seed, 5), n)
    want = whole_draw(oracles.draw_panel(cfg, substream(seed, 5), n))
    assert len(got) == len(want) == 7
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(max_examples=15, deadline=None)
@given(outcome=st.sampled_from(["continuous", "count"]),
       gamma_z=st.floats(-2.0, 2.0), phi_true=st.floats(-0.5, 0.5),
       seed=st.integers(0, 2 ** 16), n=st.integers(1, 12))
def test_draw_without_transformed_covariates_is_the_full_draw_less_them(
        outcome, gamma_z, phi_true, seed, n):
    cfg = cont_cfg(outcome=outcome, gamma_z=gamma_z, phi_true=phi_true)
    full = _draw_panel(cfg, substream(seed, 5), n)
    part = _draw_panel(cfg, substream(seed, 5), n, transformed=False)
    assert (len(full), len(part)) == (7, 5)
    for a, b in zip(part, full):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("outcome", ["continuous", "count"])
def test_draw_without_visits_is_the_outcome_of_the_full_draw(outcome):
    # x, z1, z2 and y, with no S(y) for either outcome
    cfg = cont_cfg(outcome=outcome, gamma_z=1.25, phi_true=0.3)
    full = _draw_panel(cfg, substream(3, 5), 7)
    part = _draw_panel(cfg, substream(3, 5), 7, transformed=False, visits=False)
    assert len(part) == 4
    for a, b in zip(part, full):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("outcome", ["continuous", "count"])
@pytest.mark.parametrize("transformed", [True, False])
@settings(max_examples=8, deadline=None)
@given(tile=st.sampled_from([1, 3, 13]), gamma_z=st.floats(-2.0, 2.0),
       phi_true=st.floats(-0.5, 0.5), seed=st.integers(0, 2 ** 16),
       n=st.integers(1, 12))
def test_draws_do_not_depend_on_the_tile_size(outcome, transformed, tile, gamma_z,
                                              phi_true, seed, n):
    # tiles of one patient, tiles with a partial last one, and one tile
    cfg = cont_cfg(outcome=outcome, gamma_z=gamma_z, phi_true=phi_true)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simlab, "_TILE", tile)
        got = _draw_panel(cfg, substream(seed, 5), n, transformed)
    want = whole_draw(oracles.draw_panel(cfg, substream(seed, 5), n))
    assert len(got) == (7 if transformed else 5)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("outcome", ["continuous", "count"])
@pytest.mark.parametrize("correct", [True, False])
def test_limiting_design_is_the_time_major_stack_of_reference_draws(
        monkeypatch, outcome, correct):
    # blocks of 7 patients in tiles of 3: n_large = 17 gives two full blocks
    # and a partial last one, each with a partial last tile
    monkeypatch.setattr(simlab, "_DRAW_BLOCK", 7)
    monkeypatch.setattr(simlab, "_TILE", 3)
    cfg = cont_cfg(outcome=outcome, gamma_z=1.25, phi_true=0.3, seed=11)
    n_large = 17
    design, visit = _limiting_design(cfg, n_large, correct)
    want = np.empty((4, 500, n_large), dtype=np.float32)
    want_visit = np.empty((500, n_large), dtype=bool)
    for c, lo in enumerate(range(0, n_large, 7)):
        m = min(7, n_large - lo)
        rng = substream(cfg.seed, simlab._LIMITING_STREAM_BASE + c)
        x, z1, z2, _, s_y, v, z1s, z2s = oracles.draw_panel(cfg, rng, m)
        a, b = (z1, z2) if correct else (z1s, z2s)
        for k, values in enumerate((a, b, a * b, s_y)):
            want[k, :, lo:lo + m] = values.T.astype(np.float32)
        want_visit[:, lo:lo + m] = v.T
        assert design.x[lo:lo + m].tobytes() == x[:, 0].tobytes()
    varying = design.varying
    assert varying.dtype == np.float32 and varying.shape == (4, 500 * n_large)
    assert varying.tobytes() == want.tobytes()
    assert visit.tobytes() == want_visit.tobytes()


@pytest.mark.parametrize("outcome", ["continuous", "count"])
def test_limiting_design_holds_three_arrays_of_draws_per_block(outcome):
    # one full block: besides the design and the visit flags, z1, z2 and
    # the visit probabilities, and a few tiles
    cfg = cont_cfg(outcome=outcome, gamma_z=1.25, phi_true=0.3, seed=1)
    tracemalloc.start()
    try:
        design, visit = _limiting_design(cfg, simlab._DRAW_BLOCK, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_array = simlab._DRAW_BLOCK * 500 * 8
    held = design.varying.nbytes + design.x.nbytes + visit.nbytes
    assert peak - held <= 3.5 * one_array


def test_limiting_design_keeps_x_once_per_patient():
    # four float32 rows per grid row and one float64 x per patient: 16
    # bytes per grid row plus 8 per patient, not five float32 rows
    n = 30
    design, visit = _limiting_design(cont_cfg(phi_true=0.3, seed=2), n, False)
    assert design.x.dtype == np.float64 and design.x.shape == (n,)
    assert set(np.unique(design.x)) <= {0.0, 1.0}
    assert design.varying.nbytes + design.x.nbytes == 16 * 500 * n + 8 * n
    assert visit.shape == (500 * n,)


@pytest.mark.parametrize("correct", [True, False])
def test_grid_design_kernel_equals_the_dense_design_bit_for_bit(correct):
    # the grid design fills each block of pairs as a per-block cast of the
    # dense float32 stack does, x from patient pair % n: blocks of 7 and
    # n - 1 start partway through a grid time, n + 3 and 3n + 1 wrap over
    # the patients, and 1 << 15 holds every pair
    from irrvis import cox

    cfg = cont_cfg(gamma_z=1.25, phi_true=0.3, scenario="s4_SF_transformedZ", seed=5)
    n = 40
    design, visit = _limiting_design(cfg, n, correct)
    dense = dense_design(design)
    rs = RiskStructure.grid(GRID_TIMES, n, visit)
    z_visit = design.visits(rs.visit_rows)
    want_visit = dense[:, rs.visit_rows].T.astype(np.float64)
    assert z_visit.flags.c_contiguous == want_visit.flags.c_contiguous
    assert z_visit.tobytes() == want_visit.tobytes()
    # the kernel's blocks hold whole grid times or a piece of one; the fill
    # takes any range, also one that starts partway through a grid time
    # and ends partway through a later one
    pairs = 500 * n
    for lo, hi in ((0, 1), (5, 45), (n - 1, 2 * n + 1), (33, 33 + 3 * n + 2),
                   (pairs - 7, pairs)):
        out = np.empty((5, hi - lo))
        assert design.fill(out, lo, hi) is out
        assert out.tobytes() == dense[:, lo:hi].astype(np.float64).tobytes()
    q = np.ones(rs.visit_rows.size)
    gammas = (np.zeros(5), np.array([0.2, -0.1, 0.05, 0.4, 0.3]),
              np.array([-0.5, 0.3, -0.2, -1.0, 0.8]))
    for block in (7, n - 1, n + 3, 3 * n + 1, 1 << 15):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cox, "_BLOCK_PAIRS", block)
            grid, cast = (cox._PartialLikelihood(rs, z, z_visit, q)
                          for z in (design, BlockCast(dense)))
        for gamma in gammas:
            got = (*grid.at(gamma), grid.breslow(gamma))
            want = (*cast.at(gamma), cast.breslow(gamma))
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_correct_covariates_are_drawn_without_the_transformed(monkeypatch):
    # the correctZ weight models, the complete-data fit and the limiting
    # fit on the correct covariates read no transformed covariate
    requested = []
    draw = simlab._draw_panel

    def spy(cfg, rng, n, transformed=True, **kw):
        requested.append(transformed)
        return draw(cfg, rng, n, transformed, **kw)

    monkeypatch.setattr(simlab, "_draw_panel", spy)
    for scenario in ("s1_noSF_correctZ", "s3_SF_correctZ"):
        run_study(cont_cfg(n=30, n_reps=2, phi_true=0.3, scenario=scenario),
                  threads=1)
    complete_data_fit(cont_cfg(), n_large=50)
    limiting_phi(cont_cfg(phi_true=0.3), n_large=50, correct_covariates=True)
    assert requested == [False] * 6
    run_study(cont_cfg(n=30, n_reps=1, scenario="s2_noSF_transformedZ"),
              threads=1, estimators=("naive",))
    limiting_phi(cont_cfg(phi_true=0.3), n_large=50)
    generate(cont_cfg(n=5), 0)
    assert requested == [False] * 6 + [True] * 3


def public_replicate(cfg, rep, phi_w):
    """What :func:`_run_replicate` gives for the three observed-data
    estimators, through the public functions on ``generate``'s dataset."""
    observed, _ = generate(cfg, rep)
    model = cfg.marginal_model()

    def coef(weights=None):
        try:
            fit = fit_weighted_gee(observed, model, weights)
        except IrrvisError:
            return None
        return (float(fit.beta[1]), float(fit.beta[2]))

    out = {"naive": coef()}
    try:
        q = q_values(observed, cfg.selection(), phi_w)
        cox = fit_cox(observed, ModelMatrixSpec(cfg.weight_covariates()), q)
    except IrrvisError:
        return {**out, "mle": None, "balancing": None}, None
    try:
        out["mle"] = coef(mle_weights(cox, observed, q))
    except IrrvisError:
        out["mle"] = None
    try:
        bal = balancing_weights(observed, ModelMatrixSpec(cfg.balance_terms()), q, cox)
    except IrrvisError:
        return {**out, "balancing": None}, None
    out["balancing"] = coef(bal)
    return out, bal.max_abs_residual


@pytest.mark.parametrize("outcome", ["continuous", "count"])
@pytest.mark.parametrize("scenario", ["s3_SF_correctZ", "s4_SF_transformedZ"])
def test_replicate_equals_the_public_pipeline(outcome, scenario):
    # n = 3 fails every stage on some replicates: the visit model, each
    # kind of weights and the marginal fits
    failed = set()
    cells = [(3, range(8)), (60, range(2))]
    if outcome == "count" and scenario == "s3_SF_correctZ":
        cells.append((400, range(1)))    # the benchmark's study cell
    for n, reps in cells:
        cfg = cont_cfg(outcome=outcome, gamma_z=1.25, phi_true=0.3, n=n,
                       scenario=scenario, seed=1)
        for rep in reps:
            got = _run_replicate(cfg, rep, 0.3, ("naive", "mle", "balancing"))
            want = public_replicate(cfg, rep, 0.3)
            assert got == want
            failed.update(k for k, v in got[0].items() if v is None)
    assert failed == {"naive", "mle", "balancing"}


def test_balancing_step_of_a_replicate_keeps_no_design_on_the_pairs(monkeypatch):
    # the benchmark's study cell: the balance design is summed per event a
    # block of pairs at a time, so the step from its per-event sums to the
    # solved weights never holds the terms on all M incidence pairs
    cfg = cont_cfg(outcome="count", gamma_z=1.25, phi_true=0.3, n=400,
                   scenario="s3_SF_correctZ", seed=1)
    seen = {}
    design_sums, balance = RiskStructure.design_sums, weights._balance

    def traced_sums(rs, bound, dataset):
        seen["pairs"] = rs.cover_row.size
        tracemalloc.reset_peak()
        seen["base"] = tracemalloc.get_traced_memory()[0]
        return design_sums(rs, bound, dataset)

    def traced_balance(system, hspec, phi, start=None):
        out = balance(system, hspec, phi, start)
        seen["peak"] = tracemalloc.get_traced_memory()[1] - seen["base"]
        seen["terms"] = len(hspec)
        return out

    monkeypatch.setattr(RiskStructure, "design_sums", traced_sums)
    monkeypatch.setattr(weights, "_balance", traced_balance)
    tracemalloc.start()
    try:
        est, _ = _run_replicate(cfg, 0, 0.3, ("balancing",))
    finally:
        tracemalloc.stop()
    assert est["balancing"] is not None
    assert seen["pairs"] == 400 * 312 and seen["terms"] == 10
    assert seen["peak"] < 0.5 * seen["pairs"] * seen["terms"] * 8


def test_replicate_fits_one_visit_model_for_both_kinds_of_weights(monkeypatch):
    # the replicate runs the public pipeline, so it fits the visit model by
    # simlab.fit_cox, once, and both kinds of weights read that one fit
    fits, read = [], []

    def counted(*args, **kwargs):
        fits.append(fit_cox(*args, **kwargs))
        return fits[-1]

    def reads(fit, position):
        def wrapper(*args):
            read.append(args[position])
            return fit(*args)
        return wrapper

    monkeypatch.setattr(simlab, "fit_cox", counted)
    monkeypatch.setattr(simlab, "mle_weights", reads(mle_weights, 0))
    monkeypatch.setattr(simlab, "balancing_weights", reads(balancing_weights, 3))
    cfg = cont_cfg(gamma_z=1.25, phi_true=0.3, n=60, scenario="s3_SF_correctZ",
                   seed=1)
    est, residual = _run_replicate(cfg, 0, 0.3, ESTIMATORS)
    assert len(fits) == 1 and len(read) == 2
    assert all(cox is fits[0] for cox in read)
    assert all(est[e] is not None for e in ESTIMATORS) and residual is not None


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



@pytest.mark.parametrize("field", ["n", "n_reps", "seed"])
@pytest.mark.parametrize("value", [100.5, 100.0, True, "100"])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValidationError, match=f"scenario {field} must be an integer"):
        cont_cfg(**{field: value})


@pytest.mark.parametrize("key", ["gamma_z", "phi_true"])
@pytest.mark.parametrize("value", ["1", None, True])
def test_config_rejects_a_non_number(key, value):
    with pytest.raises(ValidationError, match=f"{key} must be finite and real"):
        cont_cfg(**{key: value})


def test_config_accepts_numpy_floats():
    cfg = cont_cfg(gamma_z=np.float32(0.5), phi_true=np.int64(0))
    assert cfg.gamma_z == 0.5 and cfg.phi_true == 0


@pytest.mark.parametrize("n_large", [2.5, 4000.0, True, "10"])
def test_large_fits_reject_a_non_integer_size(n_large):
    cfg = cont_cfg()
    with pytest.raises(ValidationError, match="n_large must be an integer"):
        limiting_phi(cfg, n_large)
    with pytest.raises(ValidationError, match="n_large must be an integer"):
        complete_data_fit(cfg, n_large)


@pytest.mark.parametrize("n_large", [0, -3, -5])
def test_large_fits_need_a_patient(n_large):
    cfg = cont_cfg()
    with pytest.raises(ValidationError, match="n_large must be at least 1"):
        limiting_phi(cfg, n_large)
    with pytest.raises(ValidationError, match="n_large must be at least 1"):
        complete_data_fit(cfg, n_large)


@pytest.mark.parametrize("value", ["no", 1, None, np.float64(1.0)])
def test_limiting_phi_rejects_a_non_bool_covariate_choice(value):
    with pytest.raises(ValidationError, match="correct_covariates must be a bool"):
        limiting_phi(cont_cfg(phi_true=0.3), 50, correct_covariates=value)


def test_limiting_phi_accepts_a_numpy_bool():
    cfg = cont_cfg(phi_true=0.3)
    assert (limiting_phi(cfg, 50, correct_covariates=np.bool_(True))
            == limiting_phi(cfg, 50, correct_covariates=True))


def test_config_accepts_numpy_integers():
    cfg = cont_cfg(n=np.int64(100), n_reps=np.int32(2), seed=np.uint8(0))
    assert cfg.n == 100 and cfg.n_reps == 2 and cfg.seed == 0


def test_run_study_validation(monkeypatch):
    cfg = cont_cfg(n=10, n_reps=1)
    with pytest.raises(ValidationError, match="unknown estimator"):
        run_study(cfg, threads=1, estimators=("naive", "oracle"))
    with pytest.raises(ValidationError, match="at least 1"):
        run_study(cfg, threads=0)
    for threads in (1.5, 2.0, True, "2"):
        with pytest.raises(ValidationError, match="threads must be an integer"):
            run_study(cfg, threads=threads)
    monkeypatch.setenv("IRRVIS_THREADS", "two")
    with pytest.raises(ValidationError, match="IRRVIS_THREADS"):
        run_study(cfg, threads=None)


@pytest.mark.parametrize("estimators, message", [
    ((), "at least one"), ([], "at least one"),
    (("naive", "naive"), "duplicates"), (("mle", "naive", "mle"), "duplicates"),
    ("naive", "the string 'naive'"), (("naive", "oracle"), "unknown estimator")])
def test_run_study_rejects_bad_estimators_before_drawing(monkeypatch, estimators,
                                                         message):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a panel")

    monkeypatch.setattr(simlab, "_draw_panel", no_draw)
    with pytest.raises(ValidationError, match=f"estimators.*{message}"):
        run_study(cont_cfg(n=10, n_reps=2), threads=1, estimators=estimators)


def test_run_study_takes_any_iterable_of_estimators():
    cfg = cont_cfg(n=60, n_reps=2, seed=3)
    want = run_study(cfg, threads=1, estimators=("naive", "complete"))
    got = run_study(cfg, threads=1, estimators=iter(["naive", "complete"]))
    assert got.rows == want.rows


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


def test_complete_data_fit_holds_one_block_of_draws():
    # two blocks of draws at 8 000 patients, one at 4 000; the first is
    # freed before the second is drawn, so the peaks match.  The betas
    # are those of the fit that held both blocks at once.
    cfg = cont_cfg(seed=0)
    peaks, betas = [], []
    for n_large in (4000, 8000):
        tracemalloc.start()
        try:
            betas.append(complete_data_fit(cfg, n_large=n_large))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.15 * peaks[0]
    # a block holds z1, z2 and y: its draw ends after the outcome
    assert peaks[0] <= 3.5 * 4000 * 500 * 8
    assert [b.hex() for b in betas[1]] == [
        "0x1.3fcd8bcd12163p+2", "-0x1.1ffed6138b532p+2", "-0x1.ff211cd09b03ep-2"]


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
