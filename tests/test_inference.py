import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import drawn_positions, grid_rows, random_panel
from irrvis import (AnalysisConfig, BalanceSpec, Dataset, IrrvisError,
                    MarginalModelSpec, ModelMatrixSpec, NumericError,
                    PipelineError, Resampling,
                    ValidationError, analyze_once, bootstrap, fit_weighted_gee,
                    jackknife, sweep, q_values, fit_cox, mle_weights,
                    SelectionSpec, substream)
from irrvis.inference import _Prepared, _ResampleStages
from irrvis.riskset import RiskStructure

IDENT = MarginalModelSpec(ModelMatrixSpec(["1", "z1"]))

# the goldens' tolerance: a resample sums the full data's pairs and visit
# rows weighted by its copies, in another order than its taken patients'
RTOL = 1e-10


def none_config(model=IDENT, **kw):
    return AnalysisConfig(model=model, **kw)


def mle_config(model=IDENT, **kw):
    kw.setdefault("zspec", ModelMatrixSpec(["z1"]))
    return AnalysisConfig(model=model, weight_kind="mle", **kw)


# -- configuration -----------------------------------------------------------


def test_resampling_validation():
    with pytest.raises(ValidationError, match="unknown resampling kind"):
        Resampling(kind="jacknife")
    with pytest.raises(ValidationError, match="at least 2 draws"):
        Resampling(kind="bootstrap", b=1)
    with pytest.raises(ValidationError, match="non-negative"):
        Resampling(kind="bootstrap", seed=-1)



@pytest.mark.parametrize("seed", [2 ** 64, 2 ** 70])
def test_resampling_rejects_a_seed_beyond_the_stream_key(seed):
    with pytest.raises(ValidationError, match="seed must be non-negative, below 2"):
        Resampling("bootstrap", seed=seed)
    Resampling("bootstrap", seed=2 ** 64 - 1)


@pytest.mark.parametrize("b, seed, match", [
    (1, 0, "at least 2 draws"),
    (0, 0, "at least 2 draws"),
    (4, -1, "seed must be non-negative"),
    (4, 2 ** 64, "seed must be non-negative, below 2"),
    (2.5, 0, "resampling b must be an integer"),
    (4, 1.0, "resampling seed must be an integer"),
])
def test_bootstrap_checks_its_draws_as_resampling_does(b, seed, match):
    ds = random_panel(4, n_patients=8, p_visit=0.7)
    with pytest.raises(ValidationError, match=match):
        bootstrap(ds, none_config(), 0.0, b=b, seed=seed)


@pytest.mark.parametrize("field", ["b", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_resampling_rejects_non_integer_counts(field, value):
    with pytest.raises(ValidationError, match=f"resampling {field} must be an integer"):
        Resampling("bootstrap", **{field: value})
    with pytest.raises(ValidationError, match="must be an integer"):
        Resampling("jackknife", **{field: value})


def test_resampling_accepts_numpy_integers():
    ds = random_panel(4, n_patients=8, p_visit=0.7)
    numpy_ints = Resampling("bootstrap", b=np.int64(6), seed=np.uint32(9))
    plain = Resampling("bootstrap", b=6, seed=9)
    got = sweep(ds, none_config(resampling=numpy_ints))
    want = sweep(ds, none_config(resampling=plain))
    assert got.rows == want.rows


def test_config_validation():
    with pytest.raises(ValidationError, match="unknown weight kind"):
        none_config(weight_kind="stabilized")
    with pytest.raises(ValidationError, match="visit-model terms"):
        AnalysisConfig(model=IDENT, weight_kind="mle")
    with pytest.raises(ValidationError, match="balance terms"):
        AnalysisConfig(model=IDENT, weight_kind="balancing",
                       zspec=ModelMatrixSpec(["z1"]))
    with pytest.raises(ValidationError, match="non-empty"):
        none_config(phi_grid=())
    with pytest.raises(ValidationError, match="finite"):
        none_config(phi_grid=(0.0, float("inf")))
    with pytest.raises(ValidationError, match="strictly increasing"):
        none_config(phi_grid=(0.0, 1.0, 1.0))


def test_config_grid_coerced_to_float_tuple():
    cfg = none_config(phi_grid=[0, 1, 2])
    assert cfg.phi_grid == (0.0, 1.0, 2.0)
    assert all(isinstance(p, float) for p in cfg.phi_grid)


@pytest.mark.parametrize("grid", [("0.1",), (True, 2.0), (0.0, None),
                                  (0.0, complex(1.0, 0.0)), (np.bool_(True),)])
def test_config_grid_rejects_a_non_number(grid):
    with pytest.raises(ValidationError, match="phi grid values must be real"):
        none_config(phi_grid=grid)


def test_config_grid_accepts_numpy_numbers():
    cfg = none_config(phi_grid=(np.int64(-1), np.float32(0.5), np.float64(2.0)))
    assert cfg.phi_grid == (-1.0, 0.5, 2.0)
    assert all(type(p) is float for p in cfg.phi_grid)


def test_config_builds_balance_from_hspec():
    cfg = AnalysisConfig(model=IDENT, weight_kind="balancing",
                         zspec=ModelMatrixSpec(["z1"]),
                         hspec=ModelMatrixSpec(["1", "z1"]))
    assert cfg.balance is not None
    assert tuple(cfg.balance.hspec.names) == ("1", "z1")


@pytest.mark.parametrize("kind", ["balancing", "mle"])
def test_config_balance_is_derived_from_hspec(kind):
    hspec = ModelMatrixSpec(["1", "z1"])
    cfg = AnalysisConfig(model=IDENT, weight_kind=kind,
                         zspec=ModelMatrixSpec(["z1"]), hspec=hspec)
    assert isinstance(cfg.balance, BalanceSpec)
    assert cfg.balance.hspec is cfg.hspec
    assert [f.name for f in dataclasses.fields(cfg) if f.init] == [
        "model", "weight_kind", "zspec", "hspec", "selection", "phi_grid",
        "resampling"]
    with pytest.raises(TypeError):
        AnalysisConfig(model=IDENT, weight_kind=kind,
                       zspec=ModelMatrixSpec(["z1"]), hspec=hspec,
                       balance=BalanceSpec(ModelMatrixSpec(["1", "z2"])))
    with pytest.raises(ValidationError, match="constant term 1"):
        AnalysisConfig(model=IDENT, weight_kind=kind,
                       zspec=ModelMatrixSpec(["z1"]),
                       hspec=ModelMatrixSpec(["z1"]))
    assert mle_config().balance is None


# -- single pass -------------------------------------------------------------


def test_unweighted_pass_is_plain_gee():
    ds = random_panel(1)
    fit, wset = analyze_once(ds, none_config(), 0.0)
    assert wset is None
    direct = fit_weighted_gee(ds, IDENT, weights=None)
    assert np.array_equal(fit.beta, direct.beta)


def test_mle_pass_matches_manual_pipeline():
    ds = random_panel(2, n_patients=10)
    cfg = mle_config()
    fit, wset = analyze_once(ds, cfg, 0.4)
    q = q_values(ds, SelectionSpec(), 0.4)
    cox = fit_cox(ds, cfg.zspec, q)
    manual_w = mle_weights(cox, ds, q)
    assert np.array_equal(wset.weights, manual_w.weights)
    direct = fit_weighted_gee(ds, IDENT, weights=manual_w.weights)
    assert np.array_equal(fit.beta, direct.beta)


def test_selection_domain_error_is_not_wrapped():
    # log1p on an outcome of -2 fails the same way at every phi, so it
    # surfaces as the original validation error, not a pipeline failure
    rows = grid_rows("a", {"z1": 1.0}, {1: -2.0, 2: 0.0})
    rows += grid_rows("b", {"z1": -1.0}, {3: 0.5})
    ds = Dataset.from_rows(rows, tau=4.0)
    cfg = mle_config(selection=SelectionSpec("log1p"))
    with pytest.raises(ValidationError, match="outcomes > -1"):
        analyze_once(ds, cfg, 0.5)


def test_stage_selection_values_on_overflowing_q():
    rows = grid_rows("a", {"z1": 1.0}, {1: -5.0, 2: 0.0})
    rows += grid_rows("b", {"z1": -1.0}, {3: 0.5})
    ds = Dataset.from_rows(rows, tau=4.0)
    with pytest.raises(PipelineError) as err:
        analyze_once(ds, mle_config(), 200.0)
    assert err.value.stage == "selection values"
    assert err.value.phi == 200.0
    assert "overflow at phi=200" in str(err.value)


def test_stage_weights_on_collinear_balance_terms():
    # w and 2w are outside the visit model and the visit pattern is uneven,
    # so the balance residual at the starting point is nonzero and Newton
    # must face the singular Jacobian
    rows = grid_rows("p0", {"z1": -1.0, "w": 0.3, "w2": 0.6}, {1: -1.0, 3: 0.2})
    rows += grid_rows("p1", {"z1": 0.0, "w": -0.8, "w2": -1.6}, {2: 0.0})
    rows += grid_rows("p2", {"z1": 1.0, "w": 1.4, "w2": 2.8}, {1: 1.0},
                      censored_from=3)
    rows += grid_rows("p3", {"z1": 2.0, "w": 0.1, "w2": 0.2}, {2: 2.0, 4: 0.5})
    ds = Dataset.from_rows(rows, tau=4.0)
    cfg = AnalysisConfig(model=IDENT, weight_kind="balancing",
                         zspec=ModelMatrixSpec(["z1"]),
                         hspec=ModelMatrixSpec(["1", "w", "w2"]))
    with pytest.raises(PipelineError) as err:
        analyze_once(ds, cfg, 0.0)
    assert err.value.stage == "weights"
    assert "collinear balance terms" in str(err.value)


def test_stage_marginal_fit_on_collinear_design():
    rows = []
    for pid, z in enumerate([-1.0, 0.0, 1.0, 2.0]):
        rows += grid_rows(f"p{pid}", {"z1": z, "z2": 2.0 * z}, {1 + pid % 2: z})
    ds = Dataset.from_rows(rows, tau=4.0)
    bad = MarginalModelSpec(ModelMatrixSpec(["1", "z1", "z2"]))
    with pytest.raises(PipelineError) as err:
        analyze_once(ds, none_config(model=bad), 0.0)
    assert err.value.stage == "marginal fit"


# -- jackknife ---------------------------------------------------------------


def test_jackknife_matches_direct_loop():
    ds = random_panel(3, n_patients=5, p_visit=0.7)
    cfg = none_config()
    res = jackknife(ds, cfg, 0.0)
    keep = np.arange(ds.n_patients)
    betas = []
    for k in range(ds.n_patients):
        sub = ds.take_patients(np.delete(keep, k))
        betas.append(fit_weighted_gee(sub, IDENT, weights=None).beta)
    est = np.asarray(betas)
    dev = est - est.mean(axis=0)
    want = np.sqrt((len(betas) - 1) / len(betas) * (dev * dev).sum(axis=0))
    assert np.allclose(res.se, want, rtol=1e-12)
    assert res.n_used == 5
    assert res.n_failed == 0


def test_jackknife_needs_two_patients():
    ds = Dataset.from_rows(grid_rows("a", {"z1": 1.0}, {1: 0.5}), tau=4.0)
    with pytest.raises(ValidationError, match="at least 2 patients"):
        jackknife(ds, none_config(), 0.0)


@pytest.mark.parametrize("phi", [None, "0.3", True, float("nan"), float("inf")])
@pytest.mark.parametrize("config", [none_config, mle_config])
def test_entry_points_reject_a_non_number_phi(config, phi):
    ds = random_panel(1)
    for run in (lambda: analyze_once(ds, config(), phi),
                lambda: jackknife(ds, config(), phi),
                lambda: bootstrap(ds, config(), phi, 2, 0)):
        with pytest.raises(ValidationError, match="phi must be finite and real"):
            run()


def test_entry_points_accept_integer_and_numpy_phi():
    ds = random_panel(1)
    want = analyze_once(ds, mle_config(), 1.0)[0].beta
    for phi in (1, np.int64(1), np.float32(1.0)):
        assert np.array_equal(analyze_once(ds, mle_config(), phi)[0].beta, want)
    assert np.array_equal(jackknife(ds, mle_config(), np.int64(1)).se,
                          jackknife(ds, mle_config(), 1.0).se)


def test_jackknife_too_few_converged_deletions():
    # a covariate shared by every patient is inestimable in the visit model
    # once any single patient is removed (or at all); deletions cannot fit
    rows = grid_rows("a", {"z1": 1.0}, {1: 0.5, 2: 1.0})
    rows += grid_rows("b", {"z1": 1.0}, {2: 0.0, 3: 1.5})
    ds = Dataset.from_rows(rows, tau=4.0)
    with pytest.raises(NumericError, match="fewer than 2 deletions"):
        jackknife(ds, mle_config(), 0.0)


# -- bootstrap ---------------------------------------------------------------


def test_bootstrap_matches_manual_replication():
    ds = random_panel(4, n_patients=8, p_visit=0.7)
    cfg = none_config()
    res = bootstrap(ds, cfg, 0.0, b=16, seed=9)
    betas = []
    for r in range(16):
        idx = np.sort(substream(9, r).integers(0, 8, size=8))
        betas.append(fit_weighted_gee(ds.take_patients(idx), IDENT,
                                      weights=None).beta)
    # a replicate weights the full data by its copies, so its sums run in
    # another order than on the taken patients
    est = np.asarray(betas)
    assert np.allclose(res.se, est.std(axis=0, ddof=1), rtol=RTOL, atol=0.0)
    assert res.n_used == 16 and res.n_failed == 0


def test_bootstrap_seed_changes_replicates():
    ds = random_panel(4, n_patients=8, p_visit=0.7)
    cfg = none_config()
    a = bootstrap(ds, cfg, 0.0, b=16, seed=9)
    b = bootstrap(ds, cfg, 0.0, b=16, seed=9)
    c = bootstrap(ds, cfg, 0.0, b=16, seed=10)
    assert np.array_equal(a.se, b.se)
    assert not np.array_equal(a.se, c.se)


def test_bootstrap_no_replicate_converged():
    # a covariate constant across patients is constant within every risk
    # set, so the visit model is rank deficient in every resample
    rows = grid_rows("a", {"z1": 1.0}, {1: 0.5})
    rows += grid_rows("b", {"z1": 1.0}, {2: 0.0})
    ds = Dataset.from_rows(rows, tau=4.0)
    with pytest.raises(NumericError, match="no replicate converged"):
        bootstrap(ds, mle_config(), 0.0, b=3, seed=0)


def test_bootstrap_warns_when_many_replicates_fail():
    # z1 in {0, 1}: the all-same resamples are singular, the mixed ones fit
    rows = grid_rows("a", {"z1": 0.0}, {1: 0.5, 3: 1.0})
    rows += grid_rows("b", {"z1": 1.0}, {2: 0.0, 4: 1.5})
    ds = Dataset.from_rows(rows, tau=4.0)
    with pytest.warns(UserWarning, match="replicates failed"):
        res = bootstrap(ds, none_config(), 0.0, b=30, seed=1)
    assert res.n_failed > 3
    assert res.n_used + res.n_failed == 30


# -- sweep -------------------------------------------------------------------


def overflow_dataset():
    rows = grid_rows("a", {"z1": 1.0}, {1: -5.0, 2: 0.0})
    rows += grid_rows("b", {"z1": -1.0}, {3: 0.5})
    rows += grid_rows("c", {"z1": 0.5}, {2: 1.0})
    return Dataset.from_rows(rows, tau=4.0)


def test_sweep_isolates_failures_per_phi():
    ds = overflow_dataset()
    cfg = mle_config(phi_grid=(0.0, 1.0, 200.0))
    res = sweep(ds, cfg)
    assert res.names == ("1", "z1")
    assert [r["phi"] for r in res.rows] == [0.0, 0.0, 1.0, 1.0, 200.0, 200.0]
    assert [r["term"] for r in res.rows] == ["1", "z1"] * 3
    by_phi = {phi: [r for r in res.rows if r["phi"] == phi]
              for phi in cfg.phi_grid}
    for phi in (0.0, 1.0):
        assert all(r["converged"] for r in by_phi[phi])
        assert all(np.isfinite(r["estimate"]) for r in by_phi[phi])
    assert all(not r["converged"] for r in by_phi[200.0])
    assert all(np.isnan(r["estimate"]) for r in by_phi[200.0])
    assert all(np.isnan(r["weight_median"]) for r in by_phi[200.0])


def test_sweep_keeps_point_fits_and_failures():
    ds = overflow_dataset()
    cfg = mle_config(phi_grid=(0.0, 1.0, 200.0))
    res = sweep(ds, cfg)
    assert list(res.fits) == [0.0, 1.0, 200.0]
    for phi in (0.0, 1.0):
        cox, wset = res.fits[phi]
        q = q_values(ds, cfg.selection, phi)
        want = fit_cox(ds, cfg.zspec, q)
        assert np.array_equal(cox.gamma, want.gamma)
        assert np.array_equal(cox.increments, want.increments)
        assert np.array_equal(wset.weights, mle_weights(want, ds, q).weights)
    failure = res.fits[200.0]
    assert isinstance(failure, PipelineError)
    assert failure.stage == "selection values"
    # a point fit whose jackknife fails keeps its fits beside its NaN rows
    rows = grid_rows("a", {"z1": 1.0}, {1: 0.5, 3: 1.0})
    rows += grid_rows("b", {"z1": -1.0}, {2: 0.0, 3: 1.5})
    res = sweep(Dataset.from_rows(rows, tau=4.0),
                mle_config(resampling=Resampling("jackknife")))
    assert not any(r["converged"] for r in res.rows)
    cox, wset = res.fits[0.0]
    assert cox.names == ("z1",) and wset.kind == "mle"
    assert sweep(ds, none_config()).fits == {0.0: (None, None)}


def test_analyze_once_pair_keeps_its_visit_model_through_pickle():
    ds = random_panel(2, n_patients=10)
    result = analyze_once(ds, mle_config(), 0.4)
    fit, wset = pickle.loads(pickle.dumps(result))
    assert len(result) == 2
    assert np.array_equal(fit.beta, result[0].beta)
    assert np.array_equal(wset.weights, result[1].weights)
    cox = copy.copy(result).visit_model
    assert np.array_equal(cox.gamma, wset.gamma)
    assert analyze_once(ds, none_config(), 0.0).visit_model is None


def test_sweep_does_not_absorb_validation_errors():
    # a bad term name fails identically at every phi; NaN rows would hide it
    ds = random_panel(5)
    cfg = mle_config(zspec=ModelMatrixSpec(["q7"]), phi_grid=(0.0, 0.5))
    with pytest.raises(ValidationError, match="unknown covariate 'q7'"):
        sweep(ds, cfg)


def test_sweep_unweighted_rows_report_unit_weights():
    ds = random_panel(5)
    res = sweep(ds, none_config(phi_grid=(0.0, 0.5)))
    for row in res.rows:
        assert row["weight_min"] == row["weight_median"] == row["weight_max"] == 1.0
        assert np.isnan(row["se"])  # no resampling requested


def test_sweep_jackknife_cis_are_normal_theory():
    ds = random_panel(3, n_patients=6, p_visit=0.7)
    cfg = none_config(resampling=Resampling(kind="jackknife"))
    res = sweep(ds, cfg)
    for row in res.rows:
        assert row["ci_lo"] == row["estimate"] - 1.96 * row["se"]
        assert row["ci_hi"] == row["estimate"] + 1.96 * row["se"]


def test_sweep_estimates_in_grid_order():
    ds = random_panel(6, n_patients=8, p_visit=0.6)
    cfg = mle_config(phi_grid=(-0.5, 0.0, 0.5))
    res = sweep(ds, cfg)
    z = res.estimates("z1")
    assert z.shape == (3,)
    assert np.all(np.isfinite(z))


def test_sweep_csv_round_trip(tmp_path):
    ds = overflow_dataset()
    cfg = mle_config(phi_grid=(0.0, 200.0))
    res = sweep(ds, cfg)
    path = tmp_path / "sweep.csv"
    res.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("phi,term,estimate,se,ci_lo,ci_hi,"
                        "weight_min,weight_median,weight_max,converged")
    assert len(lines) == 1 + len(res.rows)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[1] == "1"
    assert float(first[2]) == res.rows[0]["estimate"]
    assert first[-1] == "1"
    assert lines[-1].endswith(",0")
    assert "nan" in lines[-1]


# -- resamples from the prepared full data ------------------------------------


def parity_dataset():
    """Ties, a patient alone at an event time, one without visits, censoring.

    ``flag`` marks the patient alone at an event time, so resamples without
    that patient cannot estimate or standardize it.
    """
    rng = np.random.default_rng(17)
    rows = []
    for pid in range(9):
        cov = {"z1": float(rng.normal()), "z2": float(rng.normal()),
               "flag": 0.0}
        visits = {k: float(3.0 + rng.normal()) for k in range(1, 7)
                  if rng.random() < 0.5}
        rows += grid_rows(f"p{pid}", cov, visits, n_periods=6,
                          censored_from=5 if pid == 4 else None)
    # on a half-unit grid, so its visit at 2.5 is the only one there
    rows += grid_rows("alone", {"z1": 0.3, "z2": -0.4, "flag": 1.0},
                      {5: 2.5, 8: 3.1}, n_periods=12, step=0.5)
    rows += grid_rows("silent", {"z1": -0.2, "z2": 0.9, "flag": 0.0}, {},
                      n_periods=6)
    return Dataset.from_rows(rows, tau=6.0)


POISSON = MarginalModelSpec(ModelMatrixSpec(["1", "z1", "t"]), link="log",
                            variance="poisson")
STD_X = MarginalModelSpec(ModelMatrixSpec(["1", "std(z1)", "t*std(z2)"]))
STD_Z = ModelMatrixSpec(["std(z1)", "t*std(z2)"])
STD_H = ModelMatrixSpec(["1", "std(z1)", "z2", "t*std(z2)"])

PARITY_CONFIGS = {
    "none": none_config(),
    "none-poisson": none_config(model=POISSON),
    "none-std": none_config(model=STD_X),
    "mle": mle_config(zspec=ModelMatrixSpec(["z1", "z2"])),
    "mle-std": mle_config(model=STD_X, zspec=STD_Z),
    "mle-poisson": mle_config(model=POISSON, zspec=ModelMatrixSpec(["z1", "z2"])),
    "mle-flag": mle_config(zspec=ModelMatrixSpec(["z1", "flag"])),
    "mle-std-flag": mle_config(zspec=ModelMatrixSpec(["z1", "std(flag)"])),
    "balancing": AnalysisConfig(model=IDENT, weight_kind="balancing",
                                zspec=ModelMatrixSpec(["z1"]),
                                hspec=ModelMatrixSpec(["1", "z1", "z2"])),
    "balancing-std": AnalysisConfig(model=STD_X, weight_kind="balancing",
                                    zspec=STD_Z, hspec=STD_H),
    "balancing-flag": AnalysisConfig(model=IDENT, weight_kind="balancing",
                                     zspec=ModelMatrixSpec(["z1"]),
                                     hspec=ModelMatrixSpec(["1", "z1", "flag"])),
    "balancing-poisson": AnalysisConfig(model=POISSON, weight_kind="balancing",
                                        zspec=ModelMatrixSpec(["z1"]),
                                        hspec=ModelMatrixSpec(["1", "z1", "t"])),
}


def resample(prepared, patients, phi, start=None):
    """``analyze_once`` on ``take_patients(np.sort(patients))``, from the
    prepared data: the resample of each patient's copies in ``patients``."""
    copies = np.bincount(patients, minlength=prepared.dataset.n_patients)
    return _ResampleStages(prepared, copies).analyze(phi, start)


def same_failure(got, want):
    """``got`` and ``want`` are failures of the same type, stage and message."""
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert getattr(got, "stage", None) == getattr(want, "stage", None)


def same_pass(prepared, ds, cfg, patients, phi):
    """The prepared resample reproduces ``analyze_once`` on
    ``take_patients(np.sort(patients))`` to relative ``RTOL``, or fails the
    same way; True on success.  Its per-visit outputs are the full data's,
    a visit row's weight counting its patient's copies."""
    try:
        want_fit, want_w = analyze_once(ds.take_patients(np.sort(patients)),
                                        cfg, phi)
    except IrrvisError as exc:
        with pytest.raises(IrrvisError) as err:
            resample(prepared, patients, phi)
        same_failure(err.value, exc)
        return False
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit, w = resample(prepared, patients, phi)
    visits = drawn_positions(prepared.visit_rows, ds.patient_row_bounds,
                             np.sort(patients))
    assert np.allclose(fit.beta, want_fit.beta, rtol=RTOL, atol=0.0)
    assert np.allclose(fit.fitted_means[visits], want_fit.fitted_means,
                       rtol=RTOL, atol=0.0)
    assert fit.n_iter == want_fit.n_iter
    if want_w is None:
        assert w is None
        return True
    copies = np.bincount(patients, minlength=ds.n_patients)
    own = copies[ds.patient_index[prepared.visit_rows]]
    assert np.array_equal(w.weights == 0.0, own == 0)
    assert np.allclose(w.weights[visits] / own[visits], want_w.weights,
                       rtol=RTOL, atol=0.0)
    assert np.allclose(w.gamma, want_w.gamma, rtol=RTOL, atol=0.0)
    assert (w.kind, w.names, w.phi) == (want_w.kind, want_w.names, want_w.phi)
    if want_w.balance_residuals is not None:
        # both are rounding noise below the solver's tolerance
        assert np.allclose(w.balance_residuals, want_w.balance_residuals,
                           rtol=0.0, atol=RTOL)
    return True


@pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
def test_prepared_resamples_match_take_patients(name):
    ds = parity_dataset()
    cfg = PARITY_CONFIGS[name]
    prepared = _Prepared(ds, cfg)
    n = ds.n_patients
    draws = [np.delete(np.arange(n), k) for k in range(n)]
    draws += [substream(5, r).integers(0, n, size=n) for r in range(6)]
    assert any(np.unique(d).size < d.size for d in draws[n:])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ok = [same_pass(prepared, ds, cfg, d, phi)
              for phi in (0.0, 0.4) for d in draws]
    assert sum(ok) > len(ok) // 2


@pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
@pytest.mark.parametrize("phi", [0.0, 0.4])
def test_identity_resample_is_analyze_once(name, phi):
    # every copy 1: every pair weight and Q factor is 1.0, so each sum runs
    # as in analyze_once and gives the same bits
    ds = parity_dataset()
    cfg = PARITY_CONFIGS[name]
    stages = _ResampleStages(_Prepared(ds, cfg), np.ones(ds.n_patients, np.int64))
    assert_same_pass(stages, ds, cfg, phi)


def test_identity_resample_fails_as_analyze_once():
    # phi = 200 overflows the selection values of the whole data
    ds = overflow_dataset()
    cfg = mle_config()
    stages = _ResampleStages(_Prepared(ds, cfg), np.ones(ds.n_patients, np.int64))
    assert_same_pass(stages, ds, cfg, 200.0)


def assert_same_pass(stages, ds, cfg, phi):
    """``stages.analyze(phi)`` equals ``analyze_once(ds, cfg, phi)`` bit for
    bit, or fails with the same type, stage and message."""
    try:
        want = analyze_once(ds, cfg, phi)
    except IrrvisError as exc:
        with pytest.raises(IrrvisError) as err:
            stages.analyze(phi)
        same_failure(err.value, exc)
        return
    got = stages.analyze(phi)
    for field in ("beta", "fitted_means"):
        assert np.array_equal(getattr(got[0], field), getattr(want[0], field))
    assert (got[0].n_iter, got[0].max_eq_norm) == (want[0].n_iter, want[0].max_eq_norm)
    assert (got.visit_model is None) == (want.visit_model is None)
    if want.visit_model is not None:
        for field in ("gamma", "increments", "event_times"):
            assert np.array_equal(getattr(got.visit_model, field),
                                  getattr(want.visit_model, field))
        assert got.visit_model.loglik == want.visit_model.loglik
    if want[1] is None:
        assert got[1] is None
        return
    for field in ("weights", "gamma", "balance_residuals"):
        assert np.array_equal(getattr(got[1], field), getattr(want[1], field))
    assert (got[1].names, got[1].max_abs_residual) == (want[1].names,
                                                       want[1].max_abs_residual)


def late_dataset():
    """Two of six patients followed past t = 4, with visits there; the
    others leave at 4.  ``flag`` marks the two."""
    rng = np.random.default_rng(23)
    rows = []
    for pid in range(6):
        late = pid >= 4
        cov = {"z1": float(rng.normal()), "z2": float(rng.normal()),
               "flag": float(late)}
        visits = {k: float(rng.normal()) for k in range(1, 5) if rng.random() < 0.6}
        if late:
            visits.update({5: float(rng.normal()), 6 + (pid == 5): 0.5})
        rows += grid_rows(f"p{pid}", cov, visits, n_periods=8 if late else 4)
    return Dataset.from_rows(rows, tau=8.0)


@pytest.mark.parametrize("name", ["mle", "mle-std", "balancing", "balancing-std"])
@pytest.mark.parametrize("case", ["bootstrap without the late patients",
                                  "deletion of an event's only visitor"])
def test_resample_events_without_weight_match_take_patients(name, case):
    # the resample keeps every event time of the whole data; those it has
    # no visit at get A_k = 0, and those it has no patient at risk at get
    # an S0 of 0 as well, and every one of their terms must stay an exact
    # zero (no 0/0 and no log 0) for the fit to equal take_patients'
    cfg = PARITY_CONFIGS[name]
    if case.startswith("bootstrap"):
        ds = late_dataset()
        draw = np.array([0, 0, 1, 2, 3, 3])           # nobody at risk past 4
    else:
        ds = parity_dataset()
        alone = ds.patient_ids.index("alone")           # the only visit at 2.5
        draw = np.delete(np.arange(ds.n_patients), alone)
    prepared = _Prepared(ds, cfg)
    visited = np.isin(prepared.rs.event_times, ds.take_patients(draw).event_times())
    assert not visited.all()
    for phi in (0.0, 0.4):
        assert same_pass(prepared, ds, cfg, draw, phi)


def warm_start(prepared, phi):
    """The start every resample's solves get at ``phi``: the solution of
    the point fit, ``analyze_once`` on the whole dataset."""
    point = analyze_once(prepared.dataset, prepared.config, phi)
    return point.visit_model.gamma, point[1].gamma


def outcome(prepared, patients, phi, start=None):
    """``beta`` of the resample, or the type, stage and message it fails with."""
    try:
        return resample(prepared, patients, phi, start)[0].beta
    except IrrvisError as exc:
        return type(exc), getattr(exc, "stage", None), str(exc)


@pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
def test_warm_resamples_match_cold_ones(name):
    ds = parity_dataset()
    cfg = PARITY_CONFIGS[name]
    prepared = _Prepared(ds, cfg)
    n = ds.n_patients
    draws = [np.delete(np.arange(n), k) for k in range(n)]
    draws += [substream(5, r).integers(0, n, size=n) for r in range(6)]
    fitted = moved = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for phi in (0.0, 0.4):
            start = None if cfg.weight_kind == "none" else warm_start(prepared, phi)
            for d in draws:
                cold = outcome(prepared, d, phi)
                warm = outcome(prepared, d, phi, start)
                if isinstance(cold, tuple):
                    assert warm == cold
                    continue
                assert not isinstance(warm, tuple), warm
                fitted += 1
                moved += not np.array_equal(warm, cold)
                tol = 1e-7 * np.maximum(1.0, np.abs(cold))
                assert np.all(np.abs(warm - cold) <= tol)
    assert fitted > len(draws)
    # the start reaches the solves: a weighted resample stops elsewhere
    assert (moved > 0) == (cfg.weight_kind != "none")


@pytest.mark.parametrize("resampling", [Resampling("jackknife"),
                                        Resampling("bootstrap", b=6, seed=5)])
def test_sweep_se_equals_standalone_resampling(resampling):
    ds = parity_dataset()
    cfg = dataclasses.replace(PARITY_CONFIGS["balancing"], phi_grid=(0.0, 0.4),
                              resampling=resampling)
    result = sweep(ds, cfg)
    for phi in cfg.phi_grid:
        if resampling.kind == "jackknife":
            se = jackknife(ds, cfg, phi).se
        else:
            se = bootstrap(ds, cfg, phi, resampling.b, resampling.seed).se
        got = [r["se"] for r in result.rows if r["phi"] == phi]
        assert np.array_equal(got, se)



def test_sweep_weights_each_resample_once(monkeypatch):
    # each deletion weights the prepared structure once, for all three phi,
    # and the warm starts come from the point fits: n weighted structures,
    # where phi by phi would take 3n
    ds = random_panel(6, n_patients=8, p_visit=0.6)
    cfg = mle_config(phi_grid=(-0.5, 0.0, 0.5), resampling=Resampling("jackknife"))
    calls = []
    weighted = RiskStructure.weighted

    def counted(self, *args):
        calls.append(args)
        return weighted(self, *args)

    monkeypatch.setattr(RiskStructure, "weighted", counted)
    res = sweep(ds, cfg)
    assert all(r["converged"] and np.isfinite(r["se"]) for r in res.rows)
    assert len(calls) == ds.n_patients


def test_sweep_fits_each_point_once(monkeypatch):
    # three point fits and three fits of each deletion: the resamples start
    # from the point fits, not from a refit of the whole data
    from irrvis import cox

    ds = random_panel(6, n_patients=8, p_visit=0.6)
    cfg = dataclasses.replace(INVARIANCE_CONFIGS[2], phi_grid=(-0.5, 0.0, 0.5),
                              resampling=Resampling("jackknife"))
    calls = []
    fit = cox._fit

    def counted(*args):
        calls.append(args)
        return fit(*args)

    monkeypatch.setattr(cox, "_fit", counted)
    res = sweep(ds, cfg)
    assert all(r["converged"] and np.isfinite(r["se"]) for r in res.rows)
    assert len(calls) == 3 * ds.n_patients + 3


@pytest.mark.parametrize("resampling", [Resampling("jackknife"),
                                        Resampling("bootstrap", b=8, seed=4)])
def test_resample_failing_validation_is_counted(resampling):
    # std(flag) cannot be standardized on a resample without the one
    # flagged patient: those resamples fail and are counted, as take_patients
    # refits fail, and the others give finite standard errors
    ds = parity_dataset()
    cfg = dataclasses.replace(PARITY_CONFIGS["mle-std-flag"], phi_grid=(0.0, 0.4),
                              resampling=resampling)
    n = ds.n_patients
    if resampling.kind == "jackknife":
        draws = [np.delete(np.arange(n), k) for k in range(n)]
    else:
        draws = [substream(4, r).integers(0, n, size=n) for r in range(8)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = sweep(ds, cfg)
        for phi in cfg.phi_grid:
            failed = 0
            for d in draws:
                try:
                    analyze_once(ds.take_patients(d), cfg, phi)
                except IrrvisError:
                    failed += 1
            if resampling.kind == "jackknife":
                got = jackknife(ds, cfg, phi)
            else:
                got = bootstrap(ds, cfg, phi, resampling.b, resampling.seed)
            assert 0 < got.n_failed == failed < len(draws) - 1
            assert np.all(np.isfinite(got.se))
            se = [r["se"] for r in res.rows if r["phi"] == phi]
            assert np.array_equal(se, got.se)


@pytest.mark.parametrize("resampling", [Resampling("jackknife"),
                                        Resampling("bootstrap", b=8, seed=2)])
def test_sweep_se_beside_a_failed_point_fit_equals_standalone(resampling):
    # phi = 200 overflows the selection values, so its point fit fails and
    # the resampling pass fits the other two phi alone
    ds = overflow_dataset()
    cfg = mle_config(phi_grid=(0.0, 1.0, 200.0), resampling=resampling)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = sweep(ds, cfg)
        for phi in (0.0, 1.0):
            if resampling.kind == "jackknife":
                want = jackknife(ds, cfg, phi).se
            else:
                want = bootstrap(ds, cfg, phi, resampling.b, resampling.seed).se
            got = [r["se"] for r in res.rows if r["phi"] == phi]
            assert np.array_equal(got, want)
    assert isinstance(res.fits[200.0], PipelineError)
    assert all(np.isnan(r["se"]) and not r["converged"]
               for r in res.rows if r["phi"] == 200.0)


def test_one_patient_jackknife_sweep_is_rejected():
    ds = Dataset.from_rows(grid_rows("a", {"z1": 1.0}, {1: 0.5, 3: 1.5}), tau=4.0)
    cfg = none_config(model=MarginalModelSpec(ModelMatrixSpec(["1"])),
                      phi_grid=(0.0, 0.5), resampling=Resampling("jackknife"))
    assert analyze_once(ds, cfg, 0.0)[0].beta.shape == (1,)
    with pytest.raises(ValidationError, match="jackknife needs at least 2 patients"):
        sweep(ds, cfg)


def test_resample_without_at_risk_rows_fails_as_take_patients():
    # a patient censored from the start has no at-risk rows, so no pairs;
    # a draw of that patient alone fails in binding, as in fit_cox
    rows = grid_rows("a", {"z1": 0.3}, {1: 1.0, 2: 0.5})
    rows += grid_rows("b", {"z1": -0.4}, {2: 0.2})
    rows += grid_rows("never", {"z1": 0.1}, {}, censored_from=1)
    ds = Dataset.from_rows(rows, tau=4.0)
    cfg = mle_config()
    assert not same_pass(_Prepared(ds, cfg), ds, cfg, np.array([2, 2]), 0.0)


def test_jackknife_and_bootstrap_match_take_patients_loops():
    # flag marks one patient, so the deletion of that patient leaves the
    # visit model singular and fails
    rows = []
    for pid, z in enumerate([-1.0, 0.4, 1.2, -0.3, 0.8]):
        visits = {1 + pid % 3: z, 4: 0.5 * z} if pid != 2 else {2: 1.0, 3: 0.0}
        rows += grid_rows(f"p{pid}", {"z1": z, "flag": float(pid == 2)}, visits)
    # resamples are warm-started, so the cold take_patients loop gives the
    # same failures and the same SEs to solver tolerance; the warm
    # prepared resamples give them bit for bit
    ds = Dataset.from_rows(rows, tau=4.0)
    cfg = mle_config(zspec=ModelMatrixSpec(["z1", "flag"]))
    prepared = _Prepared(ds, cfg)
    start = warm_start(prepared, 0.2)

    def loops(draws):
        cold, warm, failed = [], [], 0
        for d in draws:
            try:
                fit, _ = analyze_once(ds.take_patients(d), cfg, 0.2)
            except NumericError:
                failed += 1
                with pytest.raises(NumericError):
                    resample(prepared, d, 0.2, start)
                continue
            cold.append(fit.beta)
            warm.append(resample(prepared, d, 0.2, start)[0].beta)
        return np.asarray(cold), np.asarray(warm), failed

    def jackknife_se(est):
        dev = est - est.mean(axis=0)
        return np.sqrt((len(est) - 1) / len(est) * (dev * dev).sum(axis=0))

    res = jackknife(ds, cfg, 0.2)
    cold, warm, failed = loops(np.delete(np.arange(5), k) for k in range(5))
    assert failed == res.n_failed == 1
    assert np.allclose(res.se, jackknife_se(cold), rtol=1e-6, atol=0.0)
    assert np.array_equal(res.se, jackknife_se(warm))

    with pytest.warns(UserWarning, match="replicates failed"):
        boot = bootstrap(ds, cfg, 0.2, b=12, seed=3)
    cold, warm, failed = loops(substream(3, r).integers(0, 5, size=5)
                               for r in range(12))
    assert boot.n_failed == failed
    assert np.allclose(boot.se, cold.std(axis=0, ddof=1), rtol=1e-6, atol=0.0)
    assert np.array_equal(boot.se, warm.std(axis=0, ddof=1))


# -- invariances -------------------------------------------------------------


INVARIANCE_CONFIGS = [none_config(), mle_config(),
                      AnalysisConfig(model=IDENT, weight_kind="balancing",
                                     zspec=ModelMatrixSpec(["z1"]),
                                     hspec=ModelMatrixSpec(["1", "z1"]))]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), which=st.integers(0, 2),
       phi=st.sampled_from([0.0, 0.3]))
def test_identity_take_patients_is_bit_identical(seed, which, phi):
    ds = random_panel(seed, n_patients=6, p_visit=0.6)
    cfg = INVARIANCE_CONFIGS[which]
    same = ds.take_patients(np.arange(ds.n_patients))
    try:
        want_fit, want_w = analyze_once(ds, cfg, phi)
    except NumericError as exc:
        with pytest.raises(type(exc)):
            analyze_once(same, cfg, phi)
        return
    fit, w = analyze_once(same, cfg, phi)
    assert np.array_equal(fit.beta, want_fit.beta)
    if want_w is not None:
        assert np.array_equal(w.weights, want_w.weights)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), which=st.integers(0, 2),
       phi=st.sampled_from([0.0, 0.3]), order=st.permutations(range(6)))
def test_patient_order_leaves_estimates_unchanged(seed, which, phi, order):
    # resamples are fitted with their patients in ascending order, which
    # stands for any order: only rounding moves the estimates, at most
    # 4.3e-15 (relative to max(1, |beta|)) and 3.2e-15 relative in the
    # weights over 400 seeds
    ds = random_panel(seed, n_patients=6, p_visit=0.6)
    cfg = INVARIANCE_CONFIGS[which]
    moved = ds.take_patients(order)
    try:
        want_fit, want_w = analyze_once(ds, cfg, phi)
    except NumericError as exc:
        with pytest.raises(type(exc)):
            analyze_once(moved, cfg, phi)
        return
    fit, w = analyze_once(moved, cfg, phi)
    tol = 1e-12 * np.maximum(1.0, np.abs(want_fit.beta))
    assert np.all(np.abs(fit.beta - want_fit.beta) <= tol)
    if want_w is not None:
        # visit rows come patient by patient, in the new order
        pos = drawn_positions(ds.visit_row_indices(), ds.patient_row_bounds, order)
        assert np.allclose(w.weights, want_w.weights[pos], rtol=1e-12, atol=0.0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), which=st.integers(0, 2),
       order=st.permutations(range(7)))
def test_patient_order_leaves_jackknife_se_unchanged(seed, which, order):
    ds = random_panel(seed, n_patients=7, p_visit=0.6)
    cfg = INVARIANCE_CONFIGS[which]
    try:
        want = jackknife(ds, cfg, 0.2)
    except NumericError:
        return
    got = jackknife(ds.take_patients(order), cfg, 0.2)
    assert got.n_failed == want.n_failed
    assert np.allclose(got.se, want.se, rtol=1e-12, atol=0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), which=st.integers(0, 2),
       phi=st.sampled_from([0.0, 0.3]))
def test_duplicating_every_patient_leaves_estimates_unchanged(seed, which, phi):
    # every sum of the pipeline doubles and every mean stays, so only
    # rounding moves the estimates: at most 2.4e-15 (relative to max(1,
    # |beta|)) and 8.6e-15 relative in the weights over 400 seeds
    ds = random_panel(seed, n_patients=6, p_visit=0.6)
    cfg = INVARIANCE_CONFIGS[which]
    n = ds.n_patients
    twice = ds.take_patients(np.r_[0:n, 0:n])
    try:
        want_fit, want_w = analyze_once(ds, cfg, phi)
    except NumericError as exc:
        with pytest.raises(type(exc)):
            analyze_once(twice, cfg, phi)
        return
    fit, w = analyze_once(twice, cfg, phi)
    tol = 1e-12 * np.maximum(1.0, np.abs(want_fit.beta))
    assert np.all(np.abs(fit.beta - want_fit.beta) <= tol)
    if want_w is not None:
        # visit rows come patient by patient, so the copies' rows follow
        both = np.concatenate([want_w.weights, want_w.weights])
        assert np.allclose(w.weights, both, rtol=1e-12, atol=0.0)
