import math
import warnings

import numpy as np
import pytest

from helpers import grid_rows
from irrvis import (CountingProcessRow, Dataset, ModelMatrixSpec,
                    NumericError, ScenarioConfig, ValidationError, calibrate,
                    generate, implicit_r2, partial_r2, phi_from_target)
from irrvis.calibration import (CalibrationResult, natural_spline_basis,
                                suggested_grid)

LOGISTIC_VAR = math.pi ** 2 / 3.0


# -- scalar maps -------------------------------------------------------------


def test_implicit_r2_pins():
    assert implicit_r2(0.0) == 0.0
    assert implicit_r2(LOGISTIC_VAR) == 0.5
    assert implicit_r2(1.51) == pytest.approx(0.31459, abs=1e-5)
    with pytest.raises(ValidationError, match="non-negative"):
        implicit_r2(-0.1)


def test_implicit_r2_monotone_and_bounded():
    grid = np.linspace(0.0, 50.0, 200)
    vals = np.array([implicit_r2(v) for v in grid])
    assert np.all(np.diff(vals) > 0)
    assert np.all((vals >= 0) & (vals < 1))


def test_implicit_r2_inverse_identity():
    for r2 in np.linspace(0.0, 0.95, 20):
        v = r2 * LOGISTIC_VAR / (1.0 - r2)
        assert implicit_r2(v) == pytest.approx(r2, abs=1e-12)


def test_partial_r2_pins():
    assert partial_r2(0.5, 0.5) == 0.0
    assert partial_r2(0.5, 0.0) == 0.5
    assert partial_r2(0.4, 0.25) == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(ValidationError, match="explains everything"):
        partial_r2(0.5, 1.0)
    with pytest.raises(ValidationError, match="out of range"):
        partial_r2(1.5, 0.0)
    with pytest.raises(ValidationError, match="out of range"):
        partial_r2(0.5, -0.2)


def test_phi_from_target_pins():
    assert phi_from_target(0.0, 1.51, 0.349) == 0.0
    # reported history-explained share, back-solved variance and residual
    # spread reproduce the sensitivity magnitude they were derived from
    assert phi_from_target(0.0315, 1.51, 0.349) == pytest.approx(1.132, abs=0.005)
    base = phi_from_target(0.2, 2.0, 0.5)
    assert phi_from_target(0.2, 2.0, 1.0) == pytest.approx(base / 2.0, rel=1e-14)
    with pytest.raises(ValidationError, match="target"):
        phi_from_target(1.0, 1.0, 1.0)
    with pytest.raises(ValidationError, match="positive"):
        phi_from_target(0.2, 1.0, 0.0)
    with pytest.raises(ValidationError, match="non-negative"):
        phi_from_target(0.2, -1.0, 1.0)


# -- spline basis ------------------------------------------------------------


def test_spline_shape_and_df1():
    x = np.linspace(0.0, 4.0, 50)
    assert natural_spline_basis(x, 5).shape == (50, 5)
    assert np.allclose(natural_spline_basis(x, 1)[:, 0], x)


def truncated_power_columns(x, knots):
    """Independent reconstruction of the natural cubic basis."""
    last, prev = knots[-1], knots[-2]

    def d(xi):
        num = np.clip(x - xi, 0, None) ** 3 - np.clip(x - last, 0, None) ** 3
        return num / (last - xi)

    cols = [x] + [d(k) - d(prev) for k in knots[:-2]]
    return np.column_stack(cols)


def test_spline_matches_independent_construction():
    x = np.sort(np.random.default_rng(0).uniform(1.0, 4.0, 80))
    knots = np.quantile(x, np.linspace(0, 1, 5))
    assert np.allclose(natural_spline_basis(x, 4),
                       truncated_power_columns(x, knots), atol=1e-12)


def test_spline_columns_linear_beyond_boundary_knots():
    x = np.sort(np.random.default_rng(2).uniform(1.0, 4.0, 80))
    knots = np.quantile(x, np.linspace(0, 1, 5))
    # the same formula continued past the data range must be flat in its
    # second differences if the basis is natural
    tail = np.linspace(knots[-1] + 0.5, knots[-1] + 5.0, 40)
    cont = truncated_power_columns(tail, knots)
    assert np.max(np.abs(np.diff(cont, n=2, axis=0))) < 1e-9


def test_spline_reproduces_linear_trend_exactly():
    x = np.sort(np.random.default_rng(1).uniform(0, 5, 120))
    y = 2.0 - 3.0 * x
    basis = natural_spline_basis(x, 5)
    design = np.column_stack([np.ones_like(x), basis])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert np.max(np.abs(y - design @ coef)) < 1e-9


def test_spline_input_validation():
    with pytest.raises(ValidationError, match="at least 1"):
        natural_spline_basis(np.arange(5.0), 0)
    with pytest.raises(ValidationError, match="distinct values"):
        natural_spline_basis(np.full(5, 2.0), 3)
    for df in (2.5, 3.0, True, "3"):
        with pytest.raises(ValidationError, match="spline df must be an integer"):
            natural_spline_basis(np.arange(5.0), df)
    assert np.array_equal(natural_spline_basis(np.arange(5.0), np.int64(3)),
                          natural_spline_basis(np.arange(5.0), 3))


def test_suggested_grid_is_seven_points_from_zero():
    grid = suggested_grid(1.2)
    assert len(grid) == 7
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(1.2)
    assert np.allclose(np.diff(grid), 0.2)


# -- end-to-end --------------------------------------------------------------


def noise_covariate_panel(seed, n_patients, effect=0.5, cap=0.19):
    """Visits driven by z1 alone; z2 is independent noise."""
    rng = np.random.default_rng(seed)
    rows = []
    for pid in range(n_patients):
        z1 = float(rng.normal())
        z2 = float(rng.normal())
        for k in range(5):
            p = min(cap, math.exp(-2.2 + effect * z1))
            visit = bool(rng.random() < p)
            y = float(z1 + rng.normal()) if visit else None
            rows.append(CountingProcessRow(pid, float(k), float(k + 1), True,
                                           visit, y, {"z1": z1, "z2": z2}))
    return Dataset.from_rows(rows, tau=5.0)


def test_informative_covariates_raise_rho2_over_null():
    cfg = ScenarioConfig(outcome="continuous", gamma_z=1.25, phi_true=0.0,
                         n=1000, scenario="s1_noSF_correctZ", n_reps=1, seed=3)
    observed, _ = generate(cfg, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = calibrate(observed, ModelMatrixSpec(cfg.weight_covariates()),
                        "identity")
    assert res.rho2_full > res.rho2_null
    assert res.phi_abs > 0.0
    assert 0.0 <= res.rho2_Z_given_t < 1.0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_relabeling_invariance():
    ds = noise_covariate_panel(7, 300)
    relabeled = ds.take_patients(np.random.default_rng(5).permutation(300))
    spec = ModelMatrixSpec(["z1", "z2"])
    a = calibrate(ds, spec, "identity")
    b = calibrate(relabeled, spec, "identity")
    assert a.rho2_full == pytest.approx(b.rho2_full, rel=1e-10)
    assert a.phi_abs == pytest.approx(b.phi_abs, rel=1e-10)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pure_noise_covariate_barely_moves_rho2(seed):
    ds = noise_covariate_panel(seed, 5000)
    lean = calibrate(ds, ModelMatrixSpec(["z1"]), "identity")
    padded = calibrate(ds, ModelMatrixSpec(["z1", "z2"]), "identity")
    assert abs(padded.rho2_full - lean.rho2_full) < 0.01


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_zero_log_intensity_variance_rejected():
    rows = grid_rows("a", {"z": 0.0}, {1: 1.0, 2: 2.0, 3: 3.0}, n_periods=3)
    ds = Dataset.from_rows(rows, tau=3.0)
    with pytest.raises(NumericError, match="variance is zero"):
        calibrate(ds, ModelMatrixSpec([]), "identity")


def test_needs_two_visits():
    rows = grid_rows("a", {"z": 0.0}, {1: 1.0}, n_periods=3)
    ds = Dataset.from_rows(rows, tau=3.0)
    with pytest.raises(ValidationError, match="two visits"):
        calibrate(ds, ModelMatrixSpec([]), "identity")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_no_residual_degrees_of_freedom():
    # unequal risk sets so the two interval probabilities differ, leaving
    # variance > 0; two visits against intercept + time soak up all dof
    rows = grid_rows("a", {"z": 0.0}, {1: 1.0}, n_periods=2)
    rows += grid_rows("b", {"z": 1.0}, {2: 2.0}, n_periods=2)
    rows += grid_rows("c", {"z": 0.5}, {}, n_periods=1)
    ds = Dataset.from_rows(rows, tau=2.0)
    with pytest.raises(NumericError, match="residual degrees of freedom"):
        calibrate(ds, ModelMatrixSpec([]), "identity", time_spline_df=5)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_target_override_feeds_straight_through():
    ds = noise_covariate_panel(11, 400)
    spec = ModelMatrixSpec(["z1"])
    base = calibrate(ds, spec, "identity")
    zero = calibrate(ds, spec, "identity", target_rho2=0.0)
    assert zero.phi_abs == 0.0
    override = calibrate(ds, spec, "identity", target_rho2=0.25)
    assert override.phi_abs == pytest.approx(
        phi_from_target(0.25, base.var_log_lambda_dt_full, base.sigma_r),
        rel=1e-12)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("key, value, match", [
    ("time_spline_df", 2.5, "spline df must be an integer"),
    ("time_spline_df", True, "spline df must be an integer"),
    ("target_rho2", "x", "target_rho2 must be a real number"),
    ("target_rho2", True, "target_rho2 must be a real number"),
])
def test_calibrate_rejects_a_mistyped_argument(key, value, match):
    ds = noise_covariate_panel(11, 400)
    with pytest.raises(ValidationError, match=match):
        calibrate(ds, ModelMatrixSpec(["z1"]), "identity", **{key: value})


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_calibrate_accepts_numpy_numbers():
    ds = noise_covariate_panel(11, 400)
    spec = ModelMatrixSpec(["z1"])
    want = calibrate(ds, spec, "identity", 5, 0.25)
    assert calibrate(ds, spec, "identity", np.int64(5), np.float64(0.25)) == want


def test_premise_warning_on_high_visit_rates():
    ds = noise_covariate_panel(13, 300, effect=1.8, cap=0.95)
    with pytest.warns(UserWarning, match="premise"):
        res = calibrate(ds, ModelMatrixSpec(["z1"]), "identity")
    assert res.premise_violated


def test_result_serialization(tmp_path):
    res = CalibrationResult(1.0, 0.5, 0.2, 0.1, 0.11, 0.7, 0.9, False, False)
    path = tmp_path / "c.csv"
    res.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "quantity,value"
    assert len(lines) == 1 + len(res.as_items())
    report = res.report()
    assert "phi_abs=0.9" in report
    grid_line = [l for l in report.splitlines()
                 if l.startswith("suggested_phi_grid=")]
    assert len(grid_line) == 1
    values = grid_line[0].split("=", 1)[1].split(",")
    assert len(values) == 7
    assert float(values[0]) == 0.0
    assert float(values[-1]) == pytest.approx(0.9)
