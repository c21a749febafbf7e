import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import build_design, dataset_rows, grid_rows, random_panel
from irrvis import (CountingProcessRow, Dataset, ModelMatrixSpec,
                    ValidationError, parse_term)
from irrvis.design import BoundDesign


def dataset_with(cov_by_patient, visits=(1,), n_periods=2):
    rows = []
    for pid, cov in enumerate(cov_by_patient):
        rows += grid_rows(str(pid), cov, {k: 1.0 for k in visits},
                          n_periods=n_periods)
    return Dataset.from_rows(rows, tau=float(n_periods))


# -- parsing -----------------------------------------------------------------


def test_term_labels():
    assert parse_term("1").label() == "1"
    assert parse_term("t").label() == "t"
    assert parse_term("crp").label() == "crp"
    assert parse_term("std(log1p(crp))").label() == "std(log1p(crp))"
    assert parse_term("t*std(x)").label() == "t:std(x)"
    assert parse_term("period(0, 2)").label() == "period(0,2)"
    assert parse_term("sqrt(t)").label() == "sqrt(t)"


def test_parse_rejects_bad_terms():
    with pytest.raises(ValidationError, match="nested transforms"):
        parse_term("log1p(sqrt(x))")
    with pytest.raises(ValidationError, match="two or three factors"):
        parse_term("a*b*c*d")
    with pytest.raises(ValidationError, match="empty term"):
        parse_term("  ")
    with pytest.raises(ValidationError, match="cannot parse"):
        parse_term("z(3)")
    with pytest.raises(ValidationError, match="bad period bounds"):
        parse_term("period(a,b)")
    with pytest.raises(ValidationError, match="lo < hi"):
        parse_term("period(2,2)")


def test_spec_rejects_duplicate_labels():
    with pytest.raises(ValidationError, match="duplicate"):
        ModelMatrixSpec(["z", "z"])


def test_has_const():
    assert ModelMatrixSpec(["1", "z"]).has_const()
    assert not ModelMatrixSpec(["z"]).has_const()


# -- evaluation --------------------------------------------------------------


def test_constant_covariate_log1p_column():
    ds = dataset_with([{"crp": 5.0}, {"crp": 5.0}])
    mat, names = build_design(ds, ModelMatrixSpec(["log1p(crp)"]))
    assert names == ["log1p(crp)"]
    assert np.allclose(mat[:, 0], np.log(6.0), rtol=0, atol=1e-15)


def test_binary_covariate_passes_through():
    ds = dataset_with([{"x": 0.0}, {"x": 1.0}])
    mat, _ = build_design(ds, ModelMatrixSpec(["x"]))
    assert set(np.unique(mat[:, 0])) == {0.0, 1.0}


def test_standardization_centers_and_scales_to_half_sd():
    # one row per value: {0, 2} has mean 1 and sample SD sqrt(2), so the
    # standardized values are +-1/(2*sqrt(2))
    ds = dataset_with([{"x": 0.0}, {"x": 2.0}], n_periods=1)
    mat, _ = build_design(ds, ModelMatrixSpec(["std(x)"]))
    expect = 1.0 / (2.0 * np.sqrt(2.0))
    assert np.allclose(np.sort(mat[:, 0]), [-expect, expect])
    x = ds.covariate_column("x")
    manual = (x - x.mean()) / (2.0 * x.std(ddof=1))
    assert np.allclose(mat[:, 0], manual)


def test_standardized_column_has_mean0_sd_half():
    ds = random_panel(11, n_patients=9, n_cov=1)
    mat, _ = build_design(ds, ModelMatrixSpec(["std(z1)"]), subset="all")
    col = mat[:, 0]
    assert abs(col.mean()) < 1e-12
    assert abs(col.std(ddof=1) - 0.5) < 1e-12


def test_transform_applies_before_standardization():
    ds = random_panel(12, n_patients=7, n_cov=1, outcome_shift=0.0)
    # shift covariate to be positive so log1p is defined
    ds = Dataset.from_rows([
        CountingProcessRow(r.patient_id, r.start, r.end, r.at_risk, r.visit,
                           r.outcome, {"z1": abs(r.covariates["z1"]) + 0.5})
        for r in dataset_rows(ds)
    ], tau=ds.tau)
    mat, _ = build_design(ds, ModelMatrixSpec(["std(log1p(z1))"]), subset="all")
    v = np.log1p(ds.covariate_column("z1"))
    assert np.allclose(mat[:, 0], (v - v.mean()) / (2.0 * v.std(ddof=1)))


def test_interaction_is_product_of_columns():
    ds = dataset_with([{"x": 2.0, "w": 3.0}, {"x": -1.0, "w": 0.5}])
    mat, names = build_design(ds, ModelMatrixSpec(["x", "w", "x*w", "t*x"]))
    assert names == ["x", "w", "x:w", "t:x"]
    assert np.allclose(mat[:, 2], mat[:, 0] * mat[:, 1])
    assert np.allclose(mat[:, 3], ds.end * mat[:, 0])


def test_period_indicator_is_half_open():
    ds = dataset_with([{"z": 0.0}], visits=(1,), n_periods=4)
    mat, _ = build_design(ds, ModelMatrixSpec(["period(1,3)"]))
    # rows end at 1,2,3,4; indicator is 1 on [1,3)
    assert np.array_equal(mat[:, 0], [1.0, 1.0, 0.0, 0.0])


def test_evaluate_at_explicit_times():
    ds = dataset_with([{"x": 2.0}])
    bound = BoundDesign(ds, ModelMatrixSpec(["t", "t*x"]))
    out = bound.evaluate(ds, np.array([0, 0, 1]), np.array([0.25, 0.75, 1.5]))
    assert np.allclose(out[:, 0], [0.25, 0.75, 1.5])
    assert np.allclose(out[:, 1], [0.5, 1.5, 3.0])
    with pytest.raises(ValidationError, match="equal length"):
        bound.evaluate(ds, np.array([0, 1]), np.array([0.5]))


def test_evaluate_returns_column_major():
    # fits read a design one term at a time, so each column is contiguous
    ds = random_panel(4, n_patients=3)
    bound = BoundDesign(ds, ModelMatrixSpec(["1", "z1", "t*z1"]))
    rows = ds.at_risk_row_indices()
    out = bound.evaluate(ds, rows)
    assert out.shape == (rows.size, 3)
    assert out.flags.f_contiguous
    assert out.T.flags.c_contiguous
    assert np.array_equal(out[:, 2], ds.end[rows] * ds.covariate_column("z1")[rows])


def test_unknown_covariate_rejected():
    ds = dataset_with([{"z": 0.0}])
    with pytest.raises(ValidationError, match="unknown covariate"):
        build_design(ds, ModelMatrixSpec(["nope"]))


def test_zero_spread_standardization_rejected():
    ds = dataset_with([{"z": 3.0}, {"z": 3.0}])
    with pytest.raises(ValidationError, match="constant on the binding subset"):
        build_design(ds, ModelMatrixSpec(["std(z)"]))


def test_standardization_stats_follow_binding_subset():
    # z differs between visit rows and the rest, so the frozen mean/sd and
    # hence the standardized values depend on the binding subset
    rows = grid_rows("a", {"z": 1.0}, {1: 0.5}, n_periods=2)
    rows += grid_rows("b", {"z": 5.0}, {2: 0.5}, n_periods=2)
    rows += grid_rows("c", {"z": 9.0}, {}, n_periods=2, censored_from=2)
    ds = Dataset.from_rows(rows, tau=2.0)
    spec = ModelMatrixSpec(["std(z)"])
    all_rows, _ = build_design(ds, spec, subset="all")
    risk_rows, _ = build_design(ds, spec, subset="at_risk")
    visit_rows, _ = build_design(ds, spec, subset="visits")
    assert not np.allclose(np.unique(all_rows), np.unique(risk_rows))
    assert not np.allclose(np.unique(risk_rows[:2]), np.unique(visit_rows))
    with pytest.raises(ValidationError, match="unknown subset"):
        build_design(ds, spec, subset="everything")


def test_binding_is_frozen_not_recomputed():
    ds = dataset_with([{"x": 0.0}, {"x": 2.0}], n_periods=1)
    bound = BoundDesign(ds, ModelMatrixSpec(["std(x)"]))
    # evaluating a sub-slice reuses the frozen stats instead of new ones
    out = bound.evaluate(ds, np.array([0]))
    assert np.allclose(out[0, 0], -1.0 / (2.0 * np.sqrt(2.0)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000),
       st.floats(-50, 50, allow_nan=False),
       st.floats(0.1, 20, allow_nan=False))
def test_standardization_is_affine_invariant(seed, shift, scale):
    ds = random_panel(seed, n_patients=5, n_periods=3, n_cov=1)
    moved = Dataset.from_rows([
        CountingProcessRow(r.patient_id, r.start, r.end, r.at_risk, r.visit,
                           r.outcome, {"z1": shift + scale * r.covariates["z1"]})
        for r in dataset_rows(ds)
    ], tau=ds.tau)
    spec = ModelMatrixSpec(["std(z1)"])
    a, _ = build_design(ds, spec, subset="all")
    b, _ = build_design(moved, spec, subset="all")
    assert np.allclose(a, b, atol=1e-10)


# -- evaluate against the term-by-term oracle -----------------------------------

_ORACLE_TERMS = (
    "1", "z1", "z2", "pos", "std(z1)", "log1p(pos)", "sqrt(pos)",
    "std(log1p(pos))", "t", "std(t)", "log1p(t)", "sqrt(t)", "std(sqrt(t))",
    "period(0,2)", "period(1.5,3.5)", "z1*z2", "z2*z1", "z1*z1", "t*z1",
    "std(z1)*t*z2", "z1*std(z1)", "period(0,2)*z1", "sqrt(t)*z2*z1",
    "log1p(pos)*t", "std(t)*std(z1)", "std(t)*std(t)*z2",
)


def _with_covariates(ds, order):
    """``ds`` with a positive covariate ``pos`` added, stored in ``order``."""
    z = ds.covariates
    cov = np.array(np.column_stack([z, np.abs(z[:, 0]) + 0.5]), order=order)
    return Dataset(ds.patient_ids, ds.patient_index, ds.start, ds.end, ds.at_risk,
                   ds.visit, ds.outcome, cov, ds.covariate_names + ("pos",), ds.tau)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from("CF"),
       st.lists(st.sampled_from(_ORACLE_TERMS), min_size=1, max_size=10, unique=True),
       st.data())
def test_evaluate_matches_term_by_term_oracle(seed, order, terms, data):
    ds = _with_covariates(random_panel(seed, n_patients=4, n_periods=4, n_cov=2),
                          order)
    spec = ModelMatrixSpec(terms)
    bound = BoundDesign(ds, spec)
    rows = np.array(data.draw(st.lists(st.integers(0, ds.n_rows - 1),
                                       min_size=1, max_size=30)))
    times = None
    if data.draw(st.booleans()):
        # any time inside each row's interval (start, end]
        u = np.array(data.draw(st.lists(st.floats(0.0, 0.999), min_size=rows.size,
                                        max_size=rows.size)))
        times = ds.end[rows] - u * (ds.end[rows] - ds.start[rows])
    before = [a.copy() for a in (ds.covariates, ds.end, times) if a is not None]
    got = bound.evaluate(ds, rows, times)
    want = oracles.design_matrix(ds, spec.terms, rows, times,
                                 binding_rows=ds.at_risk_row_indices())
    # bit for bit, signed zeros included
    assert (np.ascontiguousarray(got).tobytes()
            == np.ascontiguousarray(want).tobytes())
    # no memoized factor was written through to its source
    after = [a for a in (ds.covariates, ds.end, times) if a is not None]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
