import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grid_rows, random_panel, two_patient_dataset
from irrvis import Dataset, NumericError, ValidationError
from irrvis.riskset import RiskStructure


def brute_force_pairs(ds):
    times = np.unique(ds.end[ds.visit])
    pairs = []
    for row in range(ds.n_rows):
        if not ds.at_risk[row]:
            continue
        for k, s in enumerate(times):
            if ds.start[row] < s <= ds.end[row]:
                pairs.append((row, k))
    return times, sorted(pairs)


def test_pairs_match_brute_force_on_hand_dataset():
    ds = two_patient_dataset()
    rs = RiskStructure(ds)
    times, pairs = brute_force_pairs(ds)
    assert np.array_equal(rs.event_times, times)
    assert sorted(zip(rs.cover_row.tolist(), rs.cover_event.tolist())) == pairs


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_pairs_match_brute_force_on_random_panels(seed):
    ds = random_panel(seed, n_patients=5, n_periods=4, p_visit=0.4)
    rs = RiskStructure(ds)
    times, pairs = brute_force_pairs(ds)
    assert np.array_equal(rs.event_times, times)
    assert sorted(zip(rs.cover_row.tolist(), rs.cover_event.tolist())) == pairs


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.integers(0, 5), min_size=1, max_size=8))
def test_subset_is_the_structure_of_the_taken_patients(seed, draw):
    ds = random_panel(seed, n_patients=6, n_periods=4, p_visit=0.3)
    full = RiskStructure(ds)
    bounds = ds.patient_row_bounds
    rows = np.concatenate([np.arange(bounds[i], bounds[i + 1]) for i in draw])

    def own(rows_of_full):
        return np.concatenate([
            np.flatnonzero((rows_of_full >= bounds[i]) & (rows_of_full < bounds[i + 1]))
            for i in draw])

    sub = ds.take_patients(draw)
    if not sub.visit.any():
        with pytest.raises(ValidationError, match="no visits"):
            full.subset(own(full.cover_row), own(full.visit_rows), len(draw))
        return
    want = RiskStructure(sub)
    got, kept = full.subset(own(full.cover_row), own(full.visit_rows), len(draw))
    assert (got.n, got.K) == (want.n, want.K)
    assert np.array_equal(got.event_times, want.event_times)
    assert np.array_equal(got.cover_event, want.cover_event)
    assert np.array_equal(got.cover_row, rows[want.cover_row])
    assert np.array_equal(full.cover_row[kept], got.cover_row)
    assert np.array_equal(got.visit_rows, rows[want.visit_rows])
    assert np.array_equal(got.visit_event, want.visit_event)


def test_censored_rows_carry_no_pairs():
    rows = grid_rows("a", {"z": 0.0}, {1: 1.0}, n_periods=3)
    rows += grid_rows("b", {"z": 0.0}, {}, n_periods=3, censored_from=2)
    ds = Dataset.from_rows(rows, tau=3.0)
    rs = RiskStructure(ds)
    risky = set(np.flatnonzero(ds.at_risk).tolist())
    assert set(rs.cover_row.tolist()) <= risky


def test_ties_pool_on_one_event_axis():
    rows = grid_rows("a", {"z": 0.0}, {2: 1.0}, n_periods=2)
    rows += grid_rows("b", {"z": 1.0}, {2: 3.0}, n_periods=2)
    ds = Dataset.from_rows(rows, tau=2.0)
    rs = RiskStructure(ds)
    assert rs.K == 1
    assert np.array_equal(rs.event_times, [2.0])
    assert np.array_equal(rs.visit_event, [0, 0])
    assert np.array_equal(rs.pooled_visit_sum(np.array([2.0, 3.0])), [5.0])


def test_event_sums_match_loops():
    ds = random_panel(42, n_patients=6, n_periods=4)
    rs = RiskStructure(ds)
    vals = np.arange(1.0, rs.cover_row.size + 1.0)
    expect = np.zeros(rs.K)
    for v, k in zip(vals, rs.cover_event):
        expect[k] += v
    assert np.allclose(rs.event_sum(vals), expect)
    cols = np.column_stack([vals, vals ** 2])
    w = np.linspace(0.5, 1.5, vals.size)
    out = rs.event_sum_columns(w, cols)
    for j in range(2):
        expect_j = np.zeros(rs.K)
        for i, k in enumerate(rs.cover_event):
            expect_j[k] += w[i] * cols[i, j]
        assert np.allclose(out[:, j], expect_j)


def test_cover_times_expand_event_axis():
    ds = two_patient_dataset()
    rs = RiskStructure(ds)
    assert np.array_equal(rs.cover_times(), rs.event_times[rs.cover_event])


def test_no_visits_rejected():
    rows = grid_rows("a", {"z": 0.0}, {}, n_periods=2)
    with pytest.raises(ValidationError, match="no visits"):
        RiskStructure(Dataset.from_rows(rows, tau=2.0))


def test_check_positive():
    RiskStructure.check_positive(np.array([1.0, 0.5]))
    with pytest.raises(NumericError, match="zero or non-finite"):
        RiskStructure.check_positive(np.array([1.0, 0.0]))
    with pytest.raises(NumericError, match="zero or non-finite"):
        RiskStructure.check_positive(np.array([np.inf, 1.0]))
