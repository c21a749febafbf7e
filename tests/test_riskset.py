import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import drawn_positions, grid_rows, random_panel, two_patient_dataset
from irrvis import Dataset, NumericError, ValidationError
from irrvis.riskset import RiskStructure


def brute_force_pairs(ds):
    """Event times and the (event, row) pairs, event by event, rows in
    dataset order within an event."""
    times = np.unique(ds.end[ds.visit])
    pairs = []
    for k, s in enumerate(times):
        for row in range(ds.n_rows):
            if ds.at_risk[row] and ds.start[row] < s <= ds.end[row]:
                pairs.append((k, row))
    return times, pairs


def assert_event_major(rs, pairs):
    """``rs`` holds exactly ``pairs`` in their order, with segment indexes
    that match them and no empty event."""
    assert list(zip(rs.cover_event.tolist(), rs.cover_row.tolist())) == pairs
    assert rs.event_counts.shape == rs.event_starts.shape == (rs.K,)
    assert np.all(rs.event_counts >= 1)
    assert np.array_equal(rs.event_counts, np.bincount(rs.cover_event, minlength=rs.K))
    assert np.array_equal(rs.event_starts,
                          np.searchsorted(rs.cover_event, np.arange(rs.K)))


def test_pairs_match_brute_force_on_hand_dataset():
    ds = two_patient_dataset()
    rs = RiskStructure(ds)
    times, pairs = brute_force_pairs(ds)
    assert np.array_equal(rs.event_times, times)
    assert_event_major(rs, pairs)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_pairs_match_brute_force_on_random_panels(seed):
    ds = random_panel(seed, n_patients=5, n_periods=4, p_visit=0.4)
    rs = RiskStructure(ds)
    times, pairs = brute_force_pairs(ds)
    assert np.array_equal(rs.event_times, times)
    assert_event_major(rs, pairs)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.integers(0, 5), min_size=1, max_size=8))
def test_subset_is_the_structure_of_the_taken_patients(seed, draw):
    ds = random_panel(seed, n_patients=6, n_periods=4, p_visit=0.3)
    full = RiskStructure(ds)
    bounds = ds.patient_row_bounds
    rows = np.concatenate([np.arange(bounds[i], bounds[i + 1]) for i in draw])

    def own(rows_of_full):
        return drawn_positions(rows_of_full, bounds, draw)

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
    assert np.array_equal(got.event_counts, want.event_counts)
    assert np.array_equal(got.event_starts, want.event_starts)


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
    vals = np.random.default_rng(0).normal(size=(3, rs.cover_row.size))
    expect = np.zeros((3, rs.K))
    for i, k in enumerate(rs.cover_event):
        expect[:, k] += vals[:, i]
    assert rs.event_counts.max() > 5
    for size in (1, 2, 5, 1 << 15):
        got = np.zeros((3, rs.K))
        lo_next = 0
        for lo, hi, k0, k1, offsets in rs.blocks(size):
            # the ranges tile the pairs, each at most size long, and each
            # holds whole events or one piece of an event
            assert lo == lo_next and 0 < hi - lo <= size
            assert np.array_equal(np.unique(rs.cover_event[lo:hi]), np.arange(k0, k1))
            assert np.array_equal(rs.cover_event[lo:hi][offsets], np.arange(k0, k1))
            whole = (rs.event_starts[k0] == lo
                     and rs.event_starts[k1 - 1] + rs.event_counts[k1 - 1] == hi)
            assert whole or k1 == k0 + 1
            got[:, k0:k1] += np.add.reduceat(vals[:, lo:hi], offsets, axis=-1)
            lo_next = hi
        assert lo_next == rs.cover_row.size
        assert np.allclose(got, expect, rtol=1e-13, atol=1e-13)


def test_grid_form_numbers_pairs_time_major():
    # 4 patients at 3 times; pair k * 4 + i is patient i at time k
    visit = np.zeros(12, dtype=bool)
    visit[[1, 6, 7]] = True
    rs = RiskStructure.grid(np.array([1.0, 2.0, 3.0]), 4, visit)
    assert (rs.n, rs.K) == (4, 3)
    assert np.array_equal(rs.event_starts, [0, 4, 8])
    assert np.array_equal(rs.event_counts, [4, 4, 4])
    assert np.array_equal(rs.visit_event, [0, 1, 1])
    # the time without a visit stays, with a zero pooled sum
    assert np.array_equal(rs.pooled_visit_sum(np.ones(3)), [1.0, 2.0, 0.0])
    assert [(lo, hi, k0, k1) for lo, hi, k0, k1, _ in rs.blocks(8)] == [
        (0, 8, 0, 2), (8, 12, 2, 3)]
    with pytest.raises(ValidationError, match="no visits"):
        RiskStructure.grid(np.array([1.0, 2.0, 3.0]), 4, np.zeros(12, dtype=bool))


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


def test_subset_without_an_events_pairs_is_rejected():
    # a subset keeps an event for each of its visits; dropping the pairs of
    # a visited event would leave that event's segment empty
    ds = two_patient_dataset()
    rs = RiskStructure(ds)
    visits = np.arange(rs.visit_rows.size)
    pairs = np.flatnonzero(rs.cover_event != rs.visit_event[0])
    with pytest.raises(NumericError, match="empty risk set"):
        rs.subset(pairs, visits, ds.n_patients)
