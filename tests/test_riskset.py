import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import grid_rows, pair_events, random_panel, two_patient_dataset
from irrvis import (Dataset, NumericError, ScenarioConfig, ValidationError,
                    export_csv, load_csv, riskset)
from irrvis.riskset import RiskStructure
from irrvis.rng import substream
from irrvis.simlab import GRID_TIMES, _draw_panel, _panel_dataset


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
    events = pair_events(rs)
    assert list(zip(events.tolist(), rs.cover_row.tolist())) == pairs
    assert rs.event_counts.shape == rs.event_starts.shape == (rs.K,)
    assert np.all(rs.event_counts >= 1)
    assert np.array_equal(rs.event_counts, np.bincount(events, minlength=rs.K))
    assert np.array_equal(rs.event_starts, np.searchsorted(events, np.arange(rs.K)))


def test_pairs_match_brute_force_on_hand_dataset():
    ds = two_patient_dataset()
    rs = RiskStructure(ds)
    times, pairs = brute_force_pairs(ds)
    assert np.array_equal(rs.event_times, times)
    assert_event_major(rs, pairs)


def censor_last_row(ds, patient):
    """``ds`` with ``patient``'s last row censored: not at risk, no visit."""
    last = ds.patient_row_bounds[patient + 1] - 1
    at_risk, visit, outcome = ds.at_risk.copy(), ds.visit.copy(), ds.outcome.copy()
    at_risk[last] = visit[last] = False
    outcome[last] = np.nan
    return Dataset(ds.patient_ids, ds.patient_index, ds.start, ds.end, at_risk,
                   visit, outcome, ds.covariates, ds.covariate_names, ds.tau)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_pairs_match_brute_force_on_random_panels(seed, censored):
    # a random panel is a complete grid; censoring a row sends it to the
    # searched build
    ds = random_panel(seed, n_patients=5, n_periods=4, p_visit=0.4)
    if censored:
        ds = censor_last_row(ds, seed % ds.n_patients)
        assume(ds.visit.any())
    assert (riskset._shared_grid(ds) is None) == censored
    rs = RiskStructure(ds)
    times, pairs = brute_force_pairs(ds)
    assert np.array_equal(rs.event_times, times)
    assert_event_major(rs, pairs)


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
    events = pair_events(rs)
    expect = np.zeros((3, rs.K))
    for i, k in enumerate(events):
        expect[:, k] += vals[:, i]
    assert rs.event_counts.max() > 5
    for size in (1, 2, 5, 1 << 15):
        got = np.zeros((3, rs.K))
        lo_next = 0
        for lo, hi, k0, k1, offsets in rs.blocks(size):
            # the ranges tile the pairs, each at most size long, and each
            # holds whole events or one piece of an event
            assert lo == lo_next and 0 < hi - lo <= size
            assert np.array_equal(np.unique(events[lo:hi]), np.arange(k0, k1))
            assert np.array_equal(events[lo:hi][offsets], np.arange(k0, k1))
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


STRUCTURE_ARRAYS = ("event_times", "cover_row", "event_counts", "event_starts",
                    "visit_rows", "visit_event")


def panel_draws(outcome, seed, rep, n):
    """``generate``'s draws for ``n`` patients as ``_panel_dataset`` takes
    them, drawn directly, as ``ScenarioConfig`` takes at least two."""
    cfg = ScenarioConfig(outcome=outcome, gamma_z=0.5, phi_true=0.3, n=2,
                         scenario="s3_SF_correctZ", seed=seed)
    return _draw_panel(cfg, substream(seed, rep), n)


def searched(ds):
    """``RiskStructure(ds)`` by the searched build, whatever its rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riskset, "_shared_grid", lambda dataset: None)
        return RiskStructure(ds)


def assert_same_structure(got, want):
    """``got`` and ``want`` hold the same arrays, byte for byte."""
    assert (got.n, got.K) == (want.n, want.K)
    assert type(got.n) is type(want.n) and type(got.K) is type(want.K)
    for name in STRUCTURE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=40, deadline=None)
@given(outcome=st.sampled_from(["continuous", "count"]),
       seed=st.integers(0, 2 ** 16), rep=st.integers(0, 7), n=st.integers(1, 40))
def test_complete_grid_form_equals_the_structure_of_a_simulated_panel(
        outcome, seed, rep, n):
    # a few patients leave many of the 500 grid times without a visit
    panel = _panel_dataset(*panel_draws(outcome, seed, rep, n))
    assert riskset._shared_grid(panel).tobytes() == GRID_TIMES.tobytes()
    if not panel.visit.any():
        with pytest.raises(ValidationError, match="no visits"):
            RiskStructure(panel)
        return
    want = searched(panel)
    assert_same_structure(RiskStructure(panel), want)
    assert want.K < len(GRID_TIMES)


def test_complete_grid_form_rejects_a_panel_without_visits():
    x, z1, z2, y, visit, *zs = panel_draws("count", 1, 0, 3)
    panel = _panel_dataset(x, z1, z2, y, np.zeros_like(visit), *zs)
    with pytest.raises(ValidationError) as general:
        searched(panel)
    with pytest.raises(ValidationError) as closed:
        RiskStructure(panel)
    assert str(closed.value) == str(general.value) == "dataset has no visits"


@pytest.fixture
def closed_form_calls(monkeypatch):
    """The visit-flag shapes of every closed-form build, in order."""
    shapes, closed = [], RiskStructure._complete_grid

    def spy(rs, times, visit):
        shapes.append(visit.shape)
        closed(rs, times, visit)

    monkeypatch.setattr(RiskStructure, "_complete_grid", spy)
    return shapes


def test_copies_of_a_simulated_panel_take_the_closed_form(tmp_path, closed_form_calls):
    panel = _panel_dataset(*panel_draws("continuous", 1, 0, 5))
    export_csv(panel, tmp_path / "panel.csv")
    copies = (load_csv(tmp_path / "panel.csv"), panel.take_patients(np.arange(5)),
              panel.take_patients([3, 1]))
    want = RiskStructure(panel)
    for copy in copies[:2]:
        assert_same_structure(RiskStructure(copy), want)
    RiskStructure(copies[2])
    assert closed_form_calls == [(5, len(GRID_TIMES))] * 3 + [(2, len(GRID_TIMES))]


def broken_grids():
    """Datasets that each break one condition of a complete grid."""
    def with_b(**b):
        rows = grid_rows("a", {"z": 1.0}, {1: 2.5, 3: 1.0, 4: 0.5})
        return Dataset.from_rows(rows + grid_rows("b", {"z": 0.5}, {2: 0.0}, **b),
                                 tau=4.0)

    yield "censored", with_b(censored_from=4)
    yield "shifted", with_b(step=0.75)
    yield "one row fewer", with_b(n_periods=3)
    ds = with_b()
    assert riskset._shared_grid(ds) is not None

    def unvalidated(start, end):
        return Dataset(ds.patient_ids, ds.patient_index, start, end, ds.at_risk,
                       ds.visit, ds.outcome, ds.covariates, ds.covariate_names,
                       ds.tau, validate=False)

    start, end = ds.start.copy(), ds.end.copy()
    start[4] = 0.5
    yield "first start not 0", unvalidated(start, ds.end)
    end[7] = 3.5
    yield "last interval shorter", unvalidated(ds.start, end)
    # (0, 1], (1, 2], (2, 2], (2, 4]: starts are the previous ends, but the
    # third interval is empty
    yield "ends not ascending", unvalidated(np.tile([0.0, 1.0, 2.0, 2.0], 2),
                                            np.tile([1.0, 2.0, 2.0, 4.0], 2))


@pytest.mark.parametrize("ds", [pytest.param(ds, id=case) for case, ds in broken_grids()])
def test_a_broken_grid_takes_the_searched_build(ds, closed_form_calls):
    rs = RiskStructure(ds)
    assert closed_form_calls == []
    times, pairs = brute_force_pairs(ds)
    assert np.array_equal(rs.event_times, times)
    assert_event_major(rs, pairs)


def test_cover_times_expand_event_axis():
    ds = two_patient_dataset()
    rs = RiskStructure(ds)
    assert np.array_equal(rs.cover_times(), rs.event_times[pair_events(rs)])


def test_weighted_structure_shares_every_array_but_its_weights():
    ds = two_patient_dataset()
    rs = RiskStructure(ds)
    grid = RiskStructure.grid(np.array([1.0, 2.0]), 2, np.array([1, 0, 0, 1], bool))
    assert rs.pair_weight is None and grid.pair_weight is None
    weight = np.arange(rs.cover_row.size, dtype=np.float64)
    got = rs.weighted(weight, 3)
    assert (got.n, rs.n) == (3, ds.n_patients)
    assert got.pair_weight is weight and rs.pair_weight is None
    for name in STRUCTURE_ARRAYS:
        assert getattr(got, name) is getattr(rs, name)


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
