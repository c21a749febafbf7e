import csv
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irrvis.data
from helpers import (dataset_rows, grid_rows, random_panel, two_patient_dataset,
                     two_patient_rows)
from irrvis import (CountingProcessRow, Dataset, ScenarioConfig, ValidationError,
                    export_csv, generate, load_csv)
from oracles import check_panel, export_csv_rows, load_csv_rows

MINIMAL_CSV = (
    "patient_id,start,end,at_risk,visit,outcome,z\n"
    "1,0,1,1,1,3.0,0.5\n"
    "1,1,2,1,0,,0.5\n"
)


def row(pid="p", start=0.0, end=1.0, at_risk=True, visit=False, outcome=None,
        cov=None):
    return CountingProcessRow(pid, start, end, at_risk, visit, outcome,
                              cov if cov is not None else {"z": 0.0})


# -- construction ------------------------------------------------------------


def test_minimal_two_row_dataset():
    ds = Dataset.from_rows([
        row(visit=True, outcome=3.0),
        row(start=1.0, end=2.0),
    ])
    assert ds.n_rows == 2
    assert ds.n_patients == 1
    assert ds.tau == 2.0
    assert np.array_equal(ds.visit, [True, False])
    assert ds.outcome[0] == 3.0 and np.isnan(ds.outcome[1])


def test_two_patient_layout():
    ds = two_patient_dataset()
    assert ds.patient_ids == ["a", "b"]
    assert ds.n_rows == 8
    assert np.array_equal(ds.event_times(), [1.0, 2.0, 3.0])
    assert np.array_equal(ds.visit_row_indices(), [0, 2, 5])
    # b's last period is censored
    assert not ds.at_risk[7]
    assert np.array_equal(ds.at_risk_row_indices(), np.arange(7))


def test_row_order_is_canonicalized():
    # patients keep first-appearance order; within a patient, rows are
    # time-sorted, so shuffled input gives the same per-patient content
    rows = two_patient_rows()
    shuffled = [rows[i] for i in (5, 0, 7, 2, 4, 1, 6, 3)]
    a = Dataset.from_rows(rows, tau=4.0)
    b = Dataset.from_rows(shuffled, tau=4.0)
    assert sorted(a.patient_ids) == sorted(b.patient_ids)
    a_canon = a.take_patients(np.argsort(a.patient_ids))
    b_canon = b.take_patients(np.argsort(b.patient_ids))
    for name in ("start", "end", "at_risk", "visit", "patient_index"):
        assert np.array_equal(getattr(a_canon, name), getattr(b_canon, name))
    assert np.array_equal(a_canon.outcome, b_canon.outcome, equal_nan=True)
    assert np.array_equal(a_canon.covariates, b_canon.covariates)


def test_rows_iterator_round_trips():
    ds = two_patient_dataset()
    again = Dataset.from_rows(list(dataset_rows(ds)), tau=ds.tau)
    assert np.array_equal(ds.covariates, again.covariates)
    assert np.array_equal(ds.outcome, again.outcome, equal_nan=True)


# -- validation --------------------------------------------------------------


def test_empty_rows_rejected():
    with pytest.raises(ValidationError, match="no rows"):
        Dataset.from_rows([])


def test_covariate_names_must_match_first_row():
    with pytest.raises(ValidationError, match="covariate names differ"):
        Dataset.from_rows([row(), row(pid="q", cov={"w": 1.0})])


def test_outcome_required_at_visit():
    with pytest.raises(ValidationError, match="missing outcome on visit row"):
        Dataset.from_rows([row(visit=True, outcome=None)])


def test_outcome_forbidden_between_visits():
    with pytest.raises(ValidationError, match="outcome present on non-visit row"):
        Dataset.from_rows([row(outcome=1.0)])


def test_visit_requires_at_risk():
    with pytest.raises(ValidationError, match="not at risk"):
        Dataset.from_rows([row(at_risk=False, visit=True, outcome=1.0)])


def test_degenerate_interval_rejected():
    with pytest.raises(ValidationError, match="end <= start"):
        Dataset.from_rows([row(start=1.0, end=1.0)])


def test_negative_start_rejected():
    with pytest.raises(ValidationError, match="negative interval start"):
        Dataset.from_rows([row(start=-1.0, end=1.0)])


def test_interval_past_tau_rejected():
    with pytest.raises(ValidationError, match="past tau"):
        Dataset.from_rows([row()], tau=0.5)


def test_first_interval_must_start_at_zero():
    with pytest.raises(ValidationError, match="'c'.*must start at 0"):
        Dataset.from_rows([row(pid="c", start=1.0, end=2.0)])


def test_gap_between_intervals_names_patient():
    with pytest.raises(ValidationError, match="'c'.*overlap or leave gaps"):
        Dataset.from_rows([row(pid="c"), row(pid="c", start=1.5, end=2.0)])


def test_at_risk_cannot_resume():
    with pytest.raises(ValidationError, match="turns back on"):
        Dataset.from_rows([
            row(),
            row(start=1.0, end=2.0, at_risk=False),
            row(start=2.0, end=3.0, at_risk=True),
        ])


def constructor_args(ds) -> dict:
    return {"patient_ids": ds.patient_ids, "patient_index": ds.patient_index,
            "start": ds.start, "end": ds.end, "at_risk": ds.at_risk,
            "visit": ds.visit, "outcome": ds.outcome, "covariates": ds.covariates,
            "covariate_names": ds.covariate_names, "tau": ds.tau}


def test_duplicate_patient_ids_rejected():
    # two patients of one label would merge into one on a CSV round trip
    args = constructor_args(two_patient_dataset())
    with pytest.raises(ValidationError, match="^patient id 'a' names two patients$"):
        Dataset(**{**args, "patient_ids": ["a", "a"]})
    with pytest.raises(ValidationError, match="hashable"):
        Dataset(**{**args, "patient_ids": [["a"], ["b"]]})


def test_negative_patient_index_rejected():
    args = constructor_args(two_patient_dataset())
    pidx = np.array(args["patient_index"]) - 1
    with pytest.raises(ValidationError, match="patient_index does not match"):
        Dataset(**{**args, "patient_index": pidx, "patient_ids": ["a"]})


@pytest.mark.parametrize("column", ["patient_index", "start", "end", "at_risk",
                                    "visit", "outcome"])
def test_row_columns_must_be_1d(column):
    args = constructor_args(two_patient_dataset())
    with pytest.raises(ValidationError, match=f"column '{column}' must be 1-d, not 2-d"):
        Dataset(**{**args, column: np.asarray(args[column])[:, None]})


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
def test_non_finite_tau_rejected(tau):
    with pytest.raises(ValidationError, match="non-finite tau"):
        Dataset.from_rows([row()], tau=tau)


def test_arrays_are_read_only_and_the_callers_stay_writable():
    ds = two_patient_dataset()
    args = {key: np.array(value) if isinstance(value, np.ndarray) else value
            for key, value in constructor_args(ds).items()}
    args["covariates"] = np.asfortranarray(args["covariates"])
    built = Dataset(**args)
    for name in ("patient_index", "patient_row_bounds", "start", "end", "at_risk",
                 "visit", "outcome", "covariates"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(built, name)[0] = 0
        if name in args:
            assert np.shares_memory(getattr(built, name), args[name])
            assert args[name].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        built.covariate_column("z")[:] = 0.0
    args["end"][0] = 0.5        # the caller's array, still theirs to write
    assert built.end[0] == 0.5


@st.composite
def raw_panels(draw):
    """Constructor arguments of a small panel built to be valid, then broken
    by faults drawn per row and per patient: any rule, alone or with others,
    in any patient."""
    counts = draw(st.lists(st.sampled_from([0, 1, 2, 3, 3, 4, 4]), max_size=4))
    n_rows = sum(counts)
    pidx = np.repeat(np.arange(len(counts)), counts)

    def flags(p_true=1 / 30):
        values = st.sampled_from([False] * round(1 / p_true - 1) + [True])
        return np.array(draw(st.lists(values, min_size=n_rows, max_size=n_rows)),
                        dtype=bool)

    def values(choices):
        return np.array(draw(st.lists(st.sampled_from(choices), min_size=n_rows,
                                      max_size=n_rows)), dtype=np.float64)

    length = values([1.0] * 40 + [2.0] * 20 + [0.0, -1.0])
    shift = values([0.0] * 60 + [0.5, -0.5])
    censor = flags(1 / 8)
    start, end = np.empty(n_rows), np.empty(n_rows)
    at_risk = np.empty(n_rows, dtype=bool)
    for i in range(n_rows):
        first = i == 0 or pidx[i] != pidx[i - 1]
        start[i] = (0.0 if first else end[i - 1]) + shift[i]
        end[i] = start[i] + length[i]
        at_risk[i] = (first or at_risk[i - 1]) and not censor[i]
    at_risk ^= flags()
    visit = flags(0.5) & (at_risk | flags())
    outcome = np.where(visit ^ flags(), 1.5, np.nan)
    if n_rows and draw(st.sampled_from([False] * 20 + [True])):
        swap = draw(st.lists(st.integers(0, n_rows - 1), min_size=2, max_size=2))
        pidx[swap] = pidx[swap[::-1]]
    n_ids = len(counts) + draw(st.sampled_from([0] * 30 + [1, -1]))
    tau = float(end.max(initial=0.0)) - draw(st.sampled_from([0.0] * 30 + [0.5]))
    return dict(patient_ids=[f"p{k}" for k in range(max(n_ids, 0))],
                patient_index=pidx, start=start, end=end, at_risk=at_risk,
                visit=visit, outcome=outcome, covariates=np.ones((n_rows, 1)),
                covariate_names=("z",), tau=tau)


@settings(max_examples=400, deadline=None)
@given(raw_panels())
def test_checks_match_the_row_by_row_reference(args):
    try:
        check_panel(**args)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
            Dataset(**args)
    else:
        counts = np.bincount(args["patient_index"], minlength=len(args["patient_ids"]))
        assert np.array_equal(Dataset(**args).patient_row_bounds,
                              np.concatenate(([0], np.cumsum(counts))))


def test_covariate_column_lookup():
    ds = two_patient_dataset()
    assert np.array_equal(np.unique(ds.covariate_column("z")), [-0.5, 1.0])
    with pytest.raises(ValidationError, match="unknown covariate"):
        ds.covariate_column("w")


# -- covariate layout --------------------------------------------------------


def constructor_blocks(monkeypatch) -> list:
    """Record ``(block passed, block stored)`` for each Dataset built."""
    blocks = []
    init = Dataset.__init__

    def spy(self, *args, **kw):
        init(self, *args, **kw)
        blocks.append((args[7], self.covariates))

    monkeypatch.setattr(Dataset, "__init__", spy)
    return blocks


def test_covariates_are_column_major_on_every_construction_path(tmp_path):
    ds = random_panel(2, n_patients=4, n_cov=3)
    c_block = np.ascontiguousarray(ds.covariates)
    assert c_block.flags.c_contiguous and not c_block.flags.f_contiguous
    given_c = Dataset(ds.patient_ids, ds.patient_index, ds.start, ds.end,
                      ds.at_risk, ds.visit, ds.outcome, c_block,
                      ds.covariate_names, ds.tau)
    path = tmp_path / "d.csv"
    export_csv(ds, path)
    cfg = ScenarioConfig(outcome="continuous", gamma_z=0.5, phi_true=0.0, n=3,
                         scenario="s1_noSF_correctZ", n_reps=1)
    for built in (ds, given_c, load_csv(path), ds.take_patients([3, 0, 3]),
                  *generate(cfg, 0)):
        assert built.covariates.flags.f_contiguous
        assert not built.covariates.flags.c_contiguous
        assert built.covariates.shape == (built.n_rows, len(built.covariate_names))
    assert np.array_equal(given_c.covariates, ds.covariates)
    assert np.array_equal(given_c.covariates[2], c_block[2])


def test_covariate_column_is_a_contiguous_view():
    ds = random_panel(5, n_patients=3, n_cov=2)
    col = ds.covariate_column("z2")
    assert col.flags.c_contiguous
    assert np.shares_memory(col, ds.covariates)
    assert np.array_equal(col, [r.covariates["z2"] for r in dataset_rows(ds)])


def test_readers_hand_the_constructor_a_column_major_block(tmp_path, monkeypatch):
    ds = random_panel(2, n_patients=4, n_cov=3)
    path = tmp_path / "d.csv"
    export_csv(ds, path)
    cfg = ScenarioConfig(outcome="continuous", gamma_z=0.5, phi_true=0.0, n=3,
                         scenario="s1_noSF_correctZ", n_reps=1)
    blocks = constructor_blocks(monkeypatch)
    load_csv(path)
    generate(cfg, 0)
    Dataset.from_rows(list(dataset_rows(ds)))
    assert len(blocks) == 4
    for passed, stored in blocks:
        assert passed.flags.f_contiguous and not passed.flags.c_contiguous
        # the constructor kept the block it was given, behind a read-only
        # view: no copy
        assert np.shares_memory(stored, passed) and stored.shape == passed.shape


# -- csv ---------------------------------------------------------------------


def test_load_minimal_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(MINIMAL_CSV)
    ds = load_csv(path)
    assert ds.n_rows == 2 and ds.n_patients == 1
    assert ds.covariate_names == ("z",)
    assert ds.outcome[0] == 3.0 and np.isnan(ds.outcome[1])


def test_export_then_load_is_identity(tmp_path):
    ds = two_patient_dataset()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(ds, p1)
    again = load_csv(p1)
    assert again.patient_ids == ds.patient_ids
    assert np.array_equal(again.start, ds.start)
    assert np.array_equal(again.end, ds.end)
    assert np.array_equal(again.at_risk, ds.at_risk)
    assert np.array_equal(again.visit, ds.visit)
    assert np.array_equal(again.outcome, ds.outcome, equal_nan=True)
    assert np.array_equal(again.covariates, ds.covariates)
    export_csv(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_header_order(tmp_path):
    path = tmp_path / "d.csv"
    export_csv(two_patient_dataset(), path)
    header = path.read_text().splitlines()[0]
    assert header == "patient_id,start,end,at_risk,visit,outcome,z"


def test_row_order_in_file_does_not_matter(tmp_path):
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    lines = MINIMAL_CSV.splitlines()
    path_a.write_text("\n".join(lines) + "\n")
    path_b.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    a, b = load_csv(path_a), load_csv(path_b)
    assert np.array_equal(a.start, b.start)
    assert np.array_equal(a.outcome, b.outcome, equal_nan=True)


def test_schema_maps_structural_columns(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "id,t0,t1,risk,seen,y,crp\n"
        "7,0,1,1,1,2.0,3.5\n"
        "7,1,2,1,0,,3.5\n"
    )
    ds = load_csv(path, schema={"patient_id": "id", "start": "t0", "end": "t1",
                                "at_risk": "risk", "visit": "seen",
                                "outcome": "y"})
    assert ds.covariate_names == ("crp",)
    assert ds.outcome[0] == 2.0


def test_schema_rejects_unknown_field(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(MINIMAL_CSV)
    with pytest.raises(ValidationError, match="unknown field"):
        load_csv(path, schema={"patient": "id"})


@pytest.mark.parametrize("schema, first, second, column", [
    ({"start": "end"}, "start", "end", "end"),
    ({"visit": "flag", "at_risk": "flag"}, "at_risk", "visit", "flag"),
])
def test_schema_rejects_two_fields_on_one_column(tmp_path, schema, first, second,
                                                 column):
    path = tmp_path / "d.csv"
    path.write_text(MINIMAL_CSV)
    with pytest.raises(ValidationError) as err:
        load_csv(path, schema=schema)
    assert str(err.value) == (
        f"schema maps fields {first!r} and {second!r} to one column {column!r}")


def test_boolean_cells_must_be_01(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(MINIMAL_CSV.replace("1,0,1,1,1,3.0", "1,0,1,true,1,3.0"))
    with pytest.raises(ValidationError, match="line 2.*must be 0 or 1"):
        load_csv(path)


def test_non_numeric_covariate_reports_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(MINIMAL_CSV.replace("1,1,2,1,0,,0.5", "1,1,2,1,0,,oops"))
    with pytest.raises(ValidationError, match="line 3.*'z'.*non-numeric"):
        load_csv(path)


def test_missing_required_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("patient_id,start,end,at_risk,outcome,z\n1,0,1,1,3.0,0.5\n")
    with pytest.raises(ValidationError, match="missing required column 'visit'"):
        load_csv(path)


def test_duplicate_header_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(MINIMAL_CSV.replace(",z\n", ",z,z\n"))
    with pytest.raises(ValidationError, match="duplicate column"):
        load_csv(path)


def test_ragged_row_reports_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(MINIMAL_CSV + "1,2,3,1,0\n")
    with pytest.raises(ValidationError, match="line 4.*expected 7 cells"):
        load_csv(path)


def test_empty_outcome_at_visit_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(MINIMAL_CSV.replace("1,0,1,1,1,3.0", "1,0,1,1,1,"))
    with pytest.raises(ValidationError, match="missing outcome on visit row"):
        load_csv(path)


def test_empty_file_and_header_only(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(ValidationError, match="missing header"):
        load_csv(path)
    path.write_text(MINIMAL_CSV.splitlines()[0] + "\n")
    with pytest.raises(ValidationError, match="no data rows"):
        load_csv(path)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_round_trip_property(tmp_path_factory, seed):
    ds = random_panel(seed, n_patients=4, n_periods=3, n_cov=2)
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    export_csv(ds, path)
    again = load_csv(path)
    assert np.array_equal(again.covariates, ds.covariates)
    assert np.array_equal(again.outcome, ds.outcome, equal_nan=True)
    assert np.array_equal(again.visit, ds.visit)


# -- csv: the column-wise reader against the row-by-row reference ------------

ARRAYS = ("patient_index", "start", "end", "at_risk", "visit", "outcome",
          "covariates")


def assert_bitwise_equal(a, b):
    assert a.patient_ids == b.patient_ids
    assert [type(p) for p in a.patient_ids] == [type(p) for p in b.patient_ids]
    assert a.covariate_names == b.covariate_names
    assert a.tau == b.tau
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name


def assert_rejected(path, message):
    """``load_csv`` and the reference both fail with exactly ``message``."""
    for reader in (load_csv, load_csv_rows):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            reader(path)


FLOAT_FORMATS = (repr, lambda x: format(x, ".17e"), lambda x: format(x, ".17g"))
RENAMED = {"patient_id": "id", "start": "t0", "end": "t1", "at_risk": "risk",
           "visit": "seen", "outcome": "y"}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000),
       ids=st.lists(st.text(alphabet='ab,"# ', max_size=4), min_size=3,
                    max_size=3, unique=True),
       quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
       newline=st.sampled_from(["\n", "\r\n", "\r"]),
       pad=st.booleans(), rename=st.booleans(), fmt=st.sampled_from(FLOAT_FORMATS),
       n_cov=st.integers(0, 2))
def test_load_csv_matches_row_reference(tmp_path_factory, seed, ids, quoting,
                                        newline, pad, rename, fmt, n_cov):
    ds = random_panel(seed, n_patients=3, n_periods=4, n_cov=n_cov)
    rnd = random.Random(seed)
    structural = [RENAMED[k] if rename else k for k in irrvis.data.STRUCTURAL_COLUMNS]
    header = structural + list(ds.covariate_names)
    columns = list(range(len(header)))
    rnd.shuffle(columns)

    def number(x):
        text = fmt(x)
        return " " * rnd.randint(0, 2) + text + " " * rnd.randint(0, 2) if pad else text

    records = []
    for r in dataset_rows(ds):
        outcome = number(r.outcome) if r.visit else " " * rnd.randint(0, pad * 2)
        cells = [ids[int(r.patient_id[1:])], number(r.start), number(r.end),
                 str(int(r.at_risk)), str(int(r.visit)), outcome,
                 *map(number, r.covariates.values())]
        records.append([cells[j] for j in columns])
    rnd.shuffle(records)
    path = tmp_path_factory.mktemp("ref") / "d.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=quoting, lineterminator=newline)
        writer.writerow([header[j] for j in columns])
        writer.writerows(records)

    schema = RENAMED if rename else None
    loaded = load_csv(path, schema)
    assert_bitwise_equal(loaded, load_csv_rows(path, schema))
    assert sorted(loaded.patient_ids) == sorted(ids)


def test_valid_file_is_parsed_by_one_loadtxt_call(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    export_csv(random_panel(3, n_patients=5), path)
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))

    def row_pass(*args):
        raise AssertionError("the row-by-row pass ran on a valid file")

    monkeypatch.setattr(irrvis.data, "_raise_first_bad_cell", row_pass)
    load_csv(path)
    assert calls == [1]


def test_hash_is_data_not_a_comment(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(MINIMAL_CSV.replace("\n1,", "\n#1,"))
    ds = load_csv(path)
    assert ds.patient_ids == ["#1"] and ds.n_rows == 2
    assert_bitwise_equal(ds, load_csv_rows(path))
    path.write_text(MINIMAL_CSV.replace("1,1,2,1,0,,0.5", "1,1,2,1,0,,#5"))
    assert_rejected(path, "line 3: column 'z' has non-numeric value '#5'")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, message", [
    (MINIMAL_CSV.replace("\n1,1,", "\n\n1,1,"), "line 3: expected 7 cells, got 0"),
    (MINIMAL_CSV.replace("\n1,1,", "\n  \n1,1,"), "line 3: expected 7 cells, got 1"),
    (MINIMAL_CSV.replace("\n1,0,", "\n\n1,0,"), "line 2: expected 7 cells, got 0"),
    (MINIMAL_CSV + "\n", "line 4: expected 7 cells, got 0"),
    (MINIMAL_CSV + "\t\n", "line 4: expected 7 cells, got 1"),
    (MINIMAL_CSV + " ", "line 4: expected 7 cells, got 1"),
    (MINIMAL_CSV.replace("\n", "\r\n") + "\r\n", "line 4: expected 7 cells, got 0"),
    (MINIMAL_CSV.replace("\n", "\r") + "\r", "line 4: expected 7 cells, got 0"),
    (MINIMAL_CSV.splitlines()[0] + "\n\n", "line 2: expected 7 cells, got 0"),
])
def test_blank_lines_are_rejected(tmp_path, text, message):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    assert_rejected(path, message)


def test_blank_line_inside_a_quoted_cell_is_data(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(MINIMAL_CSV.replace("\n1,", '\n"a\n\nb",'))
    ds = load_csv(path)
    assert ds.patient_ids == ["a\n\nb"]
    assert_bitwise_equal(ds, load_csv_rows(path))


LINE_3 = ["1", "1", "2", "1", "0", "", "0.5"]


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
@pytest.mark.parametrize("j, column", [(1, "start"), (2, "end"), (5, "outcome"),
                                       (6, "z")])
def test_non_finite_values_are_rejected(tmp_path, value, j, column):
    cells = list(LINE_3)
    cells[j] = value
    path = tmp_path / "d.csv"
    path.write_text(MINIMAL_CSV.replace(",".join(LINE_3), ",".join(cells)))
    assert_rejected(path, f"line 3: column {column!r} is not finite")


@pytest.mark.parametrize("value", ["2", " 1", "01", "true", ""])
@pytest.mark.parametrize("j, column", [(3, "at_risk"), (4, "visit")])
def test_boolean_cells_are_exactly_0_or_1(tmp_path, value, j, column):
    cells = list(LINE_3)
    cells[j] = value
    path = tmp_path / "d.csv"
    path.write_text(MINIMAL_CSV.replace(",".join(LINE_3), ",".join(cells)))
    assert_rejected(path, f"line 3: column {column!r} must be 0 or 1, got {value!r}")


@pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff11", "0x1"])
def test_number_grammar_is_ascii_float_syntax(tmp_path, value):
    # float() takes the first three, np.loadtxt's reader none of them
    cells = list(LINE_3)
    cells[6] = value
    path = tmp_path / "d.csv"
    path.write_text(MINIMAL_CSV.replace(",".join(LINE_3), ",".join(cells)))
    assert_rejected(path, f"line 3: column 'z' has non-numeric value {value!r}")


def test_unicode_space_around_a_number_is_stripped(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(MINIMAL_CSV.replace(",0.5\n1,1", ",\u00a00.5\u2003\n1,1"))
    ds = load_csv(path)
    assert ds.covariates[0, 0] == 0.5
    assert_bitwise_equal(ds, load_csv_rows(path))


@pytest.mark.parametrize("j, value, message", [
    (6, "x", "column 'z' has non-numeric value 'x'"),
    (2, "inf", "column 'end' is not finite"),
    (4, "yes", "column 'visit' must be 0 or 1, got 'yes'"),
    (None, None, "expected 7 cells, got 6"),
])
def test_bad_cell_deep_in_a_file_reports_its_line(tmp_path, j, value, message):
    lines = [MINIMAL_CSV.splitlines()[0]]
    for k in range(6000):
        pid, t = divmod(k, 10)
        lines.append(f"p{pid},{t},{t + 1},1,{t % 2},{'2.5' if t % 2 else ''},{pid / 7!r}")
    cells = lines[4999].split(",")
    if j is None:
        del cells[-1]
    else:
        cells[j] = value
    lines[4999] = ",".join(cells)
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n")
    assert_rejected(path, f"line 5000: {message}")


def test_export_quotes_ids_as_the_csv_writer_does(tmp_path):
    ids = ["a,b", 'q"x', "#5", " pad ", "", "two\nlines", 7]
    rows = []
    for k, pid in enumerate(ids):
        rows += grid_rows(pid, {"z": k / 3}, {1: 0.1 * k}, n_periods=2)
    ds = Dataset.from_rows(rows)
    ours, reference = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(ds, ours)
    export_csv_rows(ds, reference)
    assert ours.read_bytes() == reference.read_bytes()
    again = load_csv(ours)
    assert again.patient_ids == [str(p) for p in ids]
    assert_bitwise_equal(again, load_csv_rows(ours))


# -- subsetting --------------------------------------------------------------


def test_take_patients_subsets_and_relabels():
    ds = two_patient_dataset()
    sub = ds.take_patients([1])
    assert sub.n_patients == 1
    assert sub.patient_ids == [0]
    assert sub.n_rows == 4
    assert np.array_equal(sub.covariates[:, 0], [-0.5] * 4)


def test_take_patients_allows_repeats():
    ds = two_patient_dataset()
    boot = ds.take_patients([0, 0, 1])
    assert boot.n_patients == 3
    assert boot.n_rows == 12
    assert int(boot.visit.sum()) == 2 * 2 + 1


def test_take_patients_validates_indices():
    ds = two_patient_dataset()
    with pytest.raises(ValidationError, match="out of range"):
        ds.take_patients([2])
    with pytest.raises(ValidationError, match="no patients"):
        ds.take_patients([])
    with pytest.raises(ValidationError, match="no patients"):
        ds.take_patients(np.array([], dtype=np.int64))


@pytest.mark.parametrize("indices", [np.array([[0], [1]]), np.int64(1), 0])
def test_take_patients_rejects_indices_that_are_not_1d(indices):
    ds = two_patient_dataset()
    with pytest.raises(ValidationError, match="1-d"):
        ds.take_patients(indices)


@pytest.mark.parametrize("indices", [[0.7, 1.2], [0.0, 1.0], np.array([True, False]),
                                     ["0", "1"]])
def test_take_patients_rejects_non_integer_indices(indices):
    # a float would be truncated and a mask read as the indices 1 and 0
    ds = two_patient_dataset()
    with pytest.raises(ValidationError, match="patient indices must be integers"):
        ds.take_patients(indices)


def test_take_patients_accepts_numpy_integers():
    ds = two_patient_dataset()
    for dtype in (np.int32, np.uint8, np.int64):
        sub = ds.take_patients(np.array([1, 0, 1], dtype=dtype))
        assert np.array_equal(sub.start, ds.take_patients([1, 0, 1]).start)
