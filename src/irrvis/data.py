"""Counting-process data model.

Longitudinal data with irregular visit times are stored one interval per
row.  A row covers the half-open interval ``(start, end]`` for one patient;
``visit`` marks whether the patient was observed at ``end``, and ``outcome``
is the response measured at that visit (absent between visits).  ``at_risk``
says whether the patient can still produce visits on the interval; once a
patient is censored the flag stays off.

The :class:`Dataset` container keeps rows grouped by patient in
structure-of-arrays form, which is what the fitting routines consume.
:class:`CountingProcessRow` is the row-level view used at the boundaries.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ValidationError

__all__ = ["CountingProcessRow", "Dataset", "load_csv", "export_csv"]

# fixed boundary schema: these six columns, then covariates in declared order
STRUCTURAL_COLUMNS = ("patient_id", "start", "end", "at_risk", "visit", "outcome")


@dataclass(frozen=True)
class CountingProcessRow:
    """One at-risk interval ``(start, end]`` of one patient."""

    patient_id: object
    start: float
    end: float
    at_risk: bool
    visit: bool
    outcome: Optional[float]
    covariates: Mapping[str, float]


class Dataset:
    """Rows of a visit process, grouped by patient.

    Attributes
    ----------
    patient_ids : list
        One label per patient, in order of first appearance.
    patient_index : ndarray of int32
        Per-row patient position (0-based into ``patient_ids``).
    start, end : ndarray of float64
    at_risk, visit : ndarray of bool
    outcome : ndarray of float64
        NaN on rows without a visit.
    covariates : ndarray of float64, shape (n_rows, n_covariates)
    covariate_names : tuple of str
    tau : float
        Administrative end of follow-up.

    Arrays are shared, not copied; treat a Dataset as immutable.
    """

    def __init__(self, patient_ids, patient_index, start, end, at_risk, visit,
                 outcome, covariates, covariate_names, tau, validate=True):
        self.patient_ids = list(patient_ids)
        self.patient_index = np.asarray(patient_index, dtype=np.int32)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.at_risk = np.asarray(at_risk, dtype=bool)
        self.visit = np.asarray(visit, dtype=bool)
        self.outcome = np.asarray(outcome, dtype=np.float64)
        self.covariates = np.ascontiguousarray(covariates, dtype=np.float64)
        if self.covariates.ndim != 2:
            raise ValidationError("covariates must be a 2-d array")
        self.covariate_names = tuple(covariate_names)
        self.tau = float(tau)
        self._row_bounds = None
        if validate:
            self._validate()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[CountingProcessRow], tau: Optional[float] = None) -> "Dataset":
        """Build a dataset from row objects, grouping by patient id."""
        if not rows:
            raise ValidationError("dataset has no rows")
        names = tuple(rows[0].covariates.keys())
        ids: list = []
        id_pos: dict = {}
        pidx = np.empty(len(rows), dtype=np.int32)
        start = np.empty(len(rows))
        end = np.empty(len(rows))
        at_risk = np.empty(len(rows), dtype=bool)
        visit = np.empty(len(rows), dtype=bool)
        outcome = np.full(len(rows), np.nan)
        cov = np.empty((len(rows), len(names)))
        for i, r in enumerate(rows):
            if tuple(r.covariates.keys()) != names:
                raise ValidationError(f"row {i}: covariate names differ from first row")
            if r.patient_id not in id_pos:
                id_pos[r.patient_id] = len(ids)
                ids.append(r.patient_id)
            pidx[i] = id_pos[r.patient_id]
            start[i] = r.start
            end[i] = r.end
            at_risk[i] = r.at_risk
            visit[i] = r.visit
            if r.outcome is not None:
                outcome[i] = r.outcome
            cov[i] = [r.covariates[k] for k in names]
        if tau is None:
            tau = float(end.max())
        order = np.lexsort((start, pidx))
        return cls(ids, pidx[order], start[order], end[order], at_risk[order],
                   visit[order], outcome[order], cov[order], names, tau)

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        n_rows = self.patient_index.shape[0]
        if n_rows == 0:
            raise ValidationError("dataset has no rows")
        for arr, name in ((self.start, "start"), (self.end, "end"),
                          (self.visit, "visit"), (self.at_risk, "at_risk"),
                          (self.outcome, "outcome")):
            if arr.shape[0] != n_rows:
                raise ValidationError(f"column {name!r} has wrong length")
        if self.covariates.shape[0] != n_rows:
            raise ValidationError("covariate matrix has wrong number of rows")
        if self.covariates.shape[1] != len(self.covariate_names):
            raise ValidationError("covariate matrix width does not match names")
        if not np.isfinite(self.start).all() or not np.isfinite(self.end).all():
            raise ValidationError("non-finite interval endpoint")
        if not np.isfinite(self.covariates).all():
            raise ValidationError("non-finite covariate value")
        if np.any(self.start < 0):
            raise ValidationError("negative interval start")
        if np.any(self.end <= self.start):
            raise ValidationError("interval with end <= start")
        if np.any(self.end > self.tau + 1e-12):
            raise ValidationError("interval extends past tau")
        if np.any(self.visit & ~self.at_risk):
            raise ValidationError("visit recorded on a row that is not at risk")
        has_outcome = np.isfinite(self.outcome)
        if np.any(self.visit & ~has_outcome):
            i = int(np.flatnonzero(self.visit & ~has_outcome)[0])
            raise ValidationError(f"missing outcome on visit row {i}")
        if np.any(~self.visit & has_outcome):
            i = int(np.flatnonzero(~self.visit & has_outcome)[0])
            raise ValidationError(f"outcome present on non-visit row {i}")
        # per-patient structure: contiguous partition starting at 0,
        # at-risk before censored rows
        bounds = self.patient_row_bounds
        if int(self.patient_index.max()) + 1 != len(self.patient_ids):
            raise ValidationError("patient_index does not match patient_ids")
        for k in range(len(self.patient_ids)):
            lo, hi = bounds[k], bounds[k + 1]
            if hi <= lo:
                raise ValidationError(f"patient {self.patient_ids[k]!r} has no rows")
            s, e = self.start[lo:hi], self.end[lo:hi]
            if s[0] != 0.0:
                raise ValidationError(
                    f"patient {self.patient_ids[k]!r}: first interval must start at 0")
            if hi - lo > 1 and not np.array_equal(s[1:], e[:-1]):
                raise ValidationError(
                    f"patient {self.patient_ids[k]!r}: intervals overlap or leave gaps")
            a = self.at_risk[lo:hi]
            if np.any(a[1:] & ~a[:-1]):
                raise ValidationError(
                    f"patient {self.patient_ids[k]!r}: at_risk turns back on after censoring")

    @property
    def patient_row_bounds(self) -> np.ndarray:
        """CSR-style bounds: rows of patient ``k`` are ``[bounds[k], bounds[k+1])``.

        Requires rows grouped by patient in ``patient_ids`` order, which the
        constructors guarantee.
        """
        if self._row_bounds is None:
            pidx = self.patient_index
            if np.any(np.diff(pidx) < 0):
                raise ValidationError("rows are not grouped by patient")
            counts = np.bincount(pidx, minlength=len(self.patient_ids))
            self._row_bounds = np.concatenate(([0], np.cumsum(counts)))
        return self._row_bounds

    # -- views -------------------------------------------------------------

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    @property
    def n_rows(self) -> int:
        return int(self.patient_index.shape[0])

    def visit_row_indices(self) -> np.ndarray:
        return np.flatnonzero(self.visit)

    def at_risk_row_indices(self) -> np.ndarray:
        return np.flatnonzero(self.at_risk)

    def event_times(self) -> np.ndarray:
        """Distinct visit times, ascending (ties pooled)."""
        return np.unique(self.end[self.visit])

    def covariate_column(self, name: str) -> np.ndarray:
        try:
            j = self.covariate_names.index(name)
        except ValueError:
            raise ValidationError(f"unknown covariate {name!r}") from None
        return self.covariates[:, j]

    def rows(self) -> Iterator[CountingProcessRow]:
        """Iterate rows as :class:`CountingProcessRow` objects."""
        for i in range(self.n_rows):
            yield CountingProcessRow(
                patient_id=self.patient_ids[self.patient_index[i]],
                start=float(self.start[i]),
                end=float(self.end[i]),
                at_risk=bool(self.at_risk[i]),
                visit=bool(self.visit[i]),
                outcome=float(self.outcome[i]) if self.visit[i] else None,
                covariates={k: float(v) for k, v in
                            zip(self.covariate_names, self.covariates[i])},
            )

    def take_patients(self, indices: Sequence[int]) -> "Dataset":
        """New dataset containing the given patients, in the given order.

        Indices may repeat (bootstrap resampling); each occurrence becomes a
        distinct patient with a fresh integer label.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            raise ValidationError("cannot build a dataset with no patients")
        if indices.min() < 0 or indices.max() >= self.n_patients:
            raise ValidationError("patient index out of range")
        bounds = self.patient_row_bounds
        pieces = [np.arange(bounds[i], bounds[i + 1]) for i in indices]
        rows = np.concatenate(pieces)
        counts = np.array([len(p) for p in pieces])
        pidx = np.repeat(np.arange(len(indices), dtype=np.int32), counts)
        return Dataset(list(range(len(indices))), pidx, self.start[rows],
                       self.end[rows], self.at_risk[rows], self.visit[rows],
                       self.outcome[rows], self.covariates[rows],
                       self.covariate_names, self.tau, validate=False)


# -- CSV boundary ----------------------------------------------------------

# Lines np.loadtxt skips without a word; the row-by-row reading rejects them
# as records of no cells.
_EMPTY_LINES = ("\n", "\r\n", "\r")


def _parse_bool(text: str, column: str, line: int) -> bool:
    if text == "0":
        return False
    if text == "1":
        return True
    raise ValidationError(f"line {line}: column {column!r} must be 0 or 1, got {text!r}")


def _number(text: str) -> float:
    # float() without its underscores and non-ASCII digits: the grammar of
    # np.loadtxt's reader, so both readings of a file accept the same cells
    core = text.strip()
    if not core.isascii() or "_" in core:
        raise ValueError(text)
    return float(core)


def _parse_float(text: str, column: str, line: int) -> float:
    try:
        value = _number(text)
    except ValueError:
        raise ValidationError(
            f"line {line}: column {column!r} has non-numeric value {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"line {line}: column {column!r} is not finite")
    return value


def _noting_empty_lines(lines, empty: list):
    """Yield ``lines``, appending each empty one to ``empty``."""
    for text in lines:
        if text in _EMPTY_LINES:
            empty.append(text)
        yield text


def _raise_first_bad_cell(path, n_cells, positions, colmap, cov_cols) -> None:
    """Raise the error of the first bad record or cell of the file, in row order.

    Returns if every record parses.
    """
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line, rec in enumerate(reader, start=2):
            if len(rec) != n_cells:
                raise ValidationError(f"line {line}: expected {n_cells} cells, got {len(rec)}")
            for key in ("start", "end"):
                _parse_float(rec[positions[key]], colmap[key], line)
            for key in ("at_risk", "visit"):
                _parse_bool(rec[positions[key]], colmap[key], line)
            cell = rec[positions["outcome"]].strip()
            if cell != "":
                _parse_float(cell, colmap["outcome"], line)
            for name, j in cov_cols:
                _parse_float(rec[j], name, line)


def _flags(cells: np.ndarray, key: str) -> np.ndarray:
    flag = cells == "1"
    if not (flag | (cells == "0")).all():
        raise ValueError(f"column {key!r} holds a value other than 0 or 1")
    return flag


def _columns(lines, n_cells, positions, cov_cols) -> tuple:
    """``(patient ids, start, end, at_risk, visit, outcome, covariates)``.

    The body is parsed in one ``np.loadtxt`` call.  Raises ValueError where
    the row-by-row reading would reject a cell.
    """
    numeric = {positions["start"], positions["end"], *(j for _, j in cov_cols)}
    table = np.loadtxt(lines, dtype=[(f"c{j}", np.float64 if j in numeric else object)
                                     for j in range(n_cells)],
                       delimiter=",", quotechar='"', comments=None, ndmin=1)

    def column(key):
        return table[f"c{positions[key]}"]

    start, end = column("start"), column("end")
    cov = np.empty((table.shape[0], len(cov_cols)))
    for k, (_, j) in enumerate(cov_cols):
        cov[:, k] = table[f"c{j}"]
    cells = [text.strip() for text in column("outcome").tolist()]
    present = np.fromiter(map(bool, cells), bool, count=len(cells))
    outcome = np.full(len(cells), np.nan)
    outcome[present] = [_number(text) for text in cells if text]
    if not (np.isfinite(start).all() and np.isfinite(end).all()
            and np.isfinite(cov).all() and np.isfinite(outcome[present]).all()):
        raise ValueError("non-finite value")
    return (column("patient_id").tolist(), start, end,
            _flags(column("at_risk"), "at_risk"), _flags(column("visit"), "visit"),
            outcome, cov)


def load_csv(path, schema: Optional[Mapping[str, str]] = None) -> Dataset:
    """Read a dataset from CSV.

    Parameters
    ----------
    path : str or path-like
    schema : mapping, optional
        Maps the six structural field names (``patient_id``, ``start``,
        ``end``, ``at_risk``, ``visit``, ``outcome``) to the column names
        used in the file.  Unmapped fields keep their canonical name.
        Every remaining column is treated as a covariate, in file order.

    Cells are split by the ``csv`` module's default rules: ``,`` between
    cells, ``"`` quotes a cell and ``""`` is a quote inside one.  Numbers
    are ASCII decimal or exponent literals (``float`` syntax without
    ``_``), optionally quoted or padded with spaces; non-finite values are
    rejected.  Booleans must be literally ``0`` or ``1``; the outcome cell
    must be empty on rows without a visit.  ``#`` has no special meaning,
    and blank lines are rejected.  Errors name the first bad cell by line
    and column.
    """
    colmap = dict.fromkeys(STRUCTURAL_COLUMNS)
    for k in STRUCTURAL_COLUMNS:
        colmap[k] = k
    if schema is not None:
        for key, col in schema.items():
            if key not in STRUCTURAL_COLUMNS:
                raise ValidationError(f"schema maps unknown field {key!r}")
            colmap[key] = col
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("empty file: missing header row") from None
        if len(set(header)) != len(header):
            raise ValidationError("duplicate column names in header")
        positions = {}
        for key in STRUCTURAL_COLUMNS:
            if colmap[key] not in header:
                raise ValidationError(f"missing required column {colmap[key]!r}")
            positions[key] = header.index(colmap[key])
        structural = set(positions.values())
        cov_cols = [(name, j) for j, name in enumerate(header) if j not in structural]
        names = tuple(name for name, _ in cov_cols)

        first = next(fh, None)
        if first is None:
            raise ValidationError("file has a header but no data rows")
        empty = []
        try:
            if first in _EMPTY_LINES:
                # loadtxt would warn of a file without data
                raise ValueError("empty first line")
            lines = _noting_empty_lines(itertools.chain([first], fh), empty)
            pids, start, end, at_risk, visit, outcome, cov = _columns(
                lines, len(header), positions, cov_cols)
        except ValueError as exc:
            failure = exc
        else:
            failure = None
    if failure is not None or empty:
        _raise_first_bad_cell(path, len(header), positions, colmap, cov_cols)
        if failure is not None:
            raise ValidationError(f"unreadable CSV body: {failure}")
    # past here, every empty line sat inside a quoted cell

    ids = list(dict.fromkeys(pids))
    id_pos = {pid: k for k, pid in enumerate(ids)}
    pidx = np.fromiter(map(id_pos.__getitem__, pids), np.int32, count=len(pids))
    order = np.lexsort((start, pidx))
    return Dataset(ids, pidx[order], start[order], end[order],
                   at_risk[order], visit[order], outcome[order], cov[order],
                   names, tau=float(np.max(end)))


def _format_float(x: float) -> str:
    # repr gives the shortest string that round-trips, so exports are
    # byte-stable across runs
    return repr(float(x))


# rows formatted at a time by export_csv, bounding the memory its cell
# strings take
_EXPORT_BLOCK = 8192


def _csv_cells(values) -> list:
    """Each value as ``csv.writer`` writes it in a row, quoted where needed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for value in values:
        buf.seek(0)
        buf.truncate()
        # a row of one empty cell would be written as '""'
        writer.writerow((value, ""))
        cells.append(buf.getvalue()[:-2])
    return cells


def _reprs(values: np.ndarray) -> list:
    # _format_float of each value, without a call per value
    return list(map(repr, values.tolist()))


def export_csv(dataset: Dataset, path) -> None:
    """Write a dataset to CSV in the fixed boundary column order."""
    ids = _csv_cells(dataset.patient_ids)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            list(STRUCTURAL_COLUMNS) + list(dataset.covariate_names))
        for lo in range(0, dataset.n_rows, _EXPORT_BLOCK):
            rows = slice(lo, lo + _EXPORT_BLOCK)
            visit = dataset.visit[rows].tolist()
            columns = [
                list(map(ids.__getitem__, dataset.patient_index[rows].tolist())),
                _reprs(dataset.start[rows]),
                _reprs(dataset.end[rows]),
                ["1" if v else "0" for v in dataset.at_risk[rows].tolist()],
                ["1" if v else "0" for v in visit],
                [repr(y) if v else ""
                 for y, v in zip(dataset.outcome[rows].tolist(), visit)],
                *(_reprs(c) for c in dataset.covariates[rows].T),
            ]
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
