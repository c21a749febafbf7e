"""Builders for the small synthetic datasets used across the test suite,
and row-level views of datasets and designs that only the tests need."""

import numpy as np

from irrvis import CountingProcessRow, Dataset
from irrvis.design import BoundDesign, _subset_rows


def grid_rows(pid, cov, visits, n_periods=4, step=1.0, censored_from=None):
    """Rows for one patient on a unit grid.

    ``visits`` maps the period number (1-based, the interval ending at
    ``k * step``) to the outcome observed there.  ``censored_from`` turns
    ``at_risk`` off for periods >= that number.
    """
    rows = []
    for k in range(1, n_periods + 1):
        risk = censored_from is None or k < censored_from
        visit = risk and k in visits
        rows.append(CountingProcessRow(pid, (k - 1) * step, k * step, risk,
                                       visit, visits[k] if visit else None,
                                       dict(cov)))
    return rows


def two_patient_rows():
    rows = grid_rows("a", {"z": 1.0}, {1: 2.5, 3: 1.0}, n_periods=4)
    rows += grid_rows("b", {"z": -0.5}, {2: 0.0}, n_periods=4, censored_from=4)
    return rows


def two_patient_dataset():
    return Dataset.from_rows(two_patient_rows(), tau=4.0)


def random_panel(seed, n_patients=6, n_periods=5, p_visit=0.5, n_cov=1,
                 outcome_sd=1.0, outcome_shift=0.0):
    """Random dataset on a unit grid; covariates constant per patient.

    Retries with a shifted seed until at least one visit lands, so the
    result is deterministic and always usable by the fitting code.
    """
    for attempt in range(100):
        rng = np.random.default_rng(seed + 7919 * attempt)
        rows = []
        n_visits = 0
        for pid in range(n_patients):
            cov = {f"z{j + 1}": float(rng.normal()) for j in range(n_cov)}
            for k in range(n_periods):
                visit = bool(rng.random() < p_visit)
                n_visits += visit
                y = float(outcome_shift + rng.normal(0.0, outcome_sd)) if visit else None
                rows.append(CountingProcessRow(f"p{pid}", float(k), float(k + 1),
                                               True, visit, y, cov))
        if n_visits:
            return Dataset.from_rows(rows, tau=float(n_periods))
    raise AssertionError("could not build a panel with visits")


def drawn_positions(rows_of_full, bounds, draw):
    """Positions in a per-entry array whose entries carry the dataset rows
    ``rows_of_full``, of the entries of patients ``draw`` (with repeats), in
    the row order of ``dataset.take_patients(draw)``; ``bounds`` are the
    dataset's ``patient_row_bounds``."""
    by_row = np.argsort(rows_of_full, kind="stable")
    rows = rows_of_full[by_row]
    return np.concatenate([by_row[(rows >= bounds[i]) & (rows < bounds[i + 1])]
                           for i in draw])


def dataset_rows(dataset):
    """The rows of ``dataset`` as :class:`CountingProcessRow` objects."""
    for i in range(dataset.n_rows):
        yield CountingProcessRow(
            patient_id=dataset.patient_ids[dataset.patient_index[i]],
            start=float(dataset.start[i]),
            end=float(dataset.end[i]),
            at_risk=bool(dataset.at_risk[i]),
            visit=bool(dataset.visit[i]),
            outcome=float(dataset.outcome[i]) if dataset.visit[i] else None,
            covariates={k: float(v) for k, v in
                        zip(dataset.covariate_names, dataset.covariates[i])},
        )


def build_design(dataset, spec, subset="all"):
    """``(matrix, names)``: the design of ``spec`` on a row subset, with
    standardization statistics from the same subset, each row evaluated at
    its own endpoint."""
    bound = BoundDesign(dataset, spec, subset)
    return bound.evaluate(dataset, _subset_rows(dataset, subset)), list(bound.names)


def pair_events(rs):
    """The event index of each of ``rs``'s incidence pairs, read off its
    per-event pair counts."""
    return np.repeat(np.arange(rs.K), rs.event_counts)
