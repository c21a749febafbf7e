"""Risk-set bookkeeping for recurrent visit processes.

An at-risk row ``(start, end]`` covers every distinct visit time ``s`` with
``start < s <= end``.  The (row, event) incidence pairs are materialized
once per dataset; every sum over risk sets is then a segmented reduction
over the pairs with ``numpy.bincount``, which accumulates in a fixed order.
All sums of positive quantities, so results are exact to float64 rounding
and reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .errors import NumericError, ValidationError

__all__ = ["RiskStructure"]


class RiskStructure:
    """Incidence pairs between at-risk rows and pooled event times.

    Attributes
    ----------
    event_times : ndarray, shape (K,)
        Distinct visit times, ascending.  Ties are pooled.
    cover_row : ndarray of int64, shape (M,)
        Dataset row index of each incidence pair.
    cover_event : ndarray of int64, shape (M,)
        Event index of each pair.
    visit_rows : ndarray of int64, shape (V,)
        Dataset row indices with a visit, ascending.
    visit_event : ndarray of int64, shape (V,)
        Event index of each visit row.
    n : int
        Number of patients; sums are reported divided by ``n``.
    """

    def __init__(self, dataset: Dataset):
        self.n = dataset.n_patients
        self.event_times = dataset.event_times()
        if self.event_times.size == 0:
            raise ValidationError("dataset has no visits")
        self.K = int(self.event_times.size)
        risk_rows = dataset.at_risk_row_indices()
        lo = np.searchsorted(self.event_times, dataset.start[risk_rows], side="right")
        hi = np.searchsorted(self.event_times, dataset.end[risk_rows], side="right")
        counts = hi - lo
        keep = counts > 0
        risk_rows, lo, counts = risk_rows[keep], lo[keep], counts[keep]
        self.cover_row = np.repeat(risk_rows, counts)
        # concatenated ranges lo[i] .. lo[i]+counts[i]
        ends = np.cumsum(counts)
        offsets = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
        self.cover_event = np.repeat(lo, counts) + offsets
        self.visit_rows = dataset.visit_row_indices()
        self.visit_event = np.searchsorted(self.event_times, dataset.end[self.visit_rows])

    def subset(self, pairs: np.ndarray, visits: np.ndarray, n: int):
        """Structure of a dataset built from some of this one's rows.

        ``pairs`` and ``visits`` index this structure's incidence pairs and
        visit rows, in the order the new dataset holds them (they may
        repeat).  Event times at which none of ``visits`` falls are dropped
        with the pairs that cover them, and the remaining events are
        renumbered.  Returns ``(structure, kept)``: ``kept`` is the part of
        ``pairs`` that survives, so per-pair arrays are sliced by it.  Row
        indices in the result still refer to this structure's dataset.
        """
        events = np.zeros(self.K, dtype=bool)
        events[self.visit_event[visits]] = True
        if not events.any():
            raise ValidationError("dataset has no visits")
        renumber = np.cumsum(events) - 1
        kept = pairs[events[self.cover_event[pairs]]]
        out = object.__new__(RiskStructure)
        out.n = int(n)
        out.event_times = self.event_times[events]
        out.K = int(out.event_times.size)
        out.cover_row = self.cover_row[kept]
        out.cover_event = renumber[self.cover_event[kept]]
        out.visit_rows = self.visit_rows[visits]
        out.visit_event = renumber[self.visit_event[visits]]
        return out, kept

    def cover_times(self) -> np.ndarray:
        """Event time of each incidence pair."""
        return self.event_times[self.cover_event]

    def design(self, bound, dataset: Dataset):
        """``bound``'s design on the incidence pairs, each row at its pair's
        event time, and on the visit rows: ``(on_pairs, on_visits)``."""
        return (bound.evaluate(dataset, self.cover_row, self.cover_times()),
                bound.evaluate(dataset, self.visit_rows))

    def event_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum ``values`` (one per incidence pair) within each event time."""
        return np.bincount(self.cover_event, weights=values, minlength=self.K)

    def event_sum_columns(self, weights: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Per-event sums of ``weights * columns[:, j]``, shape (K, p)."""
        p = columns.shape[1]
        out = np.empty((self.K, p))
        for j in range(p):
            out[:, j] = np.bincount(self.cover_event,
                                    weights=weights * columns[:, j],
                                    minlength=self.K)
        return out

    def pooled_visit_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum per-visit ``values`` within each event time (tie pooling)."""
        return np.bincount(self.visit_event, weights=values, minlength=self.K)

    @staticmethod
    def check_positive(s0: np.ndarray) -> None:
        if np.any(s0 <= 0.0) or not np.all(np.isfinite(s0)):
            raise NumericError(
                "risk-set sum is zero or non-finite at an event time; "
                "check at_risk flags and covariate scale")
