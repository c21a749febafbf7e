"""Risk-set bookkeeping for recurrent visit processes.

An at-risk row ``(start, end]`` covers every distinct visit time ``s`` with
``start < s <= end``.  The (row, event) incidence pairs are materialized
once per dataset and stored event-major: sorted by event, and within an
event in dataset row order.  The pairs of one event are then a contiguous
segment; sums over risk sets are ``numpy.add.reduceat`` over the segment
starts of per-pair rows, in ranges of bounded size (``blocks``) and in a
fixed order, so results are reproducible.  The ``grid`` form, where every
patient is at risk at each of fixed times, keeps its pairs implicit.

For an empty segment ``reduceat`` returns the element at its start, not
zero, so every event must have at least one pair.  Validated data
guarantee it: a visit row is at risk and has ``end > start``, so it covers
its own event time, and a subset keeps an event only with one of its
visits.  A structure that would break this raises :class:`NumericError`.
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
        Dataset row index of each incidence pair.  Pairs are event-major:
        sorted by event, and by dataset row within an event.
    cover_event : ndarray of int64, shape (M,)
        Event index of each pair, non-decreasing.
    event_counts : ndarray of int64, shape (K,)
        Number of pairs of each event, all at least 1.
    event_starts : ndarray of int64, shape (K,)
        Position of each event's first pair; event ``k`` holds pairs
        ``event_starts[k] : event_starts[k] + event_counts[k]``.
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
        cover_row = np.repeat(risk_rows, counts)
        # concatenated ranges lo[i] .. lo[i]+counts[i]
        ends = np.cumsum(counts)
        offsets = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
        cover_event = np.repeat(lo, counts) + offsets
        order = np.argsort(cover_event, kind="stable")
        self.cover_row = cover_row[order]
        self.cover_event = cover_event[order]
        self.visit_rows = dataset.visit_row_indices()
        self.visit_event = np.searchsorted(self.event_times, dataset.end[self.visit_rows])
        self._index_events()

    @classmethod
    def grid(cls, times: np.ndarray, n: int, visit: np.ndarray):
        """Grid form: ``n`` patients at risk at each of ``times``, with pair
        ``k * n + i`` (patient ``i`` at time ``k``) flagged by ``visit[k * n + i]``
        and no ``cover_row`` or ``cover_event``.  ``visit_rows`` are pair
        numbers; a time without a visit stays, with a zero pooled sum."""
        visit_rows = np.flatnonzero(visit)
        if visit_rows.size == 0:
            raise ValidationError("dataset has no visits")
        out = object.__new__(cls)
        out.n, out.event_times, out.K = int(n), times, len(times)
        out.event_counts, out.event_starts = np.full(out.K, n), np.arange(out.K) * n
        out.visit_rows, out.visit_event = visit_rows, visit_rows // n
        return out

    def _index_events(self) -> None:
        """Set ``event_counts`` and ``event_starts`` from ``cover_event``."""
        self.event_counts = np.bincount(self.cover_event, minlength=self.K)
        if not self.event_counts.all():
            raise NumericError(
                "an event time has an empty risk set; check at_risk flags")
        self.event_starts = np.cumsum(self.event_counts) - self.event_counts

    def subset(self, pairs: np.ndarray, visits: np.ndarray, n: int):
        """Structure of a dataset built from some of this one's rows.

        ``pairs`` and ``visits`` index this structure's incidence pairs and
        visit rows, in the order the new dataset holds them (they may
        repeat).  Event times at which none of ``visits`` falls are dropped
        with the pairs that cover them, and the remaining events are
        renumbered.  The surviving pairs are stable-sorted by event, so the
        result is event-major with the new dataset's row order inside each
        event, as :class:`RiskStructure` of the new dataset would be.
        Returns ``(structure, kept)``: ``kept`` lists the surviving entries
        of ``pairs`` in the result's pair order, so per-pair arrays are
        gathered by it.  Row indices in the result still refer to this
        structure's dataset.
        """
        events = np.zeros(self.K, dtype=bool)
        events[self.visit_event[visits]] = True
        if not events.any():
            raise ValidationError("dataset has no visits")
        renumber = np.cumsum(events) - 1
        pair_event = self.cover_event[pairs]
        survives = events[pair_event]
        kept, pair_event = pairs[survives], pair_event[survives]
        order = np.argsort(pair_event, kind="stable")
        kept = kept[order]
        out = object.__new__(RiskStructure)
        out.n = int(n)
        out.event_times = self.event_times[events]
        out.K = int(out.event_times.size)
        out.cover_row = self.cover_row[kept]
        out.cover_event = renumber[pair_event[order]]
        out.visit_rows = self.visit_rows[visits]
        out.visit_event = renumber[self.visit_event[visits]]
        out._index_events()
        return out, kept

    def cover_times(self) -> np.ndarray:
        """Event time of each incidence pair."""
        return np.repeat(self.event_times, self.event_counts)

    def design(self, bound, dataset: Dataset):
        """``bound``'s design on the incidence pairs, each row at its pair's
        event time, and on the visit rows: ``(on_pairs, on_visits)``."""
        return (bound.evaluate(dataset, self.cover_row, self.cover_times()),
                bound.evaluate(dataset, self.visit_rows))

    def blocks(self, size: int) -> list:
        """Ranges ``(lo, hi, k0, k1, offsets)`` of at most ``size`` pairs that
        tile the pairs in order: ``lo:hi`` are whole events ``k0:k1``, or one
        piece of an event of more than ``size`` pairs, and summing
        ``values[..., lo:hi]`` by event is ``np.add.reduceat`` at ``offsets``."""
        bounds = np.append(self.event_starts, self.event_counts.sum())
        out, lo = [], 0
        while lo < bounds[-1]:
            k0 = int(np.searchsorted(bounds, lo, side="right")) - 1
            if bounds[k0] < lo or bounds[k0 + 1] - lo > size:        # a piece
                k1, hi = k0 + 1, min(lo + size, int(bounds[k0 + 1]))
            else:
                k1 = int(np.searchsorted(bounds, lo + size, side="right")) - 1
                hi = int(bounds[k1])
            out.append((lo, hi, k0, k1, np.maximum(bounds[k0:k1] - lo, 0)))
            lo = hi
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
