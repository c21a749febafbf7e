"""Risk-set bookkeeping for recurrent visit processes.

An at-risk row ``(start, end]`` covers every distinct visit time ``s`` with
``start < s <= end``.  The (row, event) incidence pairs are materialized
once per dataset as rows stored event-major: sorted by event, and within an
event in dataset row order.  The pairs of one event are then a segment of
known length; sums over risk sets are ``numpy.add.reduceat`` over the
segment starts of per-pair rows, in ranges of bounded size (``blocks``) and
in a fixed order, so results are reproducible.  A design that enters only
through its risk-set sums, such as the balance terms of the balancing
weights, is summed per event a block of pairs at a time
(:meth:`RiskStructure.event_sums`, :meth:`RiskStructure.design_sums`) and
never held on every pair; per-patient sums of per-pair terms are taken a
block of pairs at a time as well (:meth:`RiskStructure.patient_sums`).  The
``grid`` form, where every patient is at risk at each of fixed times, keeps
its pairs implicit.  A dataset whose rows form a complete grid, every
patient at risk on every interval between the same times, as in a simulated
panel, has its explicit pairs built in closed form from its visit flags,
without searching or sorting its rows.  Whether they do is read off the
rows alone, so a copy of such a panel, read back from CSV or taken by
``take_patients``, is built the same way.

For an empty segment ``reduceat`` returns the element at its start, not
zero, so every event must have at least one pair.  Every dataset
guarantees it: a visit row is at risk and has ``end > start``, so it covers
its own event time.  A structure that would break this raises
:class:`NumericError`.

A resample of the patients weights the pairs (:meth:`RiskStructure.weighted`)
and keeps every event time.  One at which it has no visit, like a grid
time without a visit, has a pooled visit sum ``A_k`` of zero, and all its
terms in a likelihood are exact zeros.
"""

from __future__ import annotations

import copy

import numpy as np

from .data import Dataset
from .errors import NumericError, ValidationError

__all__ = ["RiskStructure"]

# incidence pairs per block of a per-event sum: a block of the design and
# its factor gathers stay small beside the visit-model design
_SUM_PAIRS = 4096
# incidence pairs per block of a per-patient sum, whose terms gather several
# per-event arrays: smaller still, so that they stay below a Newton solve's
# workspace
_PATIENT_PAIRS = 1024


def _shared_grid(dataset: Dataset):
    """The row end times of every patient of ``dataset``, if its rows form a
    complete grid: every row at risk, and every patient with as many rows
    and the same ends.  Otherwise None.  A dataset's rows run from 0, each
    from the previous end, so equal ends are equal intervals."""
    counts = np.diff(dataset.patient_row_bounds)
    width = int(counts[0])
    if not (np.all(counts == width) and dataset.at_risk.all()):
        return None
    times = dataset.end[:width]
    return times if np.all(dataset.end.reshape(-1, width) == times) else None


class RiskStructure:
    """Incidence pairs between at-risk rows and pooled event times.

    Attributes
    ----------
    event_times : ndarray, shape (K,)
        Distinct visit times, ascending.  Ties are pooled.
    cover_row : ndarray of int64, shape (M,)
        Dataset row index of each incidence pair.  Pairs are event-major:
        sorted by event, and by dataset row within an event.
    event_counts : ndarray of int64, shape (K,)
        Number of pairs of each event, all at least 1.  Pair ``j``'s event
        index is ``np.repeat(np.arange(K), event_counts)[j]``; no array of
        it is kept.
    event_starts : ndarray of int64, shape (K,)
        Position of each event's first pair; event ``k`` holds pairs
        ``event_starts[k] : event_starts[k] + event_counts[k]``.
    visit_rows : ndarray of int64, shape (V,)
        Dataset row indices with a visit, ascending.
    visit_event : ndarray of int64, shape (V,)
        Event index of each visit row.
    n : int or float
        Number of patients; sums are reported divided by ``n``.  On a
        :meth:`weighted` structure, the sum of the patients' copies, which
        need not be whole.
    pair_weight : ndarray of float64, shape (M,), or None
        Weight of each pair in risk-set sums; None, for weight 1, on every
        structure built from data.
    """

    pair_weight = None

    def __init__(self, dataset: Dataset):
        times = _shared_grid(dataset)
        if times is not None:
            self._complete_grid(times, dataset.visit.reshape(dataset.n_patients, -1))
            return
        self.n = dataset.n_patients
        self.event_times = dataset.event_times()
        if self.event_times.size == 0:
            raise ValidationError("dataset has no visits")
        self.K = int(self.event_times.size)
        risk_rows = dataset.at_risk_row_indices()
        lo = np.searchsorted(self.event_times, dataset.start[risk_rows], side="right")
        hi = np.searchsorted(self.event_times, dataset.end[risk_rows], side="right")
        counts = hi - lo
        # concatenated ranges lo[i] .. hi[i] - 1
        ends = np.cumsum(counts)
        event = np.arange(ends[-1]) + np.repeat(hi - ends, counts)
        self.cover_row = np.repeat(risk_rows, counts)[np.argsort(event, kind="stable")]
        self.visit_rows = dataset.visit_row_indices()
        self.visit_event = np.searchsorted(self.event_times, dataset.end[self.visit_rows])
        self._index_events(np.bincount(event, minlength=self.K))

    @classmethod
    def grid(cls, times: np.ndarray, n: int, visit: np.ndarray):
        """Grid form: ``n`` patients at risk at each of ``times``, with pair
        ``k * n + i`` (patient ``i`` at time ``k``) flagged by ``visit[k * n + i]``
        and no ``cover_row``.  ``visit_rows`` are pair numbers; a time
        without a visit stays, with a zero pooled sum."""
        visit_rows = np.flatnonzero(visit)
        if visit_rows.size == 0:
            raise ValidationError("dataset has no visits")
        out = object.__new__(cls)
        out.n, out.event_times, out.K = int(n), times, len(times)
        out.visit_rows, out.visit_event = visit_rows, visit_rows // n
        out._index_events(np.full(out.K, n))
        return out

    def _complete_grid(self, times: np.ndarray, visit: np.ndarray) -> None:
        """The structure of a panel whose ``n`` patients are each at risk on
        every interval ``(times[k - 1], times[k]]``, patient ``i``'s row ``k``
        being dataset row ``i * len(times) + k``, with visit flags ``visit``
        of shape ``(n, len(times))``: the searched build's arrays, in closed
        form."""
        n, width = visit.shape
        visited = visit.any(axis=0)
        kk = np.flatnonzero(visited)
        if kk.size == 0:
            raise ValidationError("dataset has no visits")
        self.n, self.event_times, self.K = int(n), times[kk], int(kk.size)
        self.cover_row = (kk[:, None] + width * np.arange(n)).ravel()
        self.visit_rows = np.flatnonzero(visit)
        self.visit_event = (np.cumsum(visited) - 1)[self.visit_rows % width]
        self._index_events(np.full(self.K, n))

    def _index_events(self, counts: np.ndarray) -> None:
        """Set ``event_counts`` to ``counts`` and ``event_starts`` from them."""
        self.event_counts = counts
        if not self.event_counts.all():
            raise NumericError(
                "an event time has an empty risk set; check at_risk flags")
        self.event_starts = np.cumsum(self.event_counts) - self.event_counts

    def weighted(self, pair_weight: np.ndarray, n: int):
        """This structure with each pair weighted by ``pair_weight`` (in a
        resample, its patient's copies) and ``n`` patients in all, kept as
        given: fractional copies give a fractional ``n``."""
        out = copy.copy(self)
        out.pair_weight, out.n = pair_weight, n
        return out

    def cover_times(self) -> np.ndarray:
        """Event time of each incidence pair."""
        return np.repeat(self.event_times, self.event_counts)

    def design(self, bound, dataset: Dataset):
        """``bound``'s design on the incidence pairs, each row at its pair's
        event time, and on the visit rows: ``(on_pairs, on_visits)``."""
        return (bound.evaluate(dataset, self.cover_row, self.cover_times()),
                bound.evaluate(dataset, self.visit_rows))

    def design_sums(self, bound, dataset: Dataset):
        """:meth:`design`, but with the design on the pairs summed per event
        (:meth:`event_sums`): ``(sums, on_visits)``."""
        times = self.cover_times()
        sums = self.event_sums(lambda lo, hi: bound.evaluate(
            dataset, self.cover_row[lo:hi], times[lo:hi]))
        return sums, bound.evaluate(dataset, self.visit_rows)

    def event_sums(self, block) -> np.ndarray:
        """Per-event sums, shape ``(K, terms)``, of a design whose rows on
        pairs ``lo:hi`` are ``block(lo, hi)``, each row weighted by its
        pair's weight, if any.  The design is made in the :meth:`blocks`
        of :data:`_SUM_PAIRS` and summed with one ``np.add.reduceat`` per
        block; the pieces of a split event are added in order."""
        out = None
        for lo, hi, k0, k1, offsets in self.blocks(_SUM_PAIRS):
            values = block(lo, hi).T
            if self.pair_weight is not None:
                values = values * self.pair_weight[lo:hi]
            if out is None:
                out = np.zeros((values.shape[0], self.K))
            out[:, k0:k1] += np.add.reduceat(values, offsets, axis=-1)
        return out.T

    def patient_sums(self, block, patient: np.ndarray, n: int) -> np.ndarray:
        """Per-patient sums, shape ``(n, terms)``, of a design whose rows on
        pairs ``lo:hi`` are ``block(lo, hi, events).T``, ``events`` being
        each pair's event index, over the pairs' patients ``patient``.
        Like :meth:`event_sums`, the design is made a block of pairs at a
        time, here the :meth:`blocks` of :data:`_PATIENT_PAIRS`, and each
        block is summed with one ``np.bincount`` per term."""
        out = None
        for lo, hi, k0, k1, offsets in self.blocks(_PATIENT_PAIRS):
            events = np.repeat(np.arange(k0, k1), np.diff(offsets, append=hi - lo))
            values = block(lo, hi, events)
            if out is None:
                out = np.zeros((values.shape[0], n))
            for total, row in zip(out, values):
                total += np.bincount(patient[lo:hi], weights=row, minlength=n)
        return out.T

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
