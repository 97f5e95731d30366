"""Latency percentile estimation.

The SLAs in the paper are expressed over high percentiles (99.9th), so the
estimator keeps exact samples rather than a lossy sketch; the
simulated request volumes make this affordable, and it removes sketch error
as a confound when we report SLA attainment.

Storage is an *append buffer plus an incrementally merged sorted array*: new
samples land in an ``array('d')`` of packed doubles (O(1) per request — the
hot path — at 8 bytes a sample, where a list held a 32-byte float object
per sample until the next query), and the first percentile query after a
batch of appends merge-sorts only the new samples into the cached sorted
array (``searchsorted`` + one ``insert`` pass, O(history + new·log new)).  The all-time estimators in long
closed-loop runs are queried every control window; a full re-sort of the
entire history there is what used to make long runs quadratic.
"""

from __future__ import annotations

from array import array
from typing import Dict

import numpy as np

_EMPTY = np.empty(0)


class PercentileEstimator:
    """Collects samples and answers percentile queries over them."""

    __slots__ = ("_pending", "_sorted", "_sum", "_max")

    def __init__(self) -> None:
        self._pending = array("d")
        self._sorted: np.ndarray = _EMPTY
        self._sum = 0.0
        self._max = 0.0

    def __len__(self) -> int:
        return len(self._pending) + self._sorted.shape[0]

    def add(self, value: float) -> None:
        """Record one sample (e.g. one request latency in seconds)."""
        if value < 0:
            raise ValueError(f"samples must be non-negative, got {value}")
        value = float(value)
        self._pending.append(value)
        self._sum += value
        if value > self._max:
            self._max = value

    def extend(self, values) -> None:
        """Record many samples at once (vectorized validation and append)."""
        arr = np.asarray(values if isinstance(values, (np.ndarray, array)) else list(values),
                         dtype=float)
        if arr.size == 0:
            return
        if np.any(arr < 0):
            raise ValueError("samples must be non-negative")
        self._pending.frombytes(arr.tobytes())
        self._sum += float(arr.sum())
        self._max = max(self._max, float(arr.max()))

    def _merged(self) -> np.ndarray:
        """The sorted sample array, merging any pending appends in.

        Pending samples are sorted on their own and merge-inserted at their
        ``searchsorted`` positions, so the cost is linear in the history
        rather than ``O(n log n)`` over it.
        """
        if self._pending:
            fresh = np.sort(np.frombuffer(self._pending))
            base = self._sorted
            if base.shape[0] == 0:
                self._sorted = fresh
            else:
                self._sorted = np.insert(base, np.searchsorted(base, fresh), fresh)
            self._pending = array("d")
        if self._sorted.shape[0] == 0:
            raise ValueError("no samples recorded")
        return self._sorted

    def sorted_samples(self) -> np.ndarray:
        """Every sample in ascending order (empty when none was recorded).

        The estimator's own array, not a copy: callers must not mutate it.
        """
        return self._merged() if len(self) else _EMPTY

    @staticmethod
    def _percentile_of_sorted(arr: np.ndarray, p: float) -> float:
        """Linear-interpolated percentile of an already-sorted array.

        numpy's 'linear' virtual index ``(n - 1) * (p / 100)`` with the plain
        upward lerp ``lo + (hi - lo) * w`` at every weight ``w``.
        ``np.percentile`` switches to ``hi - (hi - lo) * (1 - w)`` when
        ``w >= 0.5``, so the two can differ in the last bits.  Do not change
        the formula to match numpy: this value is a control input (the
        monitor's latency model trains on the window's miss-path percentile,
        see :meth:`~repro.metrics.sla.OpRecorder.close_window`), and every
        run's fingerprint moves with it.
        """
        rank = (arr.shape[0] - 1) * (p / 100.0)
        lo = int(rank)
        hi = min(lo + 1, arr.shape[0] - 1)
        lo_value = float(arr[lo])
        return lo_value + (float(arr[hi]) - lo_value) * (rank - lo)

    def percentile(self, p: float) -> float:
        """Return the ``p``-th percentile (0 < p <= 100) of recorded samples."""
        if not len(self):
            raise ValueError("no samples recorded")
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        return self._percentile_of_sorted(self._merged(), p)

    def merge(self, other: "PercentileEstimator") -> "PercentileEstimator":
        """Fold another estimator's samples into this one and return ``self``.

        Both sides' sorted caches are combined with one ``searchsorted`` +
        ``insert`` pass (O(n + m)), never a re-sort of the concatenated raw
        samples — this is what lets a parallel sweep aggregate per-run
        estimators into grid-cell summaries cheaply.  The result answers
        every query exactly as an estimator fed the concatenation of both
        sample streams would (asserted by the sweep determinism tests).
        ``other`` is not modified beyond flushing its pending buffer into its
        own sorted cache.
        """
        if len(other) == 0:
            return self
        incoming = other._merged()
        if len(self) == 0:
            self._sorted = incoming.copy()
        else:
            base = self._merged()
            self._sorted = np.insert(base, np.searchsorted(base, incoming), incoming)
        self._sum += other._sum
        if other._max > self._max:
            self._max = other._max
        return self

    @classmethod
    def merged(cls, estimators) -> "PercentileEstimator":
        """A new estimator holding the union of all given estimators' samples."""
        result = cls()
        for estimator in estimators:
            result.merge(estimator)
        return result

    def fraction_at_or_below(self, threshold: float) -> float:
        """Fraction of samples less than *or equal to* ``threshold``.

        The inclusive counterpart of :meth:`fraction_below`, matching the
        ``latency <= target`` comparison :class:`~repro.metrics.sla.OpRecorder`
        uses — e.g. for asking a merged sweep cell's estimator what
        attainment a *different* SLA target would have had.
        """
        if not len(self):
            raise ValueError("no samples recorded")
        arr = self._merged()
        return float(np.searchsorted(arr, threshold, side="right")) / arr.shape[0]

    def snapshot(self) -> Dict[str, float]:
        """Common summary statistics in one dictionary.

        One merge, then every percentile reads the same sorted array — the
        cost per control window is O(new samples), not O(all history · log).
        """
        count = len(self)
        if not count:
            return {"count": 0}
        arr = self._merged()
        return {
            "count": float(count),
            "mean": self._sum / count,
            "p50": self._percentile_of_sorted(arr, 50),
            "p95": self._percentile_of_sorted(arr, 95),
            "p99": self._percentile_of_sorted(arr, 99),
            "p999": self._percentile_of_sorted(arr, 99.9),
            "max": self._max,
        }
