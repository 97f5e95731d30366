"""Unified telemetry registry: counters, gauges, and histograms.

One ``Telemetry`` instance is shared by every subsystem of an engine;
metric names are namespaced by convention (``"router.reads"``,
``"cache.hits"``, ``"replication.lag"``).  Histograms are backed by the
existing :class:`~repro.metrics.percentiles.PercentileEstimator`.  Gauges
record high-water marks (e.g. peak fleet size).

The registry is plain data: no simulator references, picklable by
default, and cheap — a counter bump is one dict ``get`` + add.
"""

from __future__ import annotations

from typing import Dict

from repro.metrics.percentiles import PercentileEstimator


class Telemetry:
    """Registry of counters/gauges/histograms for one engine instance."""

    __slots__ = ("counters", "gauges", "_histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self._histograms: Dict[str, PercentileEstimator] = {}

    # ------------------------------------------------------------- recording

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def set_count(self, name: str, value: int) -> None:
        """Overwrite a counter with an externally tracked absolute value."""
        self.counters[name] = int(value)

    def gauge(self, name: str, value: float) -> None:
        """Record a high-water mark (the gauge keeps the max)."""
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = PercentileEstimator()
        histogram.add(value)

    def histogram(self, name: str) -> PercentileEstimator:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = PercentileEstimator()
        return histogram

    def set_histogram(self, name: str, estimator: PercentileEstimator) -> None:
        """Replace a histogram with a copy of an externally tracked one.

        The collection-time counterpart of :meth:`set_count`: a subsystem
        that already maintains its own estimator on the hot path (e.g. the
        engine's latency recorder) is folded in once at collection rather
        than double-observed per request.  Copied, not referenced, so later
        samples on the source don't leak into an already-taken registry and
        repeated collection stays idempotent.
        """
        fresh = PercentileEstimator()
        fresh.merge(estimator)
        self._histograms[name] = fresh

    def histograms(self) -> Dict[str, PercentileEstimator]:
        return dict(self._histograms)

    # -------------------------------------------------------------- snapshot

    def snapshot(self) -> Dict[str, object]:
        """JSON-able summary: counters/gauges verbatim, histogram stats."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: est.snapshot()
                for name, est in sorted(self._histograms.items())
            },
        }

    # --------------------------------------------------------------- pickling

    def __getstate__(self) -> Dict[str, object]:
        return {
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self._histograms,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.counters = state["counters"]  # type: ignore[assignment]
        self.gauges = state["gauges"]  # type: ignore[assignment]
        self._histograms = state["histograms"]  # type: ignore[assignment]

