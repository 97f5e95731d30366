"""Deterministic span tracing for sampled requests.

The tracer opens a trace for every Nth operation of each op stream
(read/write/delete/query), decided by a plain per-stream counter — no RNG
is consulted, so a traced run draws exactly the same random sequence as
an untraced one and stays byte-identical for the same seed.

A trace is a flat list of :class:`Span` children stamped with sim-clock
durations.  Spans come in two flavours:

* **on-path** spans, whose durations sum to the operation's recorded
  end-to-end latency (the reconciliation invariant the tests assert), and
* **off-path** spans (``off_path=True``), kept for context but excluded
  from the sum — e.g. the losing legs of a quorum read, or the individual
  dereferences folded into one aggregate ``index_deref`` span.

Span ``kind`` taxonomy: ``queue`` (time waiting for a node executor),
``service`` (node service time proper), ``network`` (client/node hops),
``cache_hit``/``cache_miss`` (front-tier outcome; the hit carries the
cache latency, the miss is a zero-duration marker), ``dual_route``
(migration fallback marker), ``index_deref`` (aggregate parallel entity
dereference of a query), ``multiget`` (batched per-group fetch),
``replication_ack`` (synchronous quorum acknowledgement wait).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

# Every Nth operation *per op stream* opens a trace.
TRACE_SAMPLE_INTERVAL = 64
# Retained traces per tracer.  The cap stops appends rather than evicting, so
# the retained prefix is identical regardless of when the run is inspected.
MAX_TRACES = 20000

SPAN_KINDS = frozenset(
    {
        "queue",
        "service",
        "network",
        "dual_route",
        "cache_hit",
        "cache_miss",
        "index_deref",
        "multiget",
        "replication_ack",
    }
)


@dataclass(slots=True)
class Span:
    """One timed (or marker) child of a trace."""

    kind: str
    duration: float
    detail: str = ""
    off_path: bool = False


@dataclass(slots=True)
class TraceRecord:
    """A completed trace for one sampled operation."""

    trace_id: int
    op: str
    start: float
    latency: float
    success: bool
    spans: List[Span] = field(default_factory=list)

    def on_path_total(self) -> float:
        return sum(span.duration for span in self.spans if not span.off_path)

    def reconciles(self) -> bool:
        """Whether on-path span durations sum to the recorded latency (to a
        relative 1e-9)."""
        return abs(self.on_path_total() - self.latency) <= 1e-9 * max(1.0, abs(self.latency))

    def kind_totals(self) -> Dict[str, float]:
        """Seconds per span kind over the on-path spans."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if not span.off_path:
                totals[span.kind] = totals.get(span.kind, 0.0) + span.duration
        return totals

    def describe(self) -> str:
        header = (
            f"trace #{self.trace_id} {self.op} @t={self.start:.3f}s "
            f"latency={self.latency * 1000:.3f}ms "
            f"{'ok' if self.success else 'FAILED'}"
        )
        lines = [header]
        for span in self.spans:
            marker = " (off-path)" if span.off_path else ""
            detail = f" [{span.detail}]" if span.detail else ""
            lines.append(
                f"  {span.kind:<16} {span.duration * 1000:9.3f}ms{detail}{marker}"
            )
        return "\n".join(lines)


class Tracer:
    """Collects traces for deterministically sampled operations.

    Only one operation is in flight at a time inside the discrete-event
    engine's op path (latencies are composed arithmetically, not by
    yielding to the scheduler mid-op), so a single ``current`` slot
    suffices — no context-variable machinery needed.
    """

    __slots__ = (
        "sample_interval",
        "max_traces",
        "traces",
        "_op_counts",
        "_current_spans",
        "_current_op",
        "_current_start",
        "_next_id",
    )

    def __init__(self) -> None:
        self.sample_interval = TRACE_SAMPLE_INTERVAL
        self.max_traces = MAX_TRACES
        self.traces: List[TraceRecord] = []
        self._op_counts: Dict[str, int] = {}
        self._current_spans: Optional[List[Span]] = None
        self._current_op = ""
        self._current_start = 0.0
        self._next_id = 0

    # ------------------------------------------------------------ trace scope

    def maybe_begin(self, op: str, now: float) -> bool:
        """Open a trace if this op lands on the sampling lattice.

        The first operation of every stream is sampled (count 0 mod N), so
        even tiny runs produce traces.
        """
        count = self._op_counts.get(op, 0)
        self._op_counts[op] = count + 1
        if count % self.sample_interval != 0:
            return False
        if len(self.traces) >= self.max_traces:
            return False
        self._current_spans = []
        self._current_op = op
        self._current_start = now
        return True

    @property
    def active(self) -> bool:
        return self._current_spans is not None

    def add(self, kind: str, duration: float, detail: str = "", off_path: bool = False) -> None:
        """Record a child span on the open trace (no-op when none is open)."""
        spans = self._current_spans
        if spans is None:
            return
        spans.append(Span(kind=kind, duration=duration, detail=detail, off_path=off_path))

    def mark(self) -> int:
        """Position marker for :meth:`demote_since` (0 when no trace open)."""
        spans = self._current_spans
        return len(spans) if spans is not None else 0

    def demote_since(self, mark: int) -> None:
        """Flip every span recorded after ``mark`` to off-path.

        Used where the model composes parallel sub-operations by ``max``:
        the caller demotes all constituent spans and appends one on-path
        aggregate so the reconciliation invariant survives fan-out.
        """
        spans = self._current_spans
        if spans is None:
            return
        for span in spans[mark:]:
            span.off_path = True

    def end(self, latency: float, success: bool = True) -> Optional[TraceRecord]:
        """Close the open trace and keep it."""
        spans = self._current_spans
        if spans is None:
            return None
        record = TraceRecord(
            trace_id=self._next_id,
            op=self._current_op,
            start=self._current_start,
            latency=latency,
            success=success,
            spans=spans,
        )
        self._next_id += 1
        self._current_spans = None
        self.traces.append(record)
        return record

    # -------------------------------------------------------------- reporting

    def slowest(self, n: int = 3) -> List[TraceRecord]:
        return sorted(self.traces, key=lambda t: t.latency, reverse=True)[:n]
