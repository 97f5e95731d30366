"""Open-loop load generator.

Drives an operation-executor callback at the aggregate rate a
:class:`~repro.workloads.traces.LoadTrace` prescribes; every request the
trace offers is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim.simulator import Simulator
from repro.workloads.opmix import CloudStoneMix, Operation
from repro.workloads.traces import LoadTrace


# Upper bound on the gap between issued operations (seconds), so rate changes
# are noticed even when the current rate is near zero.
MAX_INTERARRIVAL = 30.0


@dataclass
class GeneratorStats:
    """Counters describing what the generator issued."""

    operations_issued: int = 0
    writes_issued: int = 0


class LoadGenerator:
    """Issues operations from an op mix at a trace-driven rate.

    Args:
        simulator: shared discrete-event simulator.
        trace: request-rate curve.
        mix: operation generator.
        execute: callback invoked with each :class:`Operation`; the SCADS
            engine (or a baseline) supplies this.
    """

    def __init__(
        self,
        simulator: Simulator,
        trace: LoadTrace,
        mix: CloudStoneMix,
        execute: Callable[[Operation], None],
    ) -> None:
        self._sim = simulator
        self._trace = trace
        self._mix = mix
        self._execute = execute
        self._rng = simulator.random.get("load-generator")
        self._running = False
        self.stats = GeneratorStats()
        # Pooled unit-exponential block: ``exponential(scale)`` is exactly
        # ``scale * standard_exponential()`` on the same stream, so drawing
        # the unit variates in blocks and scaling by the current 1/rate per
        # arrival emits the identical gap sequence at a fraction of the
        # per-call generator overhead.
        self._exp_pool = None
        self._exp_index = 0

    @property
    def trace(self) -> LoadTrace:
        return self._trace

    def start(self) -> None:
        """Begin issuing operations (idempotent)."""
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Stop issuing operations after the currently scheduled one."""
        self._running = False

    POOL_BLOCK = 1024

    def _schedule_next(self) -> None:
        if not self._running:
            return
        rate = self._trace.rate_at(self._sim.clock.now)
        if rate <= 0:
            delay = MAX_INTERARRIVAL
        else:
            pool = self._exp_pool
            index = self._exp_index
            if pool is None or index >= len(pool):
                pool = self._exp_pool = self._rng.standard_exponential(self.POOL_BLOCK).tolist()
                index = 0
            self._exp_index = index + 1
            delay = pool[index] / rate
            if delay > MAX_INTERARRIVAL:
                delay = MAX_INTERARRIVAL
        self._sim.schedule(delay, self._tick, name="load-generator")

    def _tick(self) -> None:
        if not self._running:
            return
        operation = self._mix.next_operation()
        self.stats.operations_issued += 1
        if operation.is_write:
            self.stats.writes_issued += 1
        self._execute(operation)
        self._schedule_next()
