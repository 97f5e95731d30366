"""Deadline-ordered asynchronous index maintenance.

Section 3.3.2: "The system will maintain a priority queue of updates, where
the deadline for propagation is used as the priority.  Not only does the
priority queue allow the system to complete important updates first, but it
allows us to easily detect when it is in danger of getting behind schedule."

Every base-table write enqueues an :class:`UpdateTask` whose deadline is the
write time plus the staleness bound declared for the data it touches.  A
drain process (scheduled on the shared simulator) applies tasks in deadline
order at a throughput proportional to the cluster size, so the updater is the
component that actually converts "we bought more machines" into "staleness
bounds hold again."  A FIFO mode exists solely for the ablation experiment.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from repro.core.index.maintenance import EntityWrite, IndexMaintainer
from repro.sim.simulator import Simulator


@dataclass(slots=True, eq=False)
class UpdateTask:
    """One pending index-maintenance task.

    The updater's heap holds ``(sort_key, seq, task)`` tuples — the
    propagation deadline (arrival time in FIFO mode), then arrival order;
    ``seq`` is unique, so tasks themselves are never compared.
    """

    write: EntityWrite
    enqueue_time: float = 0.0
    deadline: float = 0.0
    completion_time: Optional[float] = None

    @property
    def lag(self) -> Optional[float]:
        """Seconds between the write and the completed index update."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.enqueue_time

    @property
    def met_deadline(self) -> Optional[bool]:
        if self.completion_time is None:
            return None
        return self.completion_time <= self.deadline


@dataclass
class UpdaterStats:
    """Aggregate statistics over completed maintenance tasks."""

    completed: int = 0
    deadline_misses: int = 0
    max_lag: float = 0.0
    total_lag: float = 0.0

    @property
    def mean_lag(self) -> float:
        return self.total_lag / self.completed if self.completed else 0.0

    @property
    def miss_rate(self) -> float:
        return self.deadline_misses / self.completed if self.completed else 0.0


class AsyncIndexUpdater:
    """Applies index maintenance asynchronously with deadline priorities.

    Args:
        simulator: shared discrete-event simulator.
        maintainer: computes and applies the per-write index deltas.
        updates_per_second_per_node: maintenance throughput contributed by
            each storage node; total capacity is this times ``node_count_fn()``.
        node_count_fn: callable returning the current number of alive storage
            nodes (the cluster supplies this, so scaling changes capacity).
        default_staleness_bound: deadline used for writes whose data has no
            declared read-consistency bound (the paper's "ten minutes" example).
        fifo: process tasks in arrival order instead of deadline order
            (ablation of the priority queue).
    """

    COMPLETED_TASK_WINDOW = 10_000
    # How often the drain process wakes up (seconds).
    drain_interval = 0.25

    def __init__(
        self,
        simulator: Simulator,
        maintainer: IndexMaintainer,
        node_count_fn: Callable[[], int],
        updates_per_second_per_node: float = 200.0,
        default_staleness_bound: float = 600.0,
        fifo: bool = False,
    ) -> None:
        if updates_per_second_per_node <= 0:
            raise ValueError("updates_per_second_per_node must be positive")
        if default_staleness_bound <= 0:
            raise ValueError("default_staleness_bound must be positive")
        self._sim = simulator
        self._maintainer = maintainer
        self._node_count_fn = node_count_fn
        self.updates_per_second_per_node = updates_per_second_per_node
        self.default_staleness_bound = default_staleness_bound
        self.fifo = fifo
        self._heap: List[Tuple[float, int, UpdateTask]] = []
        self._seq = itertools.count()
        self._stats = UpdaterStats()
        # Only the most recent completions are kept (each task pins its
        # EntityWrite and both row dicts); ``UpdaterStats`` is all-time.
        self._completed_tasks: Deque[UpdateTask] = deque(maxlen=self.COMPLETED_TASK_WINDOW)
        self._cancel_drain: Optional[Callable[[], None]] = None
        self._carryover_capacity = 0.0

    # ------------------------------------------------------------------ control

    def start(self) -> None:
        """Begin the periodic drain process (idempotent)."""
        if self._cancel_drain is None:
            self._cancel_drain = self._sim.schedule_periodic(
                self.drain_interval, self._drain, name="index-updater"
            )

    def stop(self) -> None:
        """Stop draining (pending tasks stay queued)."""
        if self._cancel_drain is not None:
            self._cancel_drain()
            self._cancel_drain = None

    # ------------------------------------------------------------------ enqueue

    def enqueue(self, write: EntityWrite, staleness_bound: Optional[float] = None) -> UpdateTask:
        """Queue the index maintenance implied by one base-table write."""
        bound = self.default_staleness_bound if staleness_bound is None else staleness_bound
        if bound <= 0:
            raise ValueError("staleness bound must be positive")
        now = self._sim.now
        deadline = now + bound
        sort_key = now if self.fifo else deadline
        seq = next(self._seq)
        task = UpdateTask(write, now, deadline)
        heapq.heappush(self._heap, (sort_key, seq, task))
        return task

    # -------------------------------------------------------------------- drain

    def capacity_per_interval(self) -> float:
        """How many tasks one drain tick can process at current cluster size."""
        nodes = max(self._node_count_fn(), 1)
        return self.updates_per_second_per_node * nodes * self.drain_interval

    def _drain(self) -> None:
        budget = self.capacity_per_interval() + self._carryover_capacity
        processed = 0
        while self._heap and budget >= 1.0:
            task = heapq.heappop(self._heap)[2]
            self._maintainer.apply(task.write)
            task.completion_time = self._sim.now
            self._record_completion(task)
            budget -= 1.0
            processed += 1
        # Fractional leftover capacity carries over so very small clusters
        # still make progress; bound it to one interval's worth.
        self._carryover_capacity = min(budget, self.capacity_per_interval())

    def drain_now(self) -> int:
        """Synchronously process every queued task (the engine's flush)."""
        processed = 0
        while self._heap:
            task = heapq.heappop(self._heap)[2]
            self._maintainer.apply(task.write)
            task.completion_time = self._sim.now
            self._record_completion(task)
            processed += 1
        return processed

    def _record_completion(self, task: UpdateTask) -> None:
        self._completed_tasks.append(task)
        self._stats.completed += 1
        lag = task.lag or 0.0
        self._stats.total_lag += lag
        self._stats.max_lag = max(self._stats.max_lag, lag)
        if task.met_deadline is False:
            self._stats.deadline_misses += 1

    # ------------------------------------------------------------------- status

    def pending_count(self) -> int:
        """Tasks enqueued but not yet applied."""
        return len(self._heap)

    def stats(self) -> UpdaterStats:
        return self._stats

    def completed_tasks(self) -> List[UpdateTask]:
        """The most recent ``COMPLETED_TASK_WINDOW`` completed tasks, oldest first."""
        return list(self._completed_tasks)

    def earliest_deadline(self) -> Optional[float]:
        """The most urgent pending deadline (None when the queue is empty)."""
        if not self._heap:
            return None
        if self.fifo:
            return min(task.deadline for _, _, task in self._heap[:50])
        return self._heap[0][2].deadline

    def behind_schedule(self, margin: float = 0.0) -> bool:
        """True when the most urgent pending deadline is already (nearly) due.

        This is the early-warning signal the paper says the priority queue
        provides; the provisioning controller treats it as a scale-up trigger.
        """
        earliest = self.earliest_deadline()
        if earliest is None:
            return False
        return self._sim.now + margin >= earliest
