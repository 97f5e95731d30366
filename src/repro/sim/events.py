"""Events and the event queue used by the simulator.

Events are ordered by (time, priority, sequence number).  The sequence number
makes ordering of simultaneous events deterministic (insertion order), which
keeps every experiment in the repository reproducible run-to-run.  The heap
holds ``(time, priority, seq, event)`` tuples: ``seq`` is unique, so the
comparison is decided by the three numbers in C and never reaches the
:class:`Event` itself.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback.

    A plain ``__slots__`` class rather than a dataclass: events are the
    single most-allocated object in a simulation, so construction is kept
    hand-written.

    Attributes:
        time: simulated time (seconds) at which the event fires.
        priority: tie-breaker for events at the same time; lower fires first.
        seq: insertion sequence number, assigned by the queue.
        action: zero-argument callable run when the event fires.
        name: optional label used in traces and error messages.
        cancelled: the queue skips the event when it reaches the front.
        popped: the queue has handed the event out (it fired or is firing),
            or dropped it in ``clear()``; it can no longer be cancelled.
    """

    __slots__ = ("time", "priority", "seq", "action", "name", "cancelled", "popped")

    def __init__(
        self,
        time: float,
        priority: int = 0,
        seq: int = 0,
        action: Optional[Callable[[], Any]] = None,
        name: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.name = name
        self.cancelled = cancelled
        self.popped = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event(time={self.time!r}, priority={self.priority!r}, "
                f"seq={self.seq!r}, name={self.name!r}, cancelled={self.cancelled!r})")

    def cancel(self) -> None:
        """Mark the event so the queue skips it when it reaches the front."""
        self.cancelled = True

    def fire(self) -> Any:
        """Run the event's action (no-op for cancelled or action-less events)."""
        if self.cancelled or self.action is None:
            return None
        return self.action()


class EventQueue:
    """A priority queue of :class:`Event` ordered by time."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        action: Callable[[], Any],
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``action`` at ``time`` and return the event handle."""
        seq = next(self._counter)
        event = Event(time, priority, seq, action, name)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises ``IndexError`` if the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                continue
            event.popped = True
            self._live -= 1
            return event
        raise IndexError("pop from an empty event queue")

    def pop_due(self, end_time: float) -> Optional[Event]:
        """Pop and return the earliest live event due at or before ``end_time``.

        Returns None (popping nothing) when the next live event is later than
        ``end_time`` or the queue is empty.  One call replaces the
        ``peek_time`` + ``pop`` pair in the simulator's dispatch loop.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if entry[0] > end_time:
                return None
            heapq.heappop(heap)
            event.popped = True
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event, or None if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy removal).

        An event the queue no longer holds — it already fired, is firing right
        now (a periodic action cancelling itself), or was dropped by
        :meth:`clear` — is not counted as live, so cancelling it is a no-op.
        """
        if not event.cancelled and not event.popped:
            event.cancel()
            self._live -= 1

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[3].popped = True
        self._heap.clear()
        self._live = 0
