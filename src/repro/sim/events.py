"""The event queue used by the simulator.

An event is one heap entry, the tuple ``(time, priority, seq, action, name)``.
Entries are ordered by (time, priority, sequence number).  The sequence number
makes ordering of simultaneous events deterministic (insertion order), which
keeps every experiment in the repository reproducible run-to-run; it is also
unique, so the comparison is decided by the three numbers in C and never
reaches the action or the name.

The entry :meth:`EventQueue.push` returns is the event's handle.  There is no
lazy cancellation: :meth:`EventQueue.cancel` takes a still-queued entry out of
the heap at once, so every entry in the heap is live and the queue's length is
the heap's.  Cancelling is a linear search, paid only when a periodic activity
stops; pushing and popping pay nothing for it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional, Tuple

#: ``(time, priority, seq, action, name)``; an entry whose ``action`` is None
#: fires as a no-op.
Entry = Tuple[float, int, int, Optional[Callable[[], Any]], str]


class EventQueue:
    """A priority queue of event entries ordered by time."""

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self,
        time: float,
        action: Optional[Callable[[], Any]],
        priority: int = 0,
        name: str = "",
    ) -> Entry:
        """Schedule ``action`` at ``time`` and return its entry (the handle)."""
        entry = (time, priority, next(self._counter), action, name)
        heapq.heappush(self._heap, entry)
        return entry

    def pop(self) -> Entry:
        """Remove and return the earliest entry.

        Raises ``IndexError`` if the queue is empty.
        """
        return heapq.heappop(self._heap)

    def cancel(self, entry: Entry) -> None:
        """Remove a still-queued entry.

        An entry the queue no longer holds — it already fired, or is firing
        right now (a periodic action cancelling itself) — is not found, so
        cancelling it is a no-op.
        """
        heap = self._heap
        for index, queued in enumerate(heap):
            if queued is entry:
                heap[index] = heap[-1]
                heap.pop()
                heapq.heapify(heap)
                return
