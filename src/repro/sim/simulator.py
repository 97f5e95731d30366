"""The discrete-event simulator driving every experiment in the repository."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.sim.clock import VirtualClock
from repro.sim.events import Entry, EventQueue
from repro.sim.randomness import RandomStreams


class Simulator:
    """Owns the virtual clock, the event queue, and the random streams.

    Components schedule work with :meth:`schedule` / :meth:`schedule_at` and
    the experiment harness drives time forward with :meth:`run_until`.
    Periodic activities (SLA monitoring, provisioning loops, billing ticks)
    use :meth:`schedule_periodic`.
    """

    def __init__(self, seed: int = 0) -> None:
        self.clock = VirtualClock()
        self.queue = EventQueue()
        self.random = RandomStreams(seed)
        self._event_count = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def processed_events(self) -> int:
        """Number of events that have fired so far."""
        return self._event_count

    def schedule(self, delay: float, action: Callable[[], Any], name: str = "") -> Entry:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.queue.push(self.clock.now + delay, action, name=name)

    def schedule_at(self, time: float, action: Callable[[], Any], name: str = "") -> Entry:
        """Schedule ``action`` at an absolute simulated time."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time:.6f}, which is before now ({self.now:.6f})"
            )
        return self.queue.push(time, action, name=name)

    def schedule_periodic(
        self,
        interval: float,
        action: Callable[[], Any],
        start_delay: Optional[float] = None,
        name: str = "",
    ) -> Callable[[], None]:
        """Run ``action`` every ``interval`` seconds until cancelled.

        Returns a zero-argument callable that cancels the periodic activity.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        state = {"cancelled": False, "entry": None}

        def tick() -> None:
            if state["cancelled"]:
                return
            action()
            if not state["cancelled"]:  # the action may cancel its own schedule
                state["entry"] = self.schedule(interval, tick, name=name)

        first_delay = interval if start_delay is None else start_delay
        state["entry"] = self.schedule(first_delay, tick, name=name)

        def cancel() -> None:
            state["cancelled"] = True
            self.queue.cancel(state["entry"])

        return cancel

    def run_until(self, end_time: float) -> float:
        """Process events until the clock reaches ``end_time``.

        Events scheduled exactly at ``end_time`` are processed.  The clock is
        left at ``end_time`` even if the queue drains earlier, so that
        duration-based accounting (billing, SLA windows) sees the full span.
        The dispatch loop pops the queue's heap directly — it is the innermost
        loop of every experiment, and every entry in the heap is live.
        """
        heap = self.queue._heap
        heappop = heapq.heappop
        clock = self.clock
        while heap and heap[0][0] <= end_time:
            time, _, _, action, _ = heappop(heap)
            clock.advance_to(time)
            if action is not None:
                action()
            self._event_count += 1
        if clock.now < end_time:
            clock.advance_to(end_time)
        return clock.now
