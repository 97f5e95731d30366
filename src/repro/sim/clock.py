"""Virtual clock for discrete-event simulation.

The clock only moves forward, and only when the simulator advances it.  All
SCADS components take a clock (or the simulator that owns one) rather than
reading the wall clock, which is what makes the wall-clock consistency bounds
of the paper testable deterministically.
"""

from __future__ import annotations


class ClockError(RuntimeError):
    """Raised when the clock would be moved backwards."""


class VirtualClock:
    """A monotonically non-decreasing simulated clock, in seconds.

    ``now`` is a plain attribute (read on every event and every request, so
    property overhead matters); it starts at 0 and must only be moved through
    :meth:`advance_to`, which enforces monotonicity.
    """

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0

    def advance_to(self, timestamp: float) -> float:
        """Move the clock to ``timestamp``.

        Raises :class:`ClockError` if the timestamp is in the past; advancing
        to the current time is a no-op and is allowed (simultaneous events).
        """
        if timestamp < self.now:
            raise ClockError(
                f"cannot move clock backwards from {self.now:.6f} to {timestamp:.6f}"
            )
        self.now = float(timestamp)
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self.now:.6f})"
