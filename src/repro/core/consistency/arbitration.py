"""Arbitration between conflicting requirements (Section 3.3.1).

"There are often conditions in real world datacenters, such as network
partitions or link congestion, that would prevent all requirements from being
met simultaneously.  In such cases, the system will use the developer-
specified ordering of the requirements to decide which ones are more
important."

The :class:`Arbitrator` encodes exactly that: when the read path cannot both
answer (availability) and honour the staleness bound / session guarantee
(consistency), it consults the spec's priority ordering, and the engine
either serves the stale value or fails the request.  It counts the
resolutions of each kind for the reports of experiment E9.
"""

from __future__ import annotations

from repro.core.consistency.spec import Axis, ConsistencySpec


class Arbitrator:
    """Resolves availability-vs-consistency conflicts using the declared priority."""

    def __init__(self, spec: ConsistencySpec) -> None:
        self.spec = spec
        self._stale_serves = 0
        self._failed_requests = 0

    # ---------------------------------------------------------------- decisions

    def resolve_read_conflict(self) -> bool:
        """Decide what to do when a read cannot verify its consistency bound;
        returns whether the request fails.

        If availability outranks read consistency, the (possibly stale) value
        is served; otherwise the request fails.
        """
        return self._resolve(Axis.READ_CONSISTENCY)

    def resolve_session_conflict(self) -> bool:
        """Same trade-off for session guarantees vs. availability."""
        return self._resolve(Axis.SESSION)

    def _resolve(self, axis: Axis) -> bool:
        if self.spec.prefers(Axis.AVAILABILITY, axis):
            self._stale_serves += 1
            return False
        self._failed_requests += 1
        return True

    # ---------------------------------------------------------------- reporting

    def stale_serves(self) -> int:
        """How many conflicts were resolved by serving stale data."""
        return self._stale_serves

    def failed_requests(self) -> int:
        """How many conflicts were resolved by failing the request."""
        return self._failed_requests
