"""Admission and bypass policy: what may be cached, and for how long.

The policy is where the declarative consistency specification becomes a cache
contract:

* **Headroom** — the staleness budget of the governing
  :class:`~repro.core.consistency.spec.ReadConsistency` is cut by a
  propagation headroom of 10 % of the bound, capped at 2 seconds.  The
  headroom absorbs the asynchronous machinery between a write and its
  visibility (replica propagation, invalidation ordering), so a cached answer
  served at the very end of its TTL still sits inside the declared bound.
  The bound is always positive, so some budget is always left.

* **TTL derivation** — a spec saying "stale data gone within B seconds" makes
  an entry servable for ``B - headroom`` seconds *minus any staleness the
  value already carried when it was read*.  The engine's consistency-aware
  read path knows that carried staleness exactly (it peeks the primary to
  enforce the bound), and reports it as the read's ``known_staleness``; a
  value that was already ``a`` seconds behind the primary may only be served
  from cache for ``B - a - headroom`` more seconds.  Reads whose staleness
  could not be verified (primary unreachable) are never admitted.

* **Session bypass** — Terry-style session guarantees outrank the staleness
  budget.  A read-your-writes session that has written a key must not be
  handed a cached value older than its own write, and a monotonic-reads
  session must never go backwards; both checks reuse the
  :class:`~repro.core.consistency.sessions.Session` version history, forcing
  a per-session cache bypass exactly where the guarantee demands it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.consistency.sessions import Session
from repro.core.consistency.spec import ConsistencySpec
from repro.storage.records import Key


class AdmissionPolicy:
    """Derives cacheability, TTLs, and session bypasses from a spec.

    Args:
        spec: the declarative consistency specification governing the data.
    """

    # Seconds subtracted from the staleness bound when deriving TTLs: 10 % of
    # the bound, capped at 2 seconds — enough to cover replica propagation in
    # the simulation while leaving most of the declared budget exploitable.
    HEADROOM_FRACTION = 0.1
    HEADROOM_CAP = 2.0

    def __init__(self, spec: ConsistencySpec) -> None:
        self.spec = spec
        bound = spec.read.staleness_bound
        self.propagation_headroom = min(self.HEADROOM_FRACTION * bound, self.HEADROOM_CAP)
        # The bound and the headroom are fixed from here on, so what they
        # imply is worked out once, not on every lookup.
        #: Seconds a freshly-read value may be served from cache (> 0, since
        #: ReadConsistency rejects a bound <= 0).
        self.servable_budget = bound - self.propagation_headroom

    # -------------------------------------------------------------- admission

    def entity_ttl(self, known_staleness: Optional[float]) -> float:
        """TTL for an entity read that was ``known_staleness`` seconds behind
        the primary when it was served (None = unverified, never admitted)."""
        if known_staleness is None or known_staleness < 0:
            return 0.0
        return max(self.servable_budget - known_staleness, 0.0)

    def range_ttl(self) -> float:
        """TTL for a compiled-query range read.

        Sound because of two engine-side guarantees: cache fills scan the
        *primary* (so the rows can only be missing index writes that are
        still pending in the updater's deadline queue — staleness the
        declared bound already grants), and the moment any such pending write
        is applied, :meth:`~repro.cache.tier.CacheTier.note_index_write`
        drops the covering cached scans.  A cached range therefore never
        outlives the maintenance that would change it; the headroom absorbs
        the remaining propagation asynchrony.
        """
        return self.servable_budget

    # ---------------------------------------------------------------- bypasses

    @staticmethod
    def session_checks(session: Optional[Session]) -> bool:
        """Can this session reject a cached value at all?  Without a session,
        or with no guarantee enabled, every cached value is acceptable."""
        return session is not None and session.guarantee.any_enabled

    def session_allows(self, session: Optional[Session], namespace: str,
                       key: Key, cached_value) -> bool:
        """May a cached entity value be served to this session?

        False forces a cluster read, which re-runs the guarantee enforcement
        (primary re-read) the session axes require.  Sessions without
        guarantees always accept.
        """
        if not self.session_checks(session):
            return True
        return session.acceptable(namespace, key, cached_value)
