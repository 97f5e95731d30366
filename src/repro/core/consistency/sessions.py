"""Session guarantees: read-your-writes and monotonic reads.

A :class:`Session` remembers which versions the caller has written and seen.
The engine's read path asks the session whether a value fetched from a
replica is acceptable; if not, the read is retried at the primary (paying the
latency) — the standard implementation of these guarantees over lazy
replication.

A session keeps a per-key history only for the guarantees it has: the
guarantee is a frozen value fixed when the session opens, and
:meth:`Session.acceptable` consults the written versions only under
read-your-writes and the seen versions only under monotonic reads, so a
history kept for a guarantee that is off could never be read.  A session that
guarantees nothing can therefore reject no value and needs no history:
:class:`SessionManager` never hands one to an operation, and a write does not
open one.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, Optional, Tuple

from repro.core.consistency.spec import SessionGuarantee
from repro.storage.records import Key, VersionedValue


class Session:
    """One client session's write/read history."""

    def __init__(self, guarantee: SessionGuarantee) -> None:
        self.guarantee = guarantee
        self._last_written_version: Dict[Tuple[str, Key], int] = {}
        self._last_seen_version: Dict[Tuple[str, Key], int] = {}

    # ------------------------------------------------------------------- writes

    def note_write(self, namespace: str, key: Key, value: VersionedValue) -> None:
        """Record that this session wrote ``value`` (its version matters)."""
        if self.guarantee.read_your_writes:
            self._last_written_version[(namespace, key)] = value.version

    # -------------------------------------------------------------------- reads

    def acceptable(self, namespace: str, key: Key, value: Optional[VersionedValue]) -> bool:
        """Is a replica-read result consistent with this session's history?

        A missing value (None) is unacceptable if the session wrote the key or
        has previously seen it — the replica simply has not caught up.
        """
        identity = (namespace, key)
        observed_version = value.version if value is not None else 0
        if self.guarantee.read_your_writes:
            written = self._last_written_version.get(identity, 0)
            if observed_version < written:
                return False
        if self.guarantee.monotonic_reads:
            seen = self._last_seen_version.get(identity, 0)
            if observed_version < seen:
                return False
        return True

    def note_read(self, namespace: str, key: Key, value: Optional[VersionedValue]) -> None:
        """Record what the session ended up observing (for monotonic reads)."""
        if value is None or not self.guarantee.monotonic_reads:
            return
        identity = (namespace, key)
        current = self._last_seen_version.get(identity, 0)
        if value.version > current:
            self._last_seen_version[identity] = value.version

    def note_reads(self, namespace: str, keys: Collection[Key],
                   values: Iterable[Optional[VersionedValue]]) -> None:
        """:meth:`note_read` for each ``(key, value)`` pair, as one call —
        a query's dereference list is observed together."""
        if not self.guarantee.monotonic_reads:
            return
        seen = self._last_seen_version
        for key, value in zip(keys, values):
            if value is not None:
                identity = (namespace, key)
                if value.version > seen.get(identity, 0):
                    seen[identity] = value.version


class SessionManager:
    """Creates and tracks sessions; hands the engine the per-caller state."""

    def __init__(self, default_guarantee: Optional[SessionGuarantee] = None) -> None:
        self._default_guarantee = default_guarantee or SessionGuarantee()
        self._sessions: Dict[str, Session] = {}

    def open(self, session_id: str, guarantee: Optional[SessionGuarantee] = None) -> Session:
        """Open (or return the existing) session with the given id."""
        if session_id not in self._sessions:
            self._sessions[session_id] = Session(guarantee or self._default_guarantee)
        return self._sessions[session_id]

    def get(self, session_id: Optional[str]) -> Optional[Session]:
        """The session an operation under ``session_id`` answers to, or None:
        without an id, before the session is opened, and for a session that
        guarantees nothing — the one test of that on the read path."""
        session = self._sessions.get(session_id)
        if session is None or not session.guarantee.any_enabled:
            return None
        return session

    def for_write(self, session_id: Optional[str]) -> Optional[Session]:
        """:meth:`get` for a write, which opens the session under a new id
        first — unless the default guarantee enables nothing."""
        if (session_id is not None and session_id not in self._sessions
                and self._default_guarantee.any_enabled):
            self.open(session_id)
        return self.get(session_id)
