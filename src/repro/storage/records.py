"""Key, version, and key-range types shared across the storage substrate.

Keys are tuples of comparable primitives (strings, ints, floats).  Tuple keys
give us composite index keys for free — e.g. a birthday index entry keyed by
``(user_id, birthday, friend_id)`` — and Python's tuple ordering provides the
contiguous-range semantics the SCADS query model requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

KeyPart = Union[str, int, float]
Key = Tuple[KeyPart, ...]


def validate_key(key: Key) -> Key:
    """Check that a key is a non-empty tuple of comparable primitives."""
    if not isinstance(key, tuple):
        raise TypeError(f"keys must be tuples, got {type(key).__name__}: {key!r}")
    if not key:
        raise ValueError("keys must not be empty")
    for part in key:
        if not isinstance(part, (str, int, float)) or isinstance(part, bool):
            raise TypeError(
                f"key parts must be str, int, or float, got {type(part).__name__}: {part!r}"
            )
    return key


@dataclass(frozen=True, slots=True)
class VersionedValue:
    """A value plus the metadata needed for conflict resolution and staleness.

    Attributes:
        value: the stored payload (for entities the read-only row mapping
            every replica and reader shares; for index entries the ``int``
            support count, 1 for a reverse-index entry).  A version whose
            payload is an ``int`` or ``None`` may be one object shared by
            every key written with the same fields at the same instant (see
            ``Router.write``), so versions are compared by value, never by
            identity.
        timestamp: simulated wall-clock time of the originating write; this is
            what last-write-wins compares and what staleness is measured from.
        writer: identifier of the client session that performed the write,
            used for read-your-own-writes checks.
        version: monotonically increasing per-key version at the primary.
        tombstone: True when the record has been deleted.
    """

    value: Any
    timestamp: float
    writer: str = ""
    version: int = 0
    tombstone: bool = False

    def wins_over(self, other: Optional["VersionedValue"]) -> bool:
        """Last-write-wins comparison; ties are broken by version then writer."""
        if other is None:
            return True
        if self.timestamp != other.timestamp:
            return self.timestamp > other.timestamp
        if self.version != other.version:
            return self.version > other.version
        return self.writer >= other.writer


@dataclass(frozen=True, slots=True)
class KeyRange:
    """A half-open, contiguous range of keys ``[start, end)`` in one namespace.

    Key ranges are the unit of partitioning, data movement, and — per the
    paper's query restriction — the only thing a query is allowed to read.
    Both ends are always bounded; a range a query reads lies under one
    partition key (see :func:`range_lead`).
    """

    namespace: str
    start: Key
    end: Key

    def contains(self, key: Key) -> bool:
        """True if ``key`` lies within the range."""
        return self.start <= key < self.end


def range_lead(start: Key, end: Key) -> KeyPart:
    """The leading key component every key of ``[start, end)`` shares — the
    range's partition key, so the range is one replica group's read.

    Two shapes qualify, the ones :func:`prefix_bounds` and the query
    executor's sort-column bounds build: ``end`` starts with ``start``'s
    leading component, or ``end`` is the one-component key holding that
    component's immediate successor.  For an ``int`` lead ``n`` the second
    shape also covers float leads in ``(n, n + 1)``; the range is still read
    from ``n``'s replica group alone.

    Raises:
        ValueError: for a range spanning several leading components.
    """
    lead = start[0]
    if end[0] == lead or end == (key_part_successor(lead),):
        return lead
    raise ValueError(f"range [{start!r}, {end!r}) spans several partition keys")


def prefix_bounds(prefix: Key) -> Tuple[Key, Key]:
    """``(start, end)`` of the half-open range of all keys that start with
    ``prefix``.

    This is how "all index entries for user U" becomes a bounded contiguous
    range: the successor of the prefix is the prefix with an infinitesimally
    larger last element, which tuple ordering gives us by appending a
    sentinel that sorts after every legal key part.
    """
    validate_key(prefix)
    # Tuples compare element-wise and shorter-is-smaller on ties, so every key
    # whose leading components equal `prefix` sorts at or after `prefix` and
    # strictly before the range end formed by replacing the last prefix
    # component with its immediate successor.
    return prefix, prefix[:-1] + (key_part_successor(prefix[-1]),)


def prefix_range(namespace: str, prefix: Key) -> KeyRange:
    """:func:`prefix_bounds` as a :class:`KeyRange` of ``namespace``."""
    start, end = prefix_bounds(prefix)
    return KeyRange(namespace=namespace, start=start, end=end)


def key_part_successor(part: KeyPart) -> KeyPart:
    """The smallest key part strictly greater than ``part`` itself.

    For strings this appends NUL (the immediate next string in lexicographic
    order), so keys whose component merely *starts with* the prefix string
    (e.g. ``"abcd"`` vs prefix ``"abc"``) are correctly excluded.  The query
    executor uses it to turn inclusive upper bounds into exclusive range ends.
    """
    if isinstance(part, bool):  # pragma: no cover - rejected by validate_key
        raise TypeError("boolean key parts are not supported")
    if isinstance(part, str):
        return part + "\x00"
    if isinstance(part, int):
        return part + 1
    import math

    return math.nextafter(float(part), math.inf)
