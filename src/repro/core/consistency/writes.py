"""Write-conflict handling: the write-consistency axis.

The engine funnels every entity write through a :class:`ConflictResolver`,
which decides (a) what value actually gets stored given the current value and
(b) how many replicas must acknowledge synchronously.

* ``SERIALIZABLE`` — read-modify-write at the primary plus a majority quorum,
  so concurrent writers are ordered and no acknowledged write can be lost to
  a lagging replica taking over.
* ``MERGE`` — the developer's merge function combines the current and the
  incoming row; both concurrent writers' effects survive.
* ``LAST_WRITE_WINS`` — the highest timestamp wins; cheapest, and the storage
  layer already enforces it during replication.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, Optional

from repro.core.consistency.spec import WriteConsistency, WritePolicy


class ConflictResolver:
    """Applies the declared write policy to one write at a time."""

    def __init__(self, write_consistency: WriteConsistency, replication_factor: int = 3) -> None:
        if replication_factor < 1:
            raise ValueError("replication factor must be >= 1")
        self.write_consistency = write_consistency
        self.replication_factor = replication_factor

    # ------------------------------------------------------------------ quorums

    def write_quorum(self) -> int:
        """Replica acknowledgements the router must collect synchronously."""
        if self.write_consistency.policy is WritePolicy.SERIALIZABLE:
            return self.replication_factor // 2 + 1
        return 1

    # ------------------------------------------------------------------ payload

    def resolve(
        self,
        current_row: Optional[Mapping[str, Any]],
        incoming_row: Mapping[str, Any],
    ) -> Mapping[str, Any]:
        """The row to store: a fresh dict — the one copy a row ever gets —
        returned read-only (``MappingProxyType``).  Replicas, cache, index
        updater and the caller of ``Scads.put`` share it, so it changes only
        through a versioned write.  ``current_row`` is the primary's current
        value (None when the key is new); a merge function receives copies.
        """
        policy = self.write_consistency.policy
        if policy is WritePolicy.LAST_WRITE_WINS:
            return MappingProxyType(dict(incoming_row))
        if policy is WritePolicy.MERGE:
            if current_row is None:
                return MappingProxyType(dict(incoming_row))
            merge = self.write_consistency.merge_function
            assert merge is not None  # guaranteed by WriteConsistency.__post_init__
            merged = merge(dict(current_row), dict(incoming_row))
            if not isinstance(merged, dict):
                raise TypeError(
                    f"merge function must return a dict row, got {type(merged).__name__}"
                )
            return MappingProxyType(merged)
        # SERIALIZABLE: the quorum (plus single-primary ordering) provides the
        # guarantee; the stored value is simply the incoming row applied on
        # top of the current one so partial-row writes behave like updates.
        base = dict(current_row) if current_row else {}
        base.update(incoming_row)
        return MappingProxyType(base)
