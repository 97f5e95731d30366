"""Partitioners: map partition keys to replica groups.

SCADS queries are prefix-range lookups keyed by a partition key (typically a
user id).  :func:`~repro.storage.records.range_lead` names the one partition
key such a range lies under, so it routes like a single key and lands on
exactly one replica group — the paper's "at most one read from a small
constant number of computers" property.  Two strategies are provided:

* :class:`ConsistentHashPartitioner` — a hash ring with virtual nodes;
  adding or removing a replica group moves roughly ``1/n`` of the data.
* :class:`RangePartitioner` — explicit split points over the partition key,
  closer to how BigTable/HBase shard; useful when key locality matters and as
  a comparison point in the data-movement ablation.  Supports incremental
  topology changes (:meth:`~RangePartitioner.split_at`,
  :meth:`~RangePartitioner.merge_at`, :meth:`~RangePartitioner.reassign`) so
  the hot-partition rebalancer can repair skew without a whole-ring reshuffle.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.storage.records import Key


class PartitionerError(RuntimeError):
    """Raised for invalid partitioner configurations or unroutable requests."""


def partition_token(key: Key) -> str:
    """The partition key: the first component of the storage key, as a string."""
    return str(key[0])


def _hash64(value: str) -> int:
    """Stable 64-bit hash used for ring placement (md5 is stable across runs)."""
    digest = hashlib.md5(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class PartitionInfo:
    """One contiguous token range and the replica group that owns it.

    ``lower`` is the inclusive lower bound (``""`` means unbounded below) and
    ``upper`` is the exclusive upper bound (``None`` means unbounded above).
    """

    index: int
    lower: str
    upper: Optional[str]
    owner: str


class Partitioner:
    """Interface shared by the partitioning strategies.

    Both strategies memoize token → group routing behind a *topology epoch*:
    every operation that can change ownership bumps the epoch and drops the
    memo, so steady-state routing is a dict hit (no md5, no bisect) while
    topology changes are never served stale.  The memo is capped (cleared
    wholesale when it exceeds ``ROUTE_CACHE_MAX`` tokens) so unbounded
    keyspaces cannot grow it without limit.
    """

    ROUTE_CACHE_MAX = 1 << 20

    def __init__(self) -> None:
        self._epoch = 0
        self._route_cache: Dict[str, str] = {}

    @property
    def topology_epoch(self) -> int:
        """Bumped on every ownership-changing operation (memo invalidation)."""
        return self._epoch

    def _bump_epoch(self) -> None:
        self._epoch += 1
        self._route_cache.clear()

    def _route_token(self, token: str) -> str:
        """Uncached token → group resolution (strategy-specific)."""
        raise NotImplementedError

    def group_for_token(self, token: str) -> str:
        """The group owning an arbitrary partition token (memoized)."""
        cache = self._route_cache
        group = cache.get(token)
        if group is None:
            group = self._route_token(token)
            if len(cache) >= self.ROUTE_CACHE_MAX:
                cache.clear()
            cache[token] = group
        return group

    def groups(self) -> List[str]:
        """All replica-group ids currently receiving data."""
        raise NotImplementedError

    def group_for_key(self, namespace: str, key: Key) -> str:
        """The replica group responsible for ``key``."""
        return self.group_for_token(str(key[0]))

    def add_group(self, group_id: str) -> None:
        """Register a new replica group so future routing can use it."""
        raise NotImplementedError

    def remove_group(self, group_id: str) -> None:
        """Deregister a replica group (its data must be moved first)."""
        raise NotImplementedError


class ConsistentHashPartitioner(Partitioner):
    """Consistent hashing over partition tokens with virtual nodes.

    Each group places ``virtual_nodes`` points on the ring, so adding or
    removing a group changes the owner of only the tokens its points cover.
    Groups join through :meth:`add_group`.
    """

    virtual_nodes = 64

    def __init__(self) -> None:
        super().__init__()
        self._ring: List[int] = []
        self._ring_owners: Dict[int, str] = {}
        self._groups: List[str] = []
        # Ring points each group owns, so remove_group can retire them.
        self._points: Dict[str, List[int]] = {}

    def groups(self) -> List[str]:
        return list(self._groups)

    def add_group(self, group_id: str) -> None:
        if group_id in self._groups:
            raise PartitionerError(f"group {group_id!r} already registered")
        self._groups.append(group_id)
        points = self._points[group_id] = []
        index = 0
        while len(points) < self.virtual_nodes:
            point = _hash64(f"{group_id}#{index}")
            index += 1
            # Hash collisions between distinct vnode labels are effectively
            # impossible with a 64-bit space, but keep ownership deterministic
            # if one ever occurred by preferring the existing owner.
            if point in self._ring_owners:
                continue
            bisect.insort(self._ring, point)
            self._ring_owners[point] = group_id
            points.append(point)
        self._bump_epoch()

    def remove_group(self, group_id: str) -> None:
        if group_id not in self._groups:
            raise PartitionerError(f"group {group_id!r} is not registered")
        if len(self._groups) == 1:
            raise PartitionerError("cannot remove the last replica group")
        self._groups.remove(group_id)
        for point in self._points.pop(group_id):
            del self._ring_owners[point]
            index = bisect.bisect_left(self._ring, point)
            self._ring.pop(index)
        self._bump_epoch()

    def _route_token(self, token: str) -> str:
        if not self._ring:
            raise PartitionerError("no replica groups registered")
        point = _hash64(token)
        index = bisect.bisect_right(self._ring, point)
        if index == len(self._ring):
            index = 0
        return self._ring_owners[self._ring[index]]


class RangePartitioner(Partitioner):
    """Explicit split points over the partition token (string ordering).

    The first group to join owns the whole keyspace; later groups own
    nothing until a split, reassignment or :meth:`set_splits` hands them a
    range.
    """

    def __init__(self) -> None:
        super().__init__()
        self._groups: List[str] = []
        # Splits are the lower bounds of each partition, first one "".
        self._splits: List[str] = []
        self._owners: List[str] = []

    def groups(self) -> List[str]:
        return list(self._groups)

    def add_group(self, group_id: str) -> None:
        if group_id in self._groups:
            raise PartitionerError(f"group {group_id!r} already registered")
        self._groups.append(group_id)
        if not self._splits:
            self._splits = [""]
            self._owners = [group_id]
        self._bump_epoch()

    def remove_group(self, group_id: str) -> None:
        if group_id not in self._groups:
            raise PartitionerError(f"group {group_id!r} is not registered")
        if len(self._groups) == 1:
            raise PartitionerError("cannot remove the last replica group")
        self._groups.remove(group_id)
        fallback = self._groups[0]
        self._owners = [fallback if owner == group_id else owner for owner in self._owners]
        self._bump_epoch()

    def set_splits(self, splits: Sequence[str], owners: Sequence[str]) -> None:
        """Install explicit split points; ``splits[i]`` is the lower bound of partition i."""
        if len(splits) != len(owners):
            raise PartitionerError("splits and owners must have the same length")
        if not splits or splits[0] != "":
            raise PartitionerError('the first split must be "" (unbounded below)')
        if list(splits) != sorted(splits):
            raise PartitionerError("splits must be sorted")
        unknown = set(owners) - set(self._groups)
        if unknown:
            raise PartitionerError(f"owners reference unregistered groups: {sorted(unknown)}")
        self._splits = list(splits)
        self._owners = list(owners)
        self._bump_epoch()

    def _index_for_token(self, token: str) -> int:
        if not self._splits:
            raise PartitionerError("no replica groups registered")
        return bisect.bisect_right(self._splits, token) - 1

    # ----------------------------------------------------- incremental topology

    def partitions(self) -> List[PartitionInfo]:
        """Every contiguous token range and its owner, in token order."""
        infos = []
        for index, lower in enumerate(self._splits):
            upper = self._splits[index + 1] if index + 1 < len(self._splits) else None
            infos.append(PartitionInfo(index=index, lower=lower, upper=upper,
                                       owner=self._owners[index]))
        return infos

    def partition_for_token(self, token: str) -> PartitionInfo:
        """The partition whose range contains ``token``."""
        index = self._index_for_token(token)
        upper = self._splits[index + 1] if index + 1 < len(self._splits) else None
        return PartitionInfo(index=index, lower=self._splits[index], upper=upper,
                             owner=self._owners[index])

    def split_at(self, token: str) -> PartitionInfo:
        """Split the partition containing ``token`` at ``token``.

        The new right-hand partition keeps the old owner, so a split by itself
        moves no data — it only creates a migratable unit.
        """
        if not token:
            raise PartitionerError('cannot split at ""; it is already the first bound')
        if token in self._splits:
            raise PartitionerError(f"{token!r} is already a split point")
        index = self._index_for_token(token)
        owner = self._owners[index]
        self._splits.insert(index + 1, token)
        self._owners.insert(index + 1, owner)
        self._bump_epoch()
        return self.partition_for_token(token)

    def merge_at(self, index: int) -> PartitionInfo:
        """Merge partition ``index`` with its right neighbour (same owner only).

        Merging differently-owned partitions would silently reassign data;
        callers must :meth:`reassign` (and move the keys) first.
        """
        if index < 0 or index >= len(self._splits) - 1:
            raise PartitionerError(f"partition {index} has no right neighbour to merge")
        if self._owners[index] != self._owners[index + 1]:
            raise PartitionerError(
                f"partitions {index} and {index + 1} have different owners "
                f"({self._owners[index]!r} vs {self._owners[index + 1]!r}); "
                "reassign before merging"
            )
        self._splits.pop(index + 1)
        self._owners.pop(index + 1)
        self._bump_epoch()
        return self.partitions()[index]

    def reassign(self, index: int, new_owner: str) -> PartitionInfo:
        """Hand partition ``index`` to ``new_owner`` (its keys must be moved)."""
        if index < 0 or index >= len(self._splits):
            raise PartitionerError(f"no partition with index {index}")
        if new_owner not in self._groups:
            raise PartitionerError(f"group {new_owner!r} is not registered")
        self._owners[index] = new_owner
        self._bump_epoch()
        return self.partitions()[index]

    # ------------------------------------------------------------------- routing

    def _route_token(self, token: str) -> str:
        return self._owners[self._index_for_token(token)]
