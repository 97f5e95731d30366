"""Hot-partition management: per-partition load tracking and skew repair.

The provisioning controller scales the cluster in whole replica groups, which
is the right unit when *aggregate* demand changes.  But a skewed (Zipf)
workload can violate the latency SLA while the cluster as a whole has plenty
of headroom: one group's nodes run hot and the rest idle.  Renting another
group barely helps — consistent placement gives the new group a proportional
slice of *all* keys, not the hot ones — and it costs real dollars.

The :class:`Rebalancer` offers the controller a cheaper action.  It watches
per-partition load (a decayed token-frequency sketch fed by the router),
detects a hot replica group coexisting with a cold one, and repairs the skew
with sub-group operations on the cluster: migrate the hottest partition the
hot group owns to the cold group, first *splitting* it at the tracked load
median when it is too hot for the receiver.  Only the range partitioner has
partitions to move; under the consistent-hash partitioner the rebalancer
never acts, and the controller rents a group instead.

Cold hygiene runs in quiet windows: adjacent same-owner partitions whose
combined tracked load is negligible are merged so the split-point table does
not grow without bound.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.storage.cluster import Cluster
from repro.storage.partitioner import RangePartitioner, partition_token


@dataclass
class RebalanceAction:
    """One executed repartitioning action, for experiment reporting."""

    time: float
    kind: str  # "migrate", "split_migrate", "merge"
    detail: str
    keys_moved: int = 0


class PartitionLoadTracker:
    """A decayed access-frequency sketch over partition tokens.

    The router reports every routed key's partition token; the tracker keeps
    an exponentially decayed count per token, pruning the coldest entries when
    the sketch exceeds ``max_tokens`` so memory stays bounded regardless of
    key-space size.  Counts are therefore *recent* load, which is what split
    and migration decisions should be based on.
    """

    max_tokens = 1024
    half_life = 60.0  # seconds

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}
        self._last_decay = 0.0
        self.prunes_total = 0

    def note(self, token: str, is_write: bool, now: float) -> None:
        """Record one access to ``token`` at simulated time ``now``."""
        self._maybe_decay(now)
        self._counts[token] = self._counts.get(token, 0.0) + 1.0
        if len(self._counts) > self.max_tokens:
            self._prune()

    def note_reads(self, tokens: Sequence[str], now: float) -> None:
        """:meth:`note` for each of ``tokens`` in order, as one call — a
        multiget's keys are noted together.  Still one ``+ 1.0`` per token:
        the decayed counts are not integers, so ``+ n`` would round
        differently."""
        self._maybe_decay(now)
        counts = self._counts
        for token in tokens:
            counts[token] = counts.get(token, 0.0) + 1.0
            if len(counts) > self.max_tokens:
                self._prune()
                counts = self._counts

    def _maybe_decay(self, now: float) -> None:
        elapsed = now - self._last_decay
        if elapsed < self.half_life / 4.0:
            return
        factor = 0.5 ** (elapsed / self.half_life)
        self._counts = {t: c * factor for t, c in self._counts.items() if c * factor >= 0.25}
        self._last_decay = now

    def _prune(self) -> None:
        keep = sorted(self._counts.items(), key=lambda tc: tc[1],
                      reverse=True)[: self.max_tokens // 2]
        self._counts = dict(keep)
        # Pruning discards the cold tail's mass, so from here on the sketch
        # under-counts total load (fine for hot/cold *ranking*, not for
        # absolute rates) — consumers of rate_estimate() can check this.
        self.prunes_total += 1

    # ------------------------------------------------------------------ queries

    def counts(self) -> Dict[str, float]:
        return dict(self._counts)

    def total_load(self) -> float:
        return sum(self._counts.values())

    def rate_estimate(self) -> float:
        """Cluster access rate implied by the decayed totals (ops/sec).

        At steady state an exponentially decayed counter holds
        ``rate * half_life / ln 2``, so inverting it gives a low-variance,
        unbiased rate — unlike summing per-node interarrival EWMAs, whose
        reciprocal is systematically high (Jensen) and noisy.
        """
        return self.total_load() * math.log(2) / self.half_life

    def load_between(self, lower: str, upper: Optional[str]) -> float:
        """Tracked load whose token falls in ``[lower, upper)``."""
        return sum(
            count for token, count in self._counts.items()
            if token >= lower and (upper is None or token < upper)
        )

    def split_point(self, lower: str, upper: Optional[str]) -> Optional[str]:
        """The token that halves the tracked load within ``[lower, upper)``.

        Returns None when the range holds fewer than two tracked tokens (a
        single hot token cannot be split any finer).
        """
        in_range = sorted(
            (token, count) for token, count in self._counts.items()
            if token >= lower and (upper is None or token < upper)
        )
        if len(in_range) < 2:
            return None
        total = sum(count for _, count in in_range)
        cumulative = 0.0
        for token, count in in_range:
            if token > lower and cumulative >= total / 2.0:
                return token
            cumulative += count
        # Load is concentrated at the tail; split just before the last token.
        return in_range[-1][0] if in_range[-1][0] > lower else None


class Rebalancer:
    """Detects hot/cold replica groups and repairs skew with sub-group actions.

    Args:
        cluster: the cluster to operate on (the rebalancer's
            :class:`PartitionLoadTracker` is attached to it).
        hot_utilisation: a group whose mean node utilisation exceeds this is a
            migration source candidate.
        cold_utilisation: a group below this can absorb migrated load.
        cooldown: minimum simulated seconds between actions, so one migration
            can take effect (and its load stats settle) before the next.

    ``receiver_target_utilisation`` caps the receiving group's mean
    utilisation after a migration; it is the utilisation at which tail
    latency still comfortably meets the SLA, so it is tighter than
    ``hot_utilisation``: the midpoint of the two detection thresholds, so it
    scales with however they were calibrated.
    """

    # Adjacent same-owner partitions whose combined tracked load is below this
    # fraction of the total are merge candidates during cold hygiene.
    merge_load_fraction = 0.05

    def __init__(
        self,
        cluster: Cluster,
        hot_utilisation: float = 0.75,
        cold_utilisation: float = 0.5,
        cooldown: float = 0.0,
    ) -> None:
        if not 0.0 < cold_utilisation < hot_utilisation:
            raise ValueError("need 0 < cold_utilisation < hot_utilisation")
        self._cluster = cluster
        self.tracker = PartitionLoadTracker()
        self.hot_utilisation = hot_utilisation
        self.cold_utilisation = cold_utilisation
        self.receiver_target_utilisation = (cold_utilisation + hot_utilisation) / 2.0
        self.cooldown = cooldown
        self._actions: List[RebalanceAction] = []
        self._last_action_time: Optional[float] = None
        cluster.attach_load_tracker(self.tracker)

    # ---------------------------------------------------------------- detection

    def group_utilisations(self) -> Dict[str, float]:
        """Pressure per replica group: its tracked-load share of cluster rate,
        normalised by the group's capacity.

        Individual node utilisation estimates are arrival-EWMAs and noisy (a
        handful of short gaps doubles them); the tracker's decayed counts
        aggregate thousands of accesses, so ownership-weighted shares give a
        far steadier hot/cold signal.  Falls back to node EWMAs while the
        tracker is empty (e.g. a freshly attached rebalancer).
        """
        total_tracked = self.tracker.total_load()
        cluster_rate = self.tracker.rate_estimate()
        partitions = (self._cluster.partitioner.partitions()
                      if isinstance(self._cluster.partitioner, RangePartitioner)
                      else None)
        utilisations: Dict[str, float] = {}
        for group_id, group in self._cluster.groups.items():
            alive = [
                self._cluster.nodes[node_id]
                for node_id in group.node_ids
                if self._cluster.nodes[node_id].alive
            ]
            if not alive:
                utilisations[group_id] = 0.0
                continue
            capacity = len(alive) * self._cluster.node_capacity_ops
            if partitions is not None and total_tracked > 0 and cluster_rate > 0:
                share = sum(
                    self.tracker.load_between(p.lower, p.upper)
                    for p in partitions if p.owner == group_id
                ) / total_tracked
                utilisations[group_id] = share * cluster_rate / capacity
            else:
                utilisations[group_id] = self._cluster.group_mean_utilisation(group_id)
        return utilisations

    def find_imbalance(self) -> Optional[Tuple[str, str]]:
        """A (hot_group, cold_group) pair a sub-group action could repair."""
        utilisations = self.group_utilisations()
        if len(utilisations) < 2:
            return None
        hot = max(utilisations, key=utilisations.get)
        cold = min(utilisations, key=utilisations.get)
        if hot == cold:
            return None
        if utilisations[hot] < self.hot_utilisation:
            return None
        if utilisations[cold] > self.cold_utilisation:
            return None  # everyone is busy; this needs capacity, not placement
        return hot, cold

    def in_cooldown(self) -> bool:
        """True while the last action's load shift is still settling."""
        if self._last_action_time is None:
            return False
        return self._cluster.sim.now - self._last_action_time < self.cooldown

    # ---------------------------------------------------------------- actions

    def rebalance_once(self) -> Optional[RebalanceAction]:
        """Repair one detected imbalance; returns the action taken, if any.

        Acts only under the range partitioner.
        """
        if not isinstance(self._cluster.partitioner, RangePartitioner) \
                or self.in_cooldown():
            return None
        imbalance = self.find_imbalance()
        if imbalance is None:
            return None
        action = self._range_action(*imbalance)
        if action is not None:
            self._actions.append(action)
            self._last_action_time = self._cluster.sim.now
        return action

    def _tracked_group_load(self, group_id: str) -> float:
        """Tracked load currently owned by one group (range partitioner)."""
        return sum(
            self.tracker.load_between(p.lower, p.upper)
            for p in self._cluster.partitioner.partitions()
            if p.owner == group_id
        )

    def _receiver_headroom_load(self, cold: str) -> float:
        """How much tracked load the cold group can absorb while staying at an
        SLA-compatible utilisation, in the tracker's (decayed-count) units."""
        cold_group = self._cluster.groups[cold]
        alive = sum(1 for node_id in cold_group.node_ids
                    if self._cluster.nodes[node_id].alive)
        capacity_rate = (self.receiver_target_utilisation * alive
                         * self._cluster.node_capacity_ops)
        cluster_rate = self.tracker.rate_estimate()
        total_tracked = self.tracker.total_load()
        if cluster_rate <= 0 or total_tracked <= 0:
            return 0.0
        capacity_load = capacity_rate / cluster_rate * total_tracked
        return max(capacity_load - self._tracked_group_load(cold), 0.0)

    def _range_action(self, hot: str, cold: str) -> Optional[RebalanceAction]:
        """Move the most load that *fits* the receiver, splitting if needed.

        Moving a partition hotter than the cold group's headroom just
        relocates the hotspot (and the next window moves it back), so the
        hottest partition is only migrated wholesale when it fits; otherwise
        it is split at its tracked-load median and the best-fitting half
        moves.  Returns None when nothing can usefully move — the controller
        then falls through to renting capacity, which is the honest answer.
        """
        partitioner = self._cluster.partitioner
        owned = [p for p in partitioner.partitions() if p.owner == hot]
        if not owned:
            return None
        now = self._cluster.sim.now
        headroom = self._receiver_headroom_load(cold)
        if headroom <= 0:
            return None
        # Sanity-check the detection against the steadier tracker estimate:
        # only act when the hot group really is over its own target capacity,
        # so a transient EWMA blip cannot trigger a pointless migration.
        total_tracked = self.tracker.total_load()
        cluster_rate = self.tracker.rate_estimate()
        hot_group = self._cluster.groups[hot]
        hot_alive = sum(1 for node_id in hot_group.node_ids
                        if self._cluster.nodes[node_id].alive)
        hot_tracked = sum(self.tracker.load_between(p.lower, p.upper) for p in owned)
        if total_tracked <= 0 or cluster_rate <= 0:
            return None
        hot_target = (self.receiver_target_utilisation * hot_alive
                      * self._cluster.node_capacity_ops)
        # The load the hot group must shed, in the tracker's units.
        excess_load = hot_tracked - hot_target / cluster_rate * total_tracked
        if excess_load <= 0:
            return None
        # One scan of the hot primary gives every piece's key count via
        # bisect, instead of rescanning per candidate in the loops below.
        hot_primary = self._cluster.nodes[hot_group.primary]
        key_tokens: List[str] = []
        if hot_primary.alive:
            key_tokens = sorted(
                partition_token(key)
                for namespace in hot_primary.namespaces()
                for key, _ in hot_primary.scan_namespace(namespace)
            )

        def keys_in(piece) -> int:
            lo = bisect.bisect_left(key_tokens, piece.lower)
            hi = (len(key_tokens) if piece.upper is None
                  else bisect.bisect_left(key_tokens, piece.upper))
            return hi - lo
        pieces = [(self.tracker.load_between(p.lower, p.upper), p) for p in owned]
        if max(load for load, _ in pieces) <= 0:
            return None

        def migrate(piece, kind: str, detail: str) -> Optional[RebalanceAction]:
            record = self._cluster.migrate_partition(piece.lower, cold)
            if partitioner.partition_for_token(piece.lower).owner != cold:
                # The cluster refused (e.g. the hot primary is down); report
                # no action so the controller can rent capacity instead.
                return None
            moved = record.keys_moved if record is not None else 0
            return RebalanceAction(time=now, kind=kind, keys_moved=moved,
                                   detail=detail)
        # Splits are free (no data moves), so recursively split the hottest
        # piece at its tracked-load median until it fits the receiver — this
        # maximises relief per key moved.  The loop ends when everything fits
        # or the hottest piece is a single unsplittable token.
        splits_made = []
        for _ in range(16):
            hottest_load, hottest = max(pieces, key=lambda lp: lp[0])
            if hottest_load <= headroom:
                break
            split = self.tracker.split_point(hottest.lower, hottest.upper)
            if split is None:
                break
            self._cluster.split_partition(split)
            splits_made.append(split)
            pieces.remove((hottest_load, hottest))
            for piece in (partitioner.partition_for_token(hottest.lower),
                          partitioner.partition_for_token(split)):
                pieces.append(
                    (self.tracker.load_between(piece.lower, piece.upper), piece)
                )
        # Choose what to move: the fewest-keys piece whose load covers the
        # excess (falling back to the largest fitting piece for partial
        # relief), and split an oversized choice back down toward the excess —
        # shedding 2 ops/sec must not cost a 40-key slab migration.
        migrated = None
        for _ in range(8):
            fitting = [(load, p) for load, p in pieces if 0 < load <= headroom]
            if not fitting:
                break
            sufficient = [(load, p) for load, p in fitting if load >= excess_load]
            if not sufficient:
                # Partial relief only: among comparably hot pieces, move the
                # one with the fewest stored keys.
                best_load = max(load for load, _ in fitting)
                comparable = [p for load, p in fitting if load >= 0.8 * best_load]
                migrated = min(comparable, key=keys_in)
                break
            load, piece = min(sufficient, key=lambda lp: keys_in(lp[1]))
            if load <= 1.25 * excess_load:
                migrated = piece
                break
            split = self.tracker.split_point(piece.lower, piece.upper)
            if split is None:
                migrated = piece
                break
            self._cluster.split_partition(split)
            splits_made.append(split)
            pieces.remove((load, piece))
            for half in (partitioner.partition_for_token(piece.lower),
                         partitioner.partition_for_token(split)):
                pieces.append(
                    (self.tracker.load_between(half.lower, half.upper), half)
                )
        if migrated is None:
            # Even a single token exceeds the receiver's headroom: placement
            # cannot fix this; the controller should rent capacity instead.
            return None
        kind = "split_migrate" if splits_made else "migrate"
        prefix = f"split {hot} at {splits_made} then " if splits_made else ""
        return migrate(
            migrated, kind,
            f"{prefix}[{migrated.lower!r}, {migrated.upper!r}) {hot} -> {cold}",
        )

    def merge_cold_partitions(self) -> Optional[RebalanceAction]:
        """Merge one adjacent same-owner pair whose combined load is negligible.

        Free (no data moves) and keeps the split-point table from growing
        without bound after many split/migrate cycles.  Called by the
        controller in quiet windows.
        """
        if not isinstance(self._cluster.partitioner, RangePartitioner):
            return None
        partitions = self._cluster.partitioner.partitions()
        if len(partitions) < 2:
            return None
        total = self.tracker.total_load()
        threshold = total * self.merge_load_fraction
        for left, right in zip(partitions, partitions[1:]):
            if left.owner != right.owner:
                continue
            combined = (self.tracker.load_between(left.lower, left.upper)
                        + self.tracker.load_between(right.lower, right.upper))
            if total > 0 and combined > threshold:
                continue
            self._cluster.merge_partitions(left.lower)
            action = RebalanceAction(
                time=self._cluster.sim.now, kind="merge",
                detail=f"[{left.lower!r}, {right.upper!r}) under {left.owner}",
            )
            self._actions.append(action)
            return action
        return None

    # --------------------------------------------------------------- reporting

    def actions(self) -> List[RebalanceAction]:
        return list(self._actions)

    def keys_moved(self) -> int:
        return sum(action.keys_moved for action in self._actions)
