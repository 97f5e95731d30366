"""Mixed-fleet spot capacity: surge read replicas with graceful drain.

The fleet policy the spot market makes possible: **durable quorum members
stay on-demand** (a replica group is never exposed to revocation), while
**surge read capacity goes spot-first** — extra read replicas attached to
existing groups, billed per started minute at the market rate, revocable
with a two-minute notice.  When the market refuses capacity (drought, or
the spot price at/above the on-demand rate) the manager falls back to
on-demand surge instances automatically, so the controller's capacity ask
is always met; it just costs more during the squeeze.

On an interruption notice the manager runs the graceful-drain state
machine:

    RUNNING --notice--> DRAINING --before deadline--> HIBERNATED
                                                        |
                  (market recovers + capacity needed)   v
    RUNNING <--resume (15 s wake, reconcile, no cold re-copy)

Draining marks the storage node DRAIN (the router stops sending it client
reads, the replication engine stops targeting it with new writes, in-flight
migrations hand off via the existing dual-routing machinery), then detaches
the replica and hibernates the instance *strictly before* the notice
deadline — a drain either completes or cleanly aborts, never straddles the
revocation.  A hibernated node keeps its data; resuming rejoins via
``Cluster.resume_hibernated`` (reconcile + LWW catch-up from the primary)
instead of a cold re-copy.

Every decision lands on the :class:`~repro.obs.timeline.DecisionTimeline`:
``spot-bid``, ``spot-fallback``, ``spot-notice``, ``spot-drain``,
``spot-hibernate``, ``spot-resume``, ``spot-release``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.instances import ON_DEMAND, SPOT, Instance
from repro.cloud.pool import InstancePool, SpotUnavailableError
from repro.obs.timeline import DecisionTimeline
from repro.sim.simulator import Simulator
from repro.storage.cluster import Cluster

# A drain needs far less than the two-minute notice: stop reads, let
# replication in flight settle, detach.  The completion margin keeps the
# hibernate strictly inside the deadline even when the notice arrives late.
DRAIN_SECONDS = 45.0
DRAIN_DEADLINE_MARGIN = 5.0

# Ticks of zero deficit after which hibernated capacity is retired for good.
HIBERNATE_RETIRE_TICKS = 5

# Surge replicas a single group will accept.  Every write to a group lands on
# its one primary and fans out to every member, so surge only multiplies READ
# capacity — past a couple of extra replicas the group's write path (and the
# primary's share of reads) becomes the bottleneck and more surge makes the
# tail worse, not better.  Growth beyond the cap must come from new groups,
# which split the keyspace and add primaries.
MAX_SURGE_PER_GROUP = 2


@dataclass(slots=True)
class InterruptionRecord:
    """One interruption notice and how the drain resolved."""

    instance_id: str
    node_id: str
    deadline: float
    reason: str
    outcome: str = "draining"  # -> "hibernated" | "aborted" | "terminated"


class SpotFleetManager:
    """Owns the surge (spot-first) half of a mixed fleet."""

    drain_seconds = DRAIN_SECONDS
    max_surge_per_group = MAX_SURGE_PER_GROUP

    def __init__(
        self,
        simulator: Simulator,
        cluster: Cluster,
        pool: InstancePool,
        timeline: DecisionTimeline,
    ) -> None:
        if pool.market is None:
            raise ValueError("SpotFleetManager needs a pool with an attached market")
        self._sim = simulator
        self._cluster = cluster
        self._pool = pool
        self._market = pool.market
        self._timeline = timeline
        # instance_id -> node_id for attached surge replicas ("" while booting).
        self._surge_nodes: Dict[str, str] = {}
        # instance_id -> group the surge replica was placed in (assigned at
        # launch so booting instances count against the per-group cap too).
        self._surge_group: Dict[str, str] = {}
        # Hibernated surge capacity: instance_id -> node_id.
        self._hibernated: Dict[str, str] = {}
        self._records: List[InterruptionRecord] = []
        self._idle_ticks = 0
        pool.on_spot_interruption = self._on_notice
        self._market.start()

    # ------------------------------------------------------------------ sizing

    def surge_count(self) -> int:
        """Surge instances currently renting (attached or booting)."""
        return len(self._surge_nodes)

    def pending_surge(self) -> int:
        """Surge instances in motion but not yet serving: fresh launches
        still booting, and resumed replicas whose node has not rejoined."""
        return sum(
            1 for node_id in self._surge_nodes.values()
            if not node_id or node_id not in self._cluster.nodes
        )

    def records(self) -> List[InterruptionRecord]:
        """Every interruption notice received, in delivery order."""
        return list(self._records)

    # ------------------------------------------------------------------ growing

    def add_surge(self, count: int) -> int:
        """Attach ``count`` surge read replicas, spot-first.

        Resumes hibernated capacity before renting anything new (a resume
        pays a 15 s wake instead of a full boot and no re-copy).  Each fresh
        launch bids spot and falls back to on-demand when the market refuses;
        the ask is always met unless the pool itself is capped.  Returns the
        number of instances actually set in motion.
        """
        added = 0
        for _ in range(count):
            if self._resume_one():
                added += 1
                continue
            if not self._launch_one():
                break
            added += 1
        return added

    def _spot_price_detail(self) -> str:
        name = self._pool.instance_type.name
        on_demand = self._pool.instance_type.hourly_cost
        try:
            spot = self._market.price(name)
        except KeyError:
            return f"on-demand ${on_demand:.3f}/h"
        return f"spot ${spot:.3f}/h vs on-demand ${on_demand:.3f}/h"

    def _launch_one(self) -> bool:
        if self._pool.active_count() + self._pool.booting_count() + 1 \
                > self._pool.max_instances:
            return False
        group_id = self._pick_group()
        if group_id is None:
            return False
        option = SPOT if self._pool.spot_available() else ON_DEMAND
        self._timeline.record_event(
            self._sim.now, "spot-bid", 1, group_id=group_id,
            detail=self._spot_price_detail())

        def on_ready(instance: Instance) -> None:
            if instance.instance_id not in self._surge_nodes:
                return  # released or interrupted while booting
            target = group_id
            if target not in self._cluster.groups:
                # The chosen group was decommissioned during the boot; pick a
                # survivor rather than crash the attach, or retire the rent if
                # the cluster has nowhere to put the replica.
                del self._surge_group[instance.instance_id]
                target = self._pick_group()
                if target is None:
                    del self._surge_nodes[instance.instance_id]
                    self._pool.terminate(instance.instance_id)
                    return
                self._surge_group[instance.instance_id] = target
            node_id = self._cluster.add_surge_replica(target)
            self._surge_nodes[instance.instance_id] = node_id
            self._timeline.record_event(
                self._sim.now, "attach", 1, group_id=target,
                detail=f"surge replica {node_id} ({instance.purchase_option})")

        try:
            launched = self._pool.launch(
                count=1, on_ready=on_ready, purchase_option=option)
        except SpotUnavailableError:
            option = ON_DEMAND
            launched = self._pool.launch(
                count=1, on_ready=on_ready, purchase_option=ON_DEMAND)
        if option == ON_DEMAND:
            self._timeline.record_event(
                self._sim.now, "spot-fallback", 1, group_id=group_id,
                detail=f"spot unavailable; on-demand surge ({self._spot_price_detail()})")
        self._surge_nodes[launched[0].instance_id] = ""
        self._surge_group[launched[0].instance_id] = group_id
        return True

    def _pick_group(self) -> Optional[str]:
        """Spread surge capacity: the group with the fewest members wins.

        Groups already holding ``max_surge_per_group`` surge replicas
        (attached, booting, or hibernated — frozen capacity rejoins its home
        group on resume) are skipped; returns None when every group is at the
        cap, which tells the controller the rest of the deficit needs whole
        groups, not more read fan-out.
        """
        per_group = Counter(self._surge_group.values())
        groups = [
            (len(group.node_ids), group_id)
            for group_id, group in self._cluster.groups.items()
            if per_group[group_id] < self.max_surge_per_group
        ]
        if not groups:
            return None
        groups.sort()
        return groups[0][1]

    # ---------------------------------------------------------------- shrinking

    def release_surge(self, count: int) -> int:
        """Retire up to ``count`` surge replicas (hibernated capacity first)."""
        released = 0
        while released < count and self._hibernated:
            instance_id, node_id = next(iter(self._hibernated.items()))
            del self._hibernated[instance_id]
            self._surge_group.pop(instance_id, None)
            self._cluster.drop_hibernated(node_id)
            self._pool.terminate(instance_id)
            released += 1
            self._record_release(node_id, "hibernated surge retired")
        while released < count and self._surge_nodes:
            instance_id, node_id = next(reversed(self._surge_nodes.items()))
            del self._surge_nodes[instance_id]
            self._surge_group.pop(instance_id, None)
            if node_id:
                try:
                    self._cluster.detach_replica(node_id)
                except ValueError:
                    pass  # somehow the last member; leave the node, drop the rent
            self._pool.terminate(instance_id)
            released += 1
            self._record_release(node_id or "(booting)", "surge released")
        return released

    def _record_release(self, node_id: str, detail: str) -> None:
        self._timeline.record_event(
            self._sim.now, "spot-release", 1, detail=f"{detail}: {node_id}")

    # ------------------------------------------------------------- interruption

    def _on_notice(self, instance: Instance, deadline: float, reason: str) -> None:
        """Market revocation notice: drain gracefully before the deadline."""
        instance_id = instance.instance_id
        node_id = self._surge_nodes.get(instance_id, "")
        record = InterruptionRecord(
            instance_id=instance_id, node_id=node_id, deadline=deadline, reason=reason)
        self._records.append(record)
        self._timeline.record_event(
            self._sim.now, "spot-notice", 1,
            detail=f"{reason}: {instance_id} ({node_id or 'booting'}), "
                   f"{deadline - self._sim.now:.0f}s to drain")
        if instance_id not in self._surge_nodes:
            record.outcome = "terminated"
            return  # not ours (already released)
        if not node_id:
            # Still booting: nothing to drain, nothing worth hibernating.
            del self._surge_nodes[instance_id]
            self._surge_group.pop(instance_id, None)
            self._pool.terminate(instance_id)
            record.outcome = "aborted"
            self._timeline.record_event(
                self._sim.now, "spot-drain", 1,
                detail=f"aborted: {instance_id} interrupted while booting")
            return
        self._cluster.begin_drain(node_id)
        self._timeline.record_event(
            self._sim.now, "spot-drain", 1,
            detail=f"draining {node_id} (reads rerouted, writes stopped)")
        # Complete strictly before the deadline, even if the drain window
        # must be squeezed: a drain that cannot finish in time aborts early
        # rather than letting the market force-revoke an attached node.
        complete_at = min(self._sim.now + self.drain_seconds,
                          deadline - DRAIN_DEADLINE_MARGIN)
        complete_at = max(complete_at, self._sim.now)
        self._sim.schedule_at(
            complete_at, lambda: self._finish_drain(instance_id, record),
            name=f"spot-drain:{instance_id}")

    def _finish_drain(self, instance_id: str, record: InterruptionRecord) -> None:
        node_id = self._surge_nodes.pop(instance_id, None)
        if node_id is None:
            record.outcome = "terminated"
            return  # released while draining
        instance = self._pool.get(instance_id)
        if instance is None or not instance.is_usable():
            # Interrupted while not running (crashed mid-drain, etc.):
            # nothing to preserve, retire the seat.
            if node_id:
                self._cluster.detach_replica(node_id)
            self._surge_group.pop(instance_id, None)
            self._pool.terminate(instance_id)
            record.outcome = "terminated"
            return
        if not self._cluster.hibernate_node(node_id):
            self._surge_group.pop(instance_id, None)
            self._pool.terminate(instance_id)
            record.outcome = "terminated"
            return
        self._pool.hibernate(instance_id)
        self._hibernated[instance_id] = node_id
        record.outcome = "hibernated"
        self._timeline.record_event(
            self._sim.now, "spot-hibernate", 1,
            detail=f"{node_id} drained and hibernated "
                   f"({record.deadline - self._sim.now:.0f}s before deadline)")

    # -------------------------------------------------------------------- resume

    def _resume_one(self) -> bool:
        """Wake one hibernated surge replica if the market will have it back."""
        if not self._hibernated:
            return False
        if not self._pool.spot_available():
            return False
        instance_id, node_id = next(iter(self._hibernated.items()))
        try:
            self._pool.resume(instance_id, on_ready=lambda inst:
                              self._finish_resume(inst.instance_id))
        except SpotUnavailableError:
            return False
        del self._hibernated[instance_id]
        self._surge_nodes[instance_id] = node_id
        self._timeline.record_event(
            self._sim.now, "spot-resume", 1,
            detail=f"resuming {node_id} (15s wake, no re-copy)")
        return True

    def _finish_resume(self, instance_id: str) -> None:
        node_id = self._surge_nodes.get(instance_id)
        if not node_id:
            self._surge_group.pop(instance_id, None)
            self._pool.terminate(instance_id)
            return
        refreshed = self._cluster.resume_hibernated(node_id)
        if refreshed is None:
            # Home group is gone; the frozen state is worthless.
            self._surge_nodes.pop(instance_id, None)
            self._surge_group.pop(instance_id, None)
            self._cluster.drop_hibernated(node_id)
            self._pool.terminate(instance_id)
            self._record_release(node_id, "home group gone at resume")
            return
        self._timeline.record_event(
            self._sim.now, "attach", 1,
            detail=f"surge replica {node_id} rejoined "
                   f"({refreshed} keys refreshed, no cold re-copy)")

    # ---------------------------------------------------------------------- tick

    def tick(self, node_deficit: int) -> None:
        """Per-control-step housekeeping.

        With a deficit, wake hibernated capacity (cheapest instances first —
        they boot in 15 s with their data intact).  With sustained zero
        deficit, retire hibernated instances: freezing is free but the
        frozen state decays in value as the primary moves on.
        """
        if node_deficit > 0:
            self._idle_ticks = 0
            for _ in range(node_deficit):
                if not self._resume_one():
                    break
            return
        if not self._hibernated:
            self._idle_ticks = 0
            return
        self._idle_ticks += 1
        if self._idle_ticks >= HIBERNATE_RETIRE_TICKS:
            self.release_surge(len(self._hibernated))
            self._idle_ticks = 0
