"""Failure injection: node crashes, zone outages, spot interruption storms and
noisy-neighbor episodes.

The durability experiment (E10), the regional-failover and spot scenarios,
and the availability half of the performance SLA all need controlled faults.
The injector schedules fault begin/end events on the shared simulator so
faults interleave naturally with the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List

from repro.storage.cluster import Cluster


@dataclass
class FaultRecord:
    """One injected fault, for experiment reporting."""

    kind: str
    start: float
    end: float


class FailureInjector:
    """Schedules faults against a cluster.

    With a :class:`~repro.cloud.market.SpotMarket` attached,
    :meth:`interruption_storm` injects correlated spot revocations — the
    capacity-reclaim analogue of :meth:`zone_outage`.  With a
    :class:`~repro.sim.hosts.ContentionProcess` attached,
    :meth:`host_degradation` injects scripted noisy-neighbor episodes that
    inflate colocated nodes' service times.
    """

    def __init__(self, cluster: Cluster, market=None, contention=None) -> None:
        self._cluster = cluster
        self._sim = cluster.sim
        self._faults: List[FaultRecord] = []
        self._failure_rng = cluster.sim.random.get("failure-injector")
        self._market = market
        self._contention = contention

    # ------------------------------------------------------------------ crashes

    def _outage(self, at: float, duration: float, victims: Callable[[], Iterable[str]],
                down_name: str, up_name: str) -> None:
        """Crash the alive nodes ``victims()`` names when the fault fires at
        ``at``, and bring exactly those back ``duration`` seconds later.

        Victims are resolved at fire time, not when the fault is scheduled,
        because a real outage hits whatever is running at that moment.
        """
        downed: List[str] = []

        def go_down() -> None:
            for node_id in victims():
                node = self._cluster.nodes.get(node_id)
                if node is not None and node.alive:
                    node.crash()
                    downed.append(node_id)

        def come_back() -> None:
            for node_id in downed:
                node = self._cluster.nodes.get(node_id)
                if node is not None:
                    node.recover()
                    # Reconciliation pass: a recovered migration source
                    # reclaims its stale copies now instead of waiting for
                    # the next changed-key sweep to happen to scan it.
                    self._cluster.reconcile_node(node_id)

        self._sim.schedule_at(at, go_down, name=down_name)
        self._sim.schedule_at(at + duration, come_back, name=up_name)

    def crash_node(self, node_id: str, at: float, duration: float) -> FaultRecord:
        """Crash a node at time ``at`` and recover it ``duration`` later."""
        if node_id not in self._cluster.nodes:
            raise KeyError(f"unknown node {node_id!r}")
        record = FaultRecord(kind="node-crash", start=at, end=at + duration)
        self._faults.append(record)
        self._outage(at, duration, lambda: [node_id],
                     f"crash:{node_id}", f"recover:{node_id}")
        return record

    def crash_random_nodes(self, count: int, at: float, duration: float) -> FaultRecord:
        """Crash ``count`` random alive nodes simultaneously at time ``at``.

        Victims are chosen when the fault *fires*, not when it is scheduled —
        nodes rented between scheduling and firing are eligible, nodes
        decommissioned in between are not.  When fewer than ``count`` nodes
        are alive at fire time the fault crashes all of them (an outage
        cannot kill machines that do not exist).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        record = FaultRecord(kind="crash-random", start=at, end=at + duration)
        self._faults.append(record)

        def victims() -> List[str]:
            alive = sorted(
                node_id for node_id, node in self._cluster.nodes.items() if node.alive
            )
            take = min(count, len(alive))
            if take == 0:
                return []
            return [str(x) for x in
                    self._failure_rng.choice(alive, size=take, replace=False)]

        self._outage(at, duration, victims,
                     f"crash-random:{count}", f"recover-random:{count}")
        return record

    def interruption_storm(self, at: float, duration: float) -> FaultRecord:
        """Correlated spot revocations: a forced capacity drought.

        Every registered spot instance receives an interruption notice at
        ``at`` (two minutes to drain or hibernate), and new spot launches are
        refused until ``at + duration`` — the fleet layer must fall back to
        on-demand capacity for the length of the storm.  Requires an
        attached spot market.
        """
        if self._market is None:
            raise RuntimeError("interruption_storm needs an attached spot market")
        record = FaultRecord(kind="interruption-storm", start=at, end=at + duration)
        self._faults.append(record)
        self._market.interruption_storm(at, duration)
        return record

    def host_degradation(self, at: float, duration: float, intensity: float,
                         host_id: str) -> FaultRecord:
        """A noisy-neighbor episode: co-tenants degrade one physical host.

        Every node colocated on ``host_id`` serves ``intensity``-times-slower
        base service times from ``at`` until ``at + duration`` — correlated
        interference, not i.i.d. noise, and *service*-side rather than
        queueing, which is what the monitor's contention-vs-capacity
        diagnosis keys on.  The episode is forced onto the contention
        process's schedule (consuming no randomness, like
        :meth:`interruption_storm`'s forced storms), which holds its host id
        and intensity, and bookkept in the fault history.  Requires an attached
        :class:`~repro.sim.hosts.ContentionProcess`
        (``Scads(contention=...)``).
        """
        if self._contention is None:
            raise RuntimeError(
                "host_degradation needs an attached contention process "
                "(construct the engine with contention=... )")
        record = FaultRecord(kind="host-degradation", start=at, end=at + duration)
        self._faults.append(record)
        self._contention.force_episode(host_id, at, duration, intensity)
        return record

    def zone_outage(self, at: float, duration: float, zone_index: int) -> FaultRecord:
        """Take down one "availability zone": the ``zone_index``-th member of
        every replica group, simultaneously, for ``duration`` seconds.

        Models a regional failure under the common zone-spread placement
        (each group stripes its replicas across zones, so a zone loss costs
        every group one member at once).  Membership is resolved when the
        fault *fires*, not when it is scheduled — groups rented between now
        and then lose their member too, which is what a real zone outage
        does.  ``zone_index >= 1`` spares the primaries (index 0): the outage
        drains read capacity and forces replica failover without also
        severing the write path, which is a different experiment.
        """
        if zone_index < 0:
            raise ValueError("zone_index must be non-negative")
        record = FaultRecord(kind="zone-outage", start=at, end=at + duration)
        self._faults.append(record)
        def victims() -> List[str]:
            return [group.node_ids[zone_index] for group in self._cluster.groups.values()
                    if zone_index < len(group.node_ids)]

        self._outage(at, duration, victims,
                     f"zone-outage:{zone_index}", f"zone-recover:{zone_index}")
        return record

    # ---------------------------------------------------------------- reporting

    def faults(self) -> List[FaultRecord]:
        """Every fault injected so far, in injection order."""
        return list(self._faults)
