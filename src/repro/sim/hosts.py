"""Physical hosts and correlated co-tenant contention.

Every latency model in the simulator is i.i.d. per node, but the paper's
control loop runs on shared cloud hardware: co-tenants contend on the memory
bus, LLC, and NIC, so slowdowns are *correlated across the nodes that share a
host* and land on service time rather than queueing.  This module supplies
the two pieces of physics the rest of the system diagnoses and remediates
against:

* :class:`HostMap` — assigns logical nodes to shared physical hosts with a
  configurable tenancy bound and an avoid-set hook, which the cluster uses
  for replica-group anti-affinity (a group must never reach read/write quorum
  on one host).
* :class:`ContentionProcess` — scripted per-host co-tenant episodes (the
  ``host_degradation`` fault), pushed onto colocated nodes once per
  :data:`STEP_SECONDS`.  Episodes consume no randomness, so a scenario's
  contention follows from its fault plan alone and paired-seed sweeps stay
  byte-identical at any worker count.  The factor multiplies the *base
  service draw* of every colocated node simultaneously — correlated episodes,
  not i.i.d. noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

# How often every host's factor is pushed onto its colocated nodes.
STEP_SECONDS = 60.0

# Diagnosis thresholds (consumed by the SLA monitor / controller): a host whose
# mean service residual reaches RESIDUAL_THRESHOLD while fleet mean utilisation
# is at or below QUIET_UTILISATION is noisy, not short of capacity.
RESIDUAL_THRESHOLD = 1.5
QUIET_UTILISATION = 0.7

# How long an evacuated host stays off-limits to new placements.  An evacuated
# host has no colocated nodes left, so its residual signal goes dark; without
# a hold, the very next rent would land on the (empty, least-occupied, still
# degraded) host and re-poison the fleet.
QUARANTINE_SECONDS = 600.0


@dataclass
class ContentionConfig:
    """Host tenancy, and whether the controller remediates contention."""

    tenancy: int = 4                  # max nodes sharing one physical host
    placement_aware: bool = True      # False = capacity-only ablation arm

    def __post_init__(self) -> None:
        if self.tenancy < 1:
            raise ValueError(f"tenancy must be >= 1, got {self.tenancy}")


def resolve_contention_config(knob) -> Optional[ContentionConfig]:
    """Normalise the engine's ``contention=`` knob.

    Accepts ``None``/``False`` (off), ``True`` (defaults), a dict (so
    ``ScenarioSpec.engine_knobs`` stays picklable pure data), or a ready
    :class:`ContentionConfig`.
    """
    if knob is None or knob is False:
        return None
    if knob is True:
        return ContentionConfig()
    if isinstance(knob, ContentionConfig):
        return knob
    if isinstance(knob, dict):
        return ContentionConfig(**knob)
    raise TypeError(f"contention must be bool, dict, or ContentionConfig, got {knob!r}")


class HostMap:
    """Assigns nodes to shared physical hosts, least-occupied first.

    Hosts are opened on demand (``host-0``, ``host-1``, ...) whenever every
    existing host is full or avoided.  Assignment is deterministic: among
    hosts with free capacity and not in the avoid set, pick the lowest
    occupancy, breaking ties by creation order.
    """

    def __init__(self, tenancy: int = 4) -> None:
        if tenancy < 1:
            raise ValueError(f"tenancy must be >= 1, got {tenancy}")
        self.tenancy = int(tenancy)
        self._host_of: Dict[str, str] = {}
        self._nodes_on: Dict[str, List[str]] = {}
        self._order: List[str] = []

    def assign(self, node_id: str, avoid: Iterable[str] = ()) -> str:
        """Place ``node_id`` on a host outside ``avoid``; returns the host id."""
        if node_id in self._host_of:
            raise ValueError(f"node {node_id!r} is already placed")
        avoid_set = set(avoid)
        best: Optional[str] = None
        for host in self._order:
            if host in avoid_set:
                continue
            occupancy = len(self._nodes_on[host])
            if occupancy >= self.tenancy:
                continue
            if best is None or occupancy < len(self._nodes_on[best]):
                best = host
        if best is None:
            best = f"host-{len(self._order)}"
            self._order.append(best)
            self._nodes_on[best] = []
        self._host_of[node_id] = best
        self._nodes_on[best].append(node_id)
        return best

    def release(self, node_id: str) -> None:
        """Forget ``node_id``'s placement (no-op if it was never placed)."""
        host = self._host_of.pop(node_id, None)
        if host is not None:
            self._nodes_on[host].remove(node_id)

    def host_of(self, node_id: str) -> Optional[str]:
        return self._host_of.get(node_id)

    def nodes_on(self, host_id: str) -> Tuple[str, ...]:
        return tuple(self._nodes_on.get(host_id, ()))

    def hosts(self) -> Tuple[str, ...]:
        return tuple(self._order)


class ContentionProcess:
    """Scripted co-tenant service-time inflation, per physical host.

    Episodes (scripted faults) are kept as ``(start, end, intensity)``
    windows and consume no randomness, mirroring ``SpotMarket``'s forced
    storms.
    """

    def __init__(self, sim, host_map: HostMap) -> None:
        self._sim = sim
        self.host_map = host_map
        self._forced: Dict[str, List[Tuple[float, float, float]]] = {}

    def force_episode(self, host_id: str, start: float, duration: float,
                      intensity: float) -> None:
        """Script a contention episode on ``host_id`` (consumes no RNG)."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if intensity < 1.0:
            raise ValueError(f"intensity must be >= 1, got {intensity}")
        self._forced.setdefault(host_id, []).append(
            (float(start), float(start) + float(duration), float(intensity)))

    def factor_at(self, host_id: str, time: float) -> float:
        """Service-time multiplier on ``host_id`` at ``time``: the largest
        episode intensity covering ``time``, else 1.0."""
        factor = 1.0
        for start, end, intensity in self._forced.get(host_id, ()):
            if start <= time < end and intensity > factor:
                factor = intensity
        return factor

    def install(self, cluster) -> None:
        """Push per-host factors onto colocated nodes every step.

        A single periodic event per *process* (not per host) keeps the event
        queue small; new nodes pick up their host's factor at the next tick,
        at most one step after placement.
        """

        def tick() -> None:
            now = self._sim.now
            for host in self.host_map.hosts():
                factor = self.factor_at(host, now)
                for node_id in self.host_map.nodes_on(host):
                    node = cluster.nodes.get(node_id)
                    if node is not None:
                        node.set_contention(factor)

        self._sim.schedule_periodic(STEP_SECONDS, tick,
                                    start_delay=0.0, name="contention-tick")
