"""The scale-up/scale-down controller: the acting half of Figure 2's loop.

Every control interval :meth:`ProvisioningController.control_step`

1. asks the monitor to close an observation window (which also trains the
   ML models),
2. feeds the observed rate to the workload forecaster and asks it for the
   rate one provisioning lead time ahead (instance boot + data movement),
3. asks the planner for the target node count, and
4. acts: ``_act`` walks four stages in a fixed order and takes the first
   decision any of them makes.  Every stage is a method
   ``(plan, observation, groups) -> Optional[ProvisioningDecision]`` that
   returns ``None`` to pass the window on.

The stages, in order:

``_evacuate`` — a host problem is not a capacity problem.  With the
    contention layer on (``Scads(contention=...)``), a violated window the
    monitor classifies as *contention* (service-dominated at low
    utilisation, a noisy host named by the per-host residual estimator) is
    remediated before any capacity logic: renting into contention is the
    capacity-only controller's pathological move — the new nodes serve the
    same inflated service times — so the controller live-migrates every
    replica off the noisy host onto quiet hosts (anti-affinity preserved,
    modelling a stop/start re-placement: no extra instances rented, the data
    re-copy charged through the cluster's movement accounting).  The
    diagnosis lands on the decision timeline with its evidence either way;
    the ``placement_aware=False`` config arm stops there — the capacity-only
    ablation ``bench_e16`` compares against.

``_repartition`` — neither is a placement problem.  With a
    :class:`~repro.storage.rebalancer.Rebalancer` attached, a violated
    window the planner flags as a *repartition candidate* (one hot replica
    group, cluster-wide headroom) gets a sub-group split/migrate, which
    moves only the hot keys and rents nothing; the stage rents a single
    group only when the rebalancer cannot act or repeated repartitioning has
    not relieved the pressure.  It counts the repartition streak.

``_grow`` — capacity is sized in nodes: the planner's target minus every
    node serving or already paid for.  With a
    :class:`~repro.core.provisioning.spotfleet.SpotFleetManager` attached
    and a read-dominated window, *surge read replicas* (spot-first,
    on-demand fallback) cover the deficit first — durable quorum members are
    never exposed to revocation; what is left is rented as whole replica
    groups, so the durability SLA's replication factor is never violated
    mid-scale.  Without a fleet every node belongs to a group and the same
    arithmetic is the plain group count.

``_shrink`` — deliberately conservative (sustained low demand over several
    windows, never while a group is booting or the current window is
    violating its SLA, surge capacity before any replica group, at most one
    group per interval) because removing capacity is cheap to defer and
    expensive to get wrong — the asymmetry the paper's economics argument
    relies on.  It counts the low-demand streak.

When no stage decides, the window is quiet: the rebalancer merges split
points that went cold and the action is a plain ``hold``.  A stage that
pre-empts a later one clears that stage's streak, so a streak always counts
consecutive windows.

Each step is recorded once, as a
:class:`~repro.obs.timeline.ProvisioningDecision` on the engine's decision
timeline, holding the step's observation and plan.  ``actions()``,
``plans()``, ``series()`` and the ``*_count()`` methods are views of that
log, not records of their own.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.cloud.pool import InstancePool
from repro.core.index.updater import AsyncIndexUpdater
from repro.core.provisioning.monitor import SLAMonitor, WindowObservation
from repro.core.provisioning.planner import CapacityPlan, CapacityPlanner
from repro.core.consistency.spec import ConsistencySpec, PerformanceSLA
from repro.metrics.timeseries import TimeSeriesRecorder
from repro.ml.forecaster import WorkloadForecaster
from repro.obs.timeline import DecisionTimeline, ProvisioningDecision
from repro.sim.hosts import QUARANTINE_SECONDS
from repro.sim.simulator import Simulator
from repro.storage.cluster import Cluster
from repro.storage.rebalancer import Rebalancer


# After this many repartitions in a row the hotspot is not a placement
# problem after all: rent a group.
MAX_CONSECUTIVE_REPARTITIONS = 2
# Surge replicas are read fan-out (one primary still takes every write), so
# they cover a deficit only while writes are at most this share of traffic.
SPOT_WRITE_FRACTION_CEILING = 0.35


class ProvisioningController:
    """Closed-loop, model-driven provisioning of the storage cluster."""

    # Consecutive low-demand windows before a scale-down.
    scale_down_patience = 5
    # A release must leave the shrunk fleet this fraction above the target.
    scale_down_hysteresis = 0.3
    # Most replica groups rented in one control step.
    max_groups_per_step = 50

    def __init__(
        self,
        simulator: Simulator,
        cluster: Cluster,
        pool: InstancePool,
        monitor: SLAMonitor,
        planner: CapacityPlanner,
        forecaster: WorkloadForecaster,
        updater: Optional[AsyncIndexUpdater],
        slas: Dict[str, PerformanceSLA],
        spec: ConsistencySpec,
        timeline: DecisionTimeline,
        control_interval: float = 60.0,
        predictive: bool = True,
        rebalancer: Optional[Rebalancer] = None,
        spot_fleet=None,
        contention_config=None,
    ) -> None:
        if control_interval <= 0:
            raise ValueError("control_interval must be positive")
        self._sim = simulator
        self._cluster = cluster
        self._pool = pool
        self._monitor = monitor
        self._planner = planner
        self._forecaster = forecaster
        self._updater = updater
        self._slas = dict(slas)
        self._spec = spec
        self.control_interval = control_interval
        self.predictive = predictive
        self._rebalancer = rebalancer
        self._consecutive_repartitions = 0
        self._group_instances: Dict[str, List[str]] = {}
        self._pending_groups = 0
        self._low_demand_windows = 0
        self._cancel_loop = None
        # The decision log: every step's decision and every fleet movement.
        self._timeline = timeline
        # Optional SpotFleetManager: with one attached, a read-dominated
        # capacity deficit is covered by surge read replicas (spot-first,
        # on-demand fallback) instead of whole on-demand groups, and
        # scale-down sheds surge capacity before touching durable groups.
        self._spot_fleet = spot_fleet
        # Optional repro.sim.hosts.ContentionConfig: arms the evacuation
        # stage (placement_aware) on contention-classified violations.
        self._contention_config = contention_config
        self._adopt_existing_groups()

    # -------------------------------------------------------------------- setup

    def _adopt_existing_groups(self) -> None:
        """Open leases for the replica groups the cluster already has."""
        for group_id, group in self._cluster.groups.items():
            instances = self._pool.launch(
                count=len(group.node_ids), boot_delay_override=0.0
            )
            self._group_instances[group_id] = [i.instance_id for i in instances]
            self._timeline.record_event(
                self._sim.now, "attach", len(instances), group_id=group_id,
                detail="pre-provisioned group adopted")

    def start(self) -> None:
        """Begin the periodic control loop (idempotent)."""
        if self._cancel_loop is None:
            self._cancel_loop = self._sim.schedule_periodic(
                self.control_interval, self.control_step, name="provisioning-loop"
            )

    def stop(self) -> None:
        if self._cancel_loop is not None:
            self._cancel_loop()
            self._cancel_loop = None

    # ------------------------------------------------------------------ the loop

    def control_step(self) -> ProvisioningDecision:
        """One pass of the feedback loop (observe -> forecast -> plan -> act)."""
        now = self._sim.now
        observation = self._monitor.close_window(now)
        self._forecaster.observe(now, observation.request_rate)
        if self.predictive:
            # One provisioning lead time: what is rented now serves after the
            # boot delay and two control intervals of acting and data movement.
            forecast = self._forecaster.forecast(
                self._pool.instance_type.boot_delay + 2.0 * self.control_interval)
            # Never plan below what we are already seeing: the forecast hedges
            # the future, it must not talk us into ignoring the present.
            forecast = max(forecast, observation.request_rate)
        else:
            forecast = observation.request_rate
        behind = self._updater.behind_schedule(margin=self.control_interval) \
            if self._updater is not None else False
        plan = self._planner.plan(
            forecast_rate=forecast,
            write_fraction=observation.write_fraction,
            slas=self._slas,
            spec=self._spec,
            pending_maintenance=observation.pending_maintenance,
            behind_schedule=behind,
            mean_utilisation=observation.features.mean_utilisation,
            max_utilisation=observation.features.max_utilisation,
            # Cache absorption is capacity we do not have to rent: the planner
            # sizes the cluster for the miss traffic only.
            cache_hit_rate=observation.cache_hit_rate,
        )
        decision = self._act(plan, observation)
        if self._spot_fleet is not None:
            # Housekeeping for the surge fleet: wake hibernated capacity when
            # nodes are still short after acting, retire it when the deficit
            # stays zero long enough that the frozen state has gone stale.
            deficit = plan.target_nodes - self._node_supply()
            self._spot_fleet.tick(max(deficit, 0))
        self._timeline.record_decision(decision)
        return decision

    def _node_supply(self) -> int:
        """Nodes serving or already paid for and arriving: attached cluster
        nodes, whole groups still booting, and surge replicas in motion."""
        supply = (self._cluster.node_count()
                  + self._pending_groups * self._cluster.replication_factor)
        if self._spot_fleet is not None:
            supply += self._spot_fleet.pending_surge()
        return supply

    def _act(self, plan: CapacityPlan, observation: WindowObservation) -> ProvisioningDecision:
        groups = self._cluster.group_count()
        for stage in (self._evacuate, self._repartition, self._grow, self._shrink):
            decision = stage(plan, observation, groups)
            if decision is not None:
                return decision
        if self._rebalancer is not None:
            # Quiet window: free hygiene — merge split points that went cold.
            self._rebalancer.merge_cold_partitions()
        return self._action("hold", plan, observation, groups)

    def _action(self, kind: str, plan: CapacityPlan, observation: WindowObservation,
                groups: int, note: str = "", groups_after: Optional[int] = None,
                reason: Optional[str] = None) -> ProvisioningDecision:
        """The one place a decision is written down, after acting: ``reason``
        defaults to the plan's own, with the stage's ``note`` appended."""
        if reason is None:
            reason = f"{plan.reason}; {note}" if note else plan.reason
        return ProvisioningDecision(
            time=self._sim.now, kind=kind, groups_before=groups,
            groups_after=groups if groups_after is None else groups_after,
            reason=reason, node_count=self._cluster.node_count(),
            group_count=self._cluster.group_count(),
            observation=observation, plan=plan,
        )

    # ------------------------------------------------------- stage 1: evacuate

    def _evacuate(self, plan: CapacityPlan, observation: WindowObservation,
                  groups: int) -> Optional[ProvisioningDecision]:
        """Remediate a contention-classified violated window.

        Records the diagnosis (with its residual/utilisation evidence, plus
        the worst-decile span-kind split when tracing is on) on the decision
        timeline, then — on the placement-aware arm — evacuates every replica
        off the named noisy host onto quiet hosts.  Passes the window on when
        remediation is disabled (``placement_aware=False``, the capacity-only
        ablation) or nothing was movable.
        """
        if self._contention_config is None or not observation.contention_suspected:
            return None
        now = self._sim.now
        evidence = (
            f"noisy host {observation.noisy_host or 'unnamed'}: "
            f"residual {observation.noisy_host_residual:.2f} "
            f"at mean utilisation {observation.features.mean_utilisation:.2f}"
        )
        if observation.span_kind_fractions:
            top = sorted(observation.span_kind_fractions.items(),
                         key=lambda item: item[1], reverse=True)[:3]
            evidence += "; worst-decile spans " + ", ".join(
                f"{kind} {fraction:.0%}" for kind, fraction in top)
        self._timeline.record_event(now, "contention-diagnosis", 0, detail=evidence)
        if not self._contention_config.placement_aware:
            return None  # capacity-only ablation: diagnosis only, no action
        if not observation.noisy_host:
            return None
        moves = self._cluster.evacuate_host(observation.noisy_host)
        if not moves:
            return None
        # The evacuated host goes dark (no colocated nodes left to report
        # residuals), so hold new placements off it for a while — without
        # the hold, the very next rent would land on the empty
        # least-occupied host and re-poison the fleet mid-episode.
        self._cluster.quarantine_host(
            observation.noisy_host,
            until=now + QUARANTINE_SECONDS)
        self._consecutive_repartitions = self._low_demand_windows = 0
        listed = ", ".join(f"{old}->{new}" for old, new in moves[:4])
        if len(moves) > 4:
            listed += f", +{len(moves) - 4} more"
        self._timeline.record_event(
            now, "host-evacuate", len(moves),
            detail=f"{observation.noisy_host}: {listed}")
        return self._action(
            "evacuate", plan, observation, groups,
            reason=f"contention, not capacity — {evidence}; migrated "
                   f"{len(moves)} replicas off {observation.noisy_host} "
                   "instead of renting")

    # ---------------------------------------------------- stage 2: repartition

    def _repartition(self, plan: CapacityPlan, observation: WindowObservation,
                     groups: int) -> Optional[ProvisioningDecision]:
        """Resolve a hotspot: split/migrate if possible, rent one group if not.

        With a rebalancer attached and a group-level imbalance it can act
        on, a hotspot window always produces a decision: a repartition, a
        hold while the last migration's load shift settles, or — when the
        rebalancer cannot act or repeated repartitions have not relieved the
        pressure — renting a single group, which under the range partitioner
        splits the busiest group's keyspace anyway.  Otherwise (and when the
        pool cannot fit that group) the capacity stages decide.
        """
        rebalancer = self._rebalancer
        if rebalancer is None \
                or not (plan.repartition_candidate and observation.any_sla_violated()) \
                or rebalancer.find_imbalance() is None:
            # No hotspot, or the planner's node-level hotspot flag has no
            # group-level counterpart the rebalancer could act on.
            self._consecutive_repartitions = 0
            return None
        if rebalancer.in_cooldown():
            # A migration's load shift is still settling; acting again now
            # would double-treat the same hotspot.  Hold one window instead
            # (the window breaks neither streak).
            return self._action("hold", plan, observation, groups,
                                "waiting for migration to settle")
        # Either way the window was violated: it is not a low-demand window.
        self._low_demand_windows = 0
        moved = None
        if self._consecutive_repartitions < MAX_CONSECUTIVE_REPARTITIONS:
            moved = rebalancer.rebalance_once()
        if moved is not None:
            self._consecutive_repartitions += 1
            return self._action(
                "repartition", plan, observation, groups,
                f"{moved.kind} moved {moved.keys_moved} keys "
                "instead of renting a group")
        # Placement alone cannot fix this hotspot; rent a single group.
        self._consecutive_repartitions = 0
        if not self._launch_group():
            return None
        return self._action("scale_up", plan, observation, groups,
                            "hotspot unresolved by repartitioning",
                            groups_after=groups + self._pending_groups)

    # ----------------------------------------------------------- stage 3: grow

    def _grow(self, plan: CapacityPlan, observation: WindowObservation,
              groups: int) -> Optional[ProvisioningDecision]:
        """Cover a capacity deficit: surge replicas first, then whole groups."""
        replication = self._cluster.replication_factor
        if math.ceil(plan.target_nodes / replication) <= groups + self._pending_groups:
            return None  # the groups serving or booting cover the target
        self._low_demand_windows = 0
        deficit = plan.target_nodes - self._node_supply()
        if deficit <= 0:
            # Groups come in replication-factor multiples, surge nodes do
            # not: per-node supply already covers the target, so renting a
            # whole group would overshoot.
            return self._action("hold", plan, observation, groups,
                                "surge capacity covers target")
        surge = 0
        if self._spot_fleet is not None \
                and observation.write_fraction <= SPOT_WRITE_FRACTION_CEILING:
            surge = self._spot_fleet.add_surge(deficit)
            deficit = plan.target_nodes - self._node_supply()
        bought = f"+{surge} surge read replicas (spot-first)"
        if deficit <= 0:
            return self._action("surge_up", plan, observation, groups, bought)
        # Surge is capped per group; whatever deficit the fleet would not
        # absorb needs whole groups, which split the keyspace and add
        # primaries.  Without a fleet every node belongs to a group, so this
        # is ceil(target / replication) - (groups + pending) exactly.
        launched = 0
        for _ in range(min(math.ceil(deficit / replication),
                           self.max_groups_per_step)):
            if not self._launch_group():
                break  # pool exhausted; rent what fits and carry on
            launched += 1
        if launched:
            return self._action(
                "scale_up", plan, observation, groups,
                f"{bought} alongside group growth" if surge else "",
                groups_after=groups + self._pending_groups)
        if surge:
            return self._action("surge_up", plan, observation, groups,
                                f"{bought}; pool capped for groups")
        return self._action("hold", plan, observation, groups, "pool at capacity")

    # --------------------------------------------------------- stage 4: shrink

    def _shrink(self, plan: CapacityPlan, observation: WindowObservation,
                groups: int) -> Optional[ProvisioningDecision]:
        """Release capacity after sustained low demand: surge, then one group."""
        replication = self._cluster.replication_factor
        surge_surplus = 0
        if self._spot_fleet is not None:
            # Surge replicas do not come in group multiples, so surplus is
            # measured in nodes: whatever supply exceeds the target, capped
            # by what the surge fleet actually holds.
            surge_surplus = max(min(self._node_supply() - plan.target_nodes,
                                    self._spot_fleet.surge_count()), 0)
        # The planner's target is self-referential: its features are measured
        # on the *current* fleet, so removing a group raises utilisation and
        # can push the next window's target up by the hybrid backend's whole
        # ±clamp band (default 30%) with demand unchanged.  Releasing
        # requires the target to fit the shrunk fleet with that much slack,
        # or the controller would release and re-rent every few windows —
        # each flap billing a whole instance-hour per node.
        shrinkable = (
            groups > 1
            and plan.target_nodes * (1.0 + self.scale_down_hysteresis)
            <= (groups - 1) * replication
        )
        if not (shrinkable or surge_surplus > 0) \
                or self._pending_groups != 0 \
                or observation.any_sla_violated():
            # A low planner target during a violated window is a model
            # artifact (saturation corrupts the service-time features), not
            # low demand — never shrink a fleet that is missing its SLA.
            self._low_demand_windows = 0
            return None
        self._low_demand_windows += 1
        windows = self._low_demand_windows
        if windows < self.scale_down_patience:
            return None
        if surge_surplus > 0:
            released = self._spot_fleet.release_surge(surge_surplus)
            if released:
                self._low_demand_windows = 0
                return self._action(
                    "surge_down", plan, observation, groups,
                    f"released {released} surge replicas after {windows} "
                    "low windows")
        if shrinkable and self._remove_one_group():
            self._low_demand_windows = 0
            return self._action(
                "scale_down", plan, observation, groups,
                f"sustained low demand ({windows} windows)",
                groups_after=groups - 1)
        return None

    # ----------------------------------------------------------------- scaling up

    def _launch_group(self) -> bool:
        """Rent one replica group's worth of instances; attach when all boot.

        Returns False (renting nothing) when the pool cannot fit another
        group — over-asking would raise and kill the whole control loop.
        """
        replication = self._cluster.replication_factor
        in_use = self._pool.active_count() + self._pool.booting_count()
        if in_use + replication > self._pool.max_instances:
            return False
        self._pending_groups += 1
        ready_instances: List[str] = []

        def on_ready(instance) -> None:
            ready_instances.append(instance.instance_id)
            if len(ready_instances) == replication:
                group = self._cluster.add_replica_group()
                self._group_instances[group.group_id] = list(ready_instances)
                self._pending_groups -= 1
                self._timeline.record_event(
                    self._sim.now, "attach", replication,
                    group_id=group.group_id, detail="group booted and attached")

        self._pool.launch(count=replication, on_ready=on_ready)
        self._timeline.record_event(
            self._sim.now, "rent", replication, detail="replica group requested")
        return True

    # --------------------------------------------------------------- scaling down

    def _remove_one_group(self) -> bool:
        """Decommission the most recently added replica group and its instances."""
        removable = [gid for gid in self._cluster.groups if gid in self._group_instances]
        if len(removable) <= 1 or not self._cluster.live_members(removable[-1]):
            return False  # nothing to release, or nobody alive to read its data from
        group_id = removable[-1]
        self._cluster.remove_replica_group(group_id)
        released = self._group_instances.pop(group_id, [])
        for instance_id in released:
            self._pool.terminate(instance_id)
        self._timeline.record_event(
            self._sim.now, "release", len(released), group_id=group_id,
            detail="group decommissioned")
        return True

    # ---------------------------------------------------------------- reporting
    # Views of the decision log: nothing below keeps a record of its own.

    def actions(self) -> List[ProvisioningDecision]:
        return list(self._timeline.decisions)

    def plans(self) -> List[CapacityPlan]:
        """Every CapacityPlan emitted, one per control step (for audits:
        E11 asserts each hybrid plan sits inside the clamp band)."""
        return [decision.plan for decision in self._timeline.decisions]

    def series(self) -> TimeSeriesRecorder:
        """Time series of everything the controller observed and decided."""
        series = TimeSeriesRecorder()
        for d in self._timeline.decisions:
            observation, plan = d.observation, d.plan
            for name, value in (("observed_rate", observation.request_rate),
                                ("forecast_rate", plan.forecast_rate),
                                ("target_nodes", plan.target_nodes),
                                ("nodes", d.node_count),
                                ("groups", d.group_count),
                                ("pending_maintenance", observation.pending_maintenance),
                                ("cache_hit_rate", observation.cache_hit_rate)):
                series.record(name, d.time, value)
        return series

    def _count(self, kind: str) -> int:
        return sum(1 for decision in self._timeline.decisions if decision.kind == kind)

    def scale_up_count(self) -> int:
        return self._count("scale_up")

    def scale_down_count(self) -> int:
        return self._count("scale_down")

    def surge_up_count(self) -> int:
        return self._count("surge_up")

    def surge_down_count(self) -> int:
        return self._count("surge_down")

    def repartition_count(self) -> int:
        return self._count("repartition")

    def evacuation_count(self) -> int:
        return self._count("evacuate")
