"""The scale-up/scale-down controller: the acting half of Figure 2's loop.

Every control interval the controller

1. asks the monitor to close an observation window (which also trains the
   ML models),
2. feeds the observed rate to the workload forecaster and asks it for the
   rate one provisioning lead time ahead (instance boot + data movement),
3. asks the planner for the target node count, and
4. rents or releases instances to move the cluster toward the target,
   attaching new machines as whole replica groups so the durability SLA's
   replication factor is never violated mid-scale.

When a :class:`~repro.storage.rebalancer.Rebalancer` is attached, the acting
step grows a REPARTITION branch: if the planner flags the window as a
*repartition candidate* (one hot replica group, cluster-wide headroom), the
controller first tries a sub-group split/migrate — which moves only the hot
keys and rents nothing — and only falls back to launching a group when
repeated repartitioning has not relieved the pressure.

With a :class:`~repro.core.provisioning.spotfleet.SpotFleetManager`
attached, a read-dominated capacity deficit is covered by *surge read
replicas* (spot-first, on-demand fallback) instead of whole on-demand
groups — durable quorum members are never exposed to revocation — and
scale-down sheds surge capacity before it touches a replica group.

With the contention layer on (``Scads(contention=...)``), a violated window
the monitor classifies as *contention* (service-dominated at low
utilisation, a noisy host named by the per-host residual estimator) takes an
EVACUATE branch before any capacity logic: renting into contention is the
capacity-only controller's pathological move — the new nodes serve the same
inflated service times — so the controller instead live-migrates every
replica off the noisy host onto quiet hosts (anti-affinity preserved,
modelling a stop/start re-placement: no extra instances rented, the data
re-copy charged through the cluster's movement accounting).  Every
diagnosis and evacuation lands on the decision timeline with its evidence.
The ``placement_aware=False`` config arm keeps the diagnosis but disables
the remediation — the capacity-only ablation ``bench_e16`` compares
against.

Scale-down is deliberately conservative (sustained low demand over several
windows, at most one group per interval, and never while the current window
is violating its SLA) because removing capacity is cheap to defer and
expensive to get wrong — the asymmetry the paper's economics argument
relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.pool import InstancePool
from repro.core.index.updater import AsyncIndexUpdater
from repro.core.provisioning.monitor import SLAMonitor, WindowObservation
from repro.core.provisioning.planner import CapacityPlan, CapacityPlanner
from repro.core.consistency.spec import ConsistencySpec, PerformanceSLA
from repro.metrics.timeseries import TimeSeriesRecorder
from repro.ml.forecaster import WorkloadForecaster
from repro.obs.timeline import ProvisioningDecision, SlaVerdict
from repro.sim.simulator import Simulator
from repro.storage.cluster import Cluster
from repro.storage.rebalancer import Rebalancer


@dataclass
class ScalingAction:
    """One scaling or repartitioning decision, for experiment reporting."""

    time: float
    # "scale_up", "scale_down", "surge_up", "surge_down", "repartition",
    # "evacuate", "hold"
    kind: str
    groups_before: int
    groups_after: int
    target_nodes: int
    forecast_rate: float
    reason: str


class ProvisioningController:
    """Closed-loop, model-driven provisioning of the storage cluster."""

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
        control_interval: float = 60.0,
        provisioning_lead_time: Optional[float] = None,
        scale_down_patience: int = 5,
        scale_down_hysteresis: float = 0.3,
        max_groups_per_step: int = 50,
        predictive: bool = True,
        rebalancer: Optional[Rebalancer] = None,
        max_consecutive_repartitions: int = 2,
        timeline=None,
        spot_fleet=None,
        spot_write_fraction_ceiling: float = 0.35,
        contention_config=None,
    ) -> None:
        if control_interval <= 0:
            raise ValueError("control_interval must be positive")
        if scale_down_patience < 1:
            raise ValueError("scale_down_patience must be >= 1")
        if scale_down_hysteresis < 0:
            raise ValueError("scale_down_hysteresis must be >= 0")
        if max_groups_per_step < 1:
            raise ValueError("max_groups_per_step must be >= 1")
        if max_consecutive_repartitions < 1:
            raise ValueError("max_consecutive_repartitions must be >= 1")
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
        boot_delay = pool.instance_type.boot_delay
        self.provisioning_lead_time = (
            provisioning_lead_time
            if provisioning_lead_time is not None
            else boot_delay + 2.0 * control_interval
        )
        self.scale_down_patience = scale_down_patience
        self.scale_down_hysteresis = scale_down_hysteresis
        self.max_groups_per_step = max_groups_per_step
        self.predictive = predictive
        self._rebalancer = rebalancer
        self.max_consecutive_repartitions = max_consecutive_repartitions
        self._consecutive_repartitions = 0
        self._group_instances: Dict[str, List[str]] = {}
        self._pending_groups = 0
        self._low_demand_windows = 0
        self._actions: List[ScalingAction] = []
        self._plans: List[CapacityPlan] = []
        self._series = TimeSeriesRecorder()
        self._cancel_loop = None
        # Optional obs.DecisionTimeline: a structured record of every plan
        # (with its sizing rationale) and every fleet movement.
        self._timeline = timeline
        # Optional SpotFleetManager: with one attached, a read-dominated
        # capacity deficit is covered by surge read replicas (spot-first,
        # on-demand fallback) instead of whole on-demand groups, and
        # scale-down sheds surge capacity before touching durable groups.
        self._spot_fleet = spot_fleet
        self.spot_write_fraction_ceiling = spot_write_fraction_ceiling
        # Optional repro.sim.hosts.ContentionConfig: arms the evacuation
        # branch (placement_aware) on contention-classified violations.
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
            if self._timeline is not None:
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

    def control_step(self) -> ScalingAction:
        """One pass of the feedback loop (observe -> forecast -> plan -> act)."""
        now = self._sim.now
        observation = self._monitor.close_window(now)
        self._forecaster.observe(now, observation.request_rate)
        if self.predictive:
            forecast = self._forecaster.forecast(self.provisioning_lead_time)
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
        action = self._act(plan, observation)
        if self._spot_fleet is not None:
            # Housekeeping for the surge fleet: wake hibernated capacity when
            # nodes are still short after acting, retire it when the deficit
            # stays zero long enough that the frozen state has gone stale.
            deficit = plan.target_nodes - self._node_supply()
            self._spot_fleet.tick(max(deficit, 0))
        self._record(now, observation, plan, action)
        return action

    def _node_supply(self) -> int:
        """Nodes serving or already paid for and arriving: attached cluster
        nodes, whole groups still booting, and surge replicas in motion."""
        supply = (self._cluster.node_count()
                  + self._pending_groups * self._cluster.replication_factor)
        if self._spot_fleet is not None:
            supply += self._spot_fleet.pending_surge()
        return supply

    def _act(self, plan: CapacityPlan, observation: WindowObservation) -> ScalingAction:
        replication = self._cluster.replication_factor
        target_groups = max(int(math.ceil(plan.target_nodes / replication)), 1)
        current_groups = self._cluster.group_count()
        effective_current = current_groups + self._pending_groups
        now = self._sim.now
        # A contention-classified violation is a *host* problem: renting into
        # it is the pathological move (new nodes serve the same inflated
        # service times), so evacuation preempts every capacity branch.
        if self._contention_config is not None and observation.contention_suspected:
            action = self._handle_contention(plan, observation, now, current_groups)
            if action is not None:
                return action
        # A violated SLA with cluster-wide headroom is a *placement* problem:
        # try a split/migrate first, and rent a single group only when the
        # rebalancer cannot act (e.g. one token hotter than any group).
        if plan.repartition_candidate and observation.any_sla_violated():
            action = self._try_repartition(plan, now, current_groups)
            if action is not None:
                return action
        if target_groups > effective_current:
            self._consecutive_repartitions = 0
            surge_added = 0
            if self._spot_fleet is not None \
                    and observation.write_fraction <= self.spot_write_fraction_ceiling:
                deficit = plan.target_nodes - self._node_supply()
                if deficit <= 0:
                    # The group-count math over-asks (groups come in
                    # replication-factor multiples; surge nodes do not):
                    # per-node supply already covers the target, so renting a
                    # whole group would overshoot.
                    self._low_demand_windows = 0
                    return ScalingAction(
                        time=now, kind="hold",
                        groups_before=current_groups,
                        groups_after=current_groups,
                        target_nodes=plan.target_nodes,
                        forecast_rate=plan.forecast_rate,
                        reason=f"{plan.reason}; surge capacity covers target",
                    )
                surge_added = self._spot_fleet.add_surge(deficit)
            if self._spot_fleet is None:
                to_add = min(target_groups - effective_current,
                             self.max_groups_per_step)
            else:
                # Surge is read fan-out, capped per group (one primary still
                # takes every write); whatever deficit the fleet would not
                # absorb needs whole groups, which split the keyspace and
                # add primaries.
                deficit = plan.target_nodes - self._node_supply()
                if deficit <= 0:
                    self._low_demand_windows = 0
                    return ScalingAction(
                        time=now, kind="surge_up",
                        groups_before=current_groups,
                        groups_after=current_groups,
                        target_nodes=plan.target_nodes,
                        forecast_rate=plan.forecast_rate,
                        reason=f"{plan.reason}; +{surge_added} surge read "
                               "replicas (spot-first)",
                    )
                to_add = min(int(math.ceil(deficit / replication)),
                             self.max_groups_per_step)
            launched = 0
            for _ in range(to_add):
                if not self._launch_group():
                    break  # pool exhausted; rent what fits and carry on
                launched += 1
            self._low_demand_windows = 0
            if launched == 0 and surge_added == 0:
                return ScalingAction(
                    time=now, kind="hold",
                    groups_before=current_groups,
                    groups_after=current_groups,
                    target_nodes=plan.target_nodes,
                    forecast_rate=plan.forecast_rate,
                    reason=f"{plan.reason}; pool at capacity",
                )
            if launched == 0:
                return ScalingAction(
                    time=now, kind="surge_up",
                    groups_before=current_groups,
                    groups_after=current_groups,
                    target_nodes=plan.target_nodes,
                    forecast_rate=plan.forecast_rate,
                    reason=f"{plan.reason}; +{surge_added} surge read "
                           "replicas (spot-first); pool capped for groups",
                )
            reason = plan.reason
            if surge_added:
                reason = (f"{plan.reason}; +{surge_added} surge read replicas "
                          "(spot-first) alongside group growth")
            return ScalingAction(
                time=now, kind="scale_up",
                groups_before=current_groups,
                groups_after=current_groups + self._pending_groups,
                target_nodes=plan.target_nodes,
                forecast_rate=plan.forecast_rate,
                reason=reason,
            )
        self._consecutive_repartitions = 0
        surge_surplus = 0
        if self._spot_fleet is not None:
            # Surge replicas do not come in group multiples, so surplus is
            # measured in nodes: whatever supply exceeds the target, capped
            # by what the surge fleet actually holds.
            surge_surplus = min(self._node_supply() - plan.target_nodes,
                                self._spot_fleet.surge_count())
            surge_surplus = max(surge_surplus, 0)
        # The planner's target is self-referential: its features are measured
        # on the *current* fleet, so removing a group raises utilisation and
        # can push the next window's target up by the hybrid backend's whole
        # ±clamp band (default 30%) with demand unchanged.  Releasing
        # requires the target to fit the shrunk fleet with that much slack,
        # or the controller would release and re-rent every few windows —
        # each flap billing a whole instance-hour per node.
        shrinkable = (
            current_groups > 1
            and plan.target_nodes * (1.0 + self.scale_down_hysteresis)
            <= (current_groups - 1) * replication
        )
        if (shrinkable or surge_surplus > 0) \
                and self._pending_groups == 0 \
                and not observation.any_sla_violated():
            # A low planner target during a violated window is a model
            # artifact (saturation corrupts the service-time features), not
            # low demand — never shrink a fleet that is missing its SLA.
            self._low_demand_windows += 1
            if self._low_demand_windows >= self.scale_down_patience:
                if surge_surplus > 0:
                    released = self._spot_fleet.release_surge(surge_surplus)
                    if released:
                        windows = self._low_demand_windows
                        self._low_demand_windows = 0
                        return ScalingAction(
                            time=now, kind="surge_down",
                            groups_before=current_groups,
                            groups_after=current_groups,
                            target_nodes=plan.target_nodes,
                            forecast_rate=plan.forecast_rate,
                            reason=f"{plan.reason}; released {released} surge "
                                   f"replicas after {windows} low windows",
                        )
                if shrinkable:
                    removed = self._remove_one_group()
                    if removed:
                        return ScalingAction(
                            time=now, kind="scale_down",
                            groups_before=current_groups,
                            groups_after=current_groups - 1,
                            target_nodes=plan.target_nodes,
                            forecast_rate=plan.forecast_rate,
                            reason=f"{plan.reason}; sustained low demand "
                                   f"({self._low_demand_windows} windows)",
                        )
        else:
            self._low_demand_windows = 0
        if self._rebalancer is not None:
            # Quiet window: free hygiene — merge split points that went cold.
            self._rebalancer.merge_cold_partitions()
        return ScalingAction(
            time=now, kind="hold",
            groups_before=current_groups,
            groups_after=current_groups,
            target_nodes=plan.target_nodes,
            forecast_rate=plan.forecast_rate,
            reason=plan.reason,
        )

    # --------------------------------------------------------------- contention

    def _handle_contention(self, plan: CapacityPlan,
                           observation: WindowObservation, now: float,
                           current_groups: int) -> Optional[ScalingAction]:
        """Remediate a contention-classified violated window.

        Records the diagnosis (with its residual/utilisation evidence, plus
        the worst-decile span-kind split when tracing is on) on the decision
        timeline, then — on the placement-aware arm — evacuates every replica
        off the named noisy host onto quiet hosts and reports an ``evacuate``
        action instead of letting any rent/scale branch run.  Returns None to
        fall through to the ordinary capacity logic when remediation is
        disabled (``placement_aware=False``, the capacity-only ablation) or
        nothing was movable.
        """
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
        if self._timeline is not None:
            self._timeline.record_event(
                now, "contention-diagnosis", 0, detail=evidence)
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
            until=now + self._contention_config.quarantine_seconds)
        self._low_demand_windows = 0
        self._consecutive_repartitions = 0
        if self._timeline is not None:
            listed = ", ".join(f"{old}->{new}" for old, new in moves[:4])
            if len(moves) > 4:
                listed += f", +{len(moves) - 4} more"
            self._timeline.record_event(
                now, "host-evacuate", len(moves),
                detail=f"{observation.noisy_host}: {listed}")
        return ScalingAction(
            time=now, kind="evacuate",
            groups_before=current_groups,
            groups_after=current_groups,
            target_nodes=plan.target_nodes,
            forecast_rate=plan.forecast_rate,
            reason=f"contention, not capacity — {evidence}; migrated "
                   f"{len(moves)} replicas off {observation.noisy_host} "
                   "instead of renting",
        )

    # -------------------------------------------------------------- repartition

    def _try_repartition(self, plan: CapacityPlan, now: float,
                         current_groups: int) -> Optional[ScalingAction]:
        """Resolve a hotspot: split/migrate if possible, rent one group if not.

        Returns None (let the ordinary capacity logic run) only when no
        rebalancer is attached.  With one attached, a hotspot window always
        produces a decision: a repartition action, a hold while the last
        migration's load shift settles, or — when the rebalancer cannot act or
        repeated repartitions have not relieved the pressure — renting a
        single group, which under the range partitioner splits the busiest
        group's keyspace anyway.
        """
        if self._rebalancer is None:
            return None
        if self._rebalancer.find_imbalance() is None:
            # The planner's node-level hotspot flag has no group-level
            # counterpart the rebalancer could act on; let the ordinary
            # capacity logic decide.
            return None
        if self._rebalancer.in_cooldown():
            # A migration's load shift is still settling; acting again now
            # would double-treat the same hotspot.  Hold one window instead.
            return ScalingAction(
                time=now, kind="hold",
                groups_before=current_groups,
                groups_after=current_groups,
                target_nodes=plan.target_nodes,
                forecast_rate=plan.forecast_rate,
                reason=f"{plan.reason}; waiting for migration to settle",
            )
        action = None
        if self._consecutive_repartitions < self.max_consecutive_repartitions:
            action = self._rebalancer.rebalance_once()
        if action is None:
            # Placement alone cannot fix this hotspot; rent a single group
            # (unless the pool is exhausted, in which case fall through).
            if not self._launch_group():
                return None
            self._consecutive_repartitions = 0
            self._low_demand_windows = 0
            return ScalingAction(
                time=now, kind="scale_up",
                groups_before=current_groups,
                groups_after=current_groups + self._pending_groups,
                target_nodes=plan.target_nodes,
                forecast_rate=plan.forecast_rate,
                reason=f"{plan.reason}; hotspot unresolved by repartitioning",
            )
        self._consecutive_repartitions += 1
        self._low_demand_windows = 0
        return ScalingAction(
            time=now, kind="repartition",
            groups_before=current_groups,
            groups_after=current_groups,
            target_nodes=plan.target_nodes,
            forecast_rate=plan.forecast_rate,
            reason=f"{plan.reason}; {action.kind} moved {action.keys_moved} keys "
                   "instead of renting a group",
        )

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
                if self._timeline is not None:
                    self._timeline.record_event(
                        self._sim.now, "attach", replication,
                        group_id=group.group_id, detail="group booted and attached")

        self._pool.launch(count=replication, on_ready=on_ready)
        if self._timeline is not None:
            self._timeline.record_event(
                self._sim.now, "rent", replication, detail="replica group requested")
        return True

    # --------------------------------------------------------------- scaling down

    def _remove_one_group(self) -> bool:
        """Decommission the most recently added replica group and its instances."""
        removable = [gid for gid in self._cluster.groups if gid in self._group_instances]
        if len(removable) <= 1:
            return False
        group_id = removable[-1]
        self._cluster.remove_replica_group(group_id)
        released = self._group_instances.pop(group_id, [])
        for instance_id in released:
            self._pool.terminate(instance_id)
        self._low_demand_windows = 0
        if self._timeline is not None:
            self._timeline.record_event(
                self._sim.now, "release", len(released), group_id=group_id,
                detail="group decommissioned")
        return True

    # ---------------------------------------------------------------- reporting

    def _record(
        self,
        now: float,
        observation: WindowObservation,
        plan: CapacityPlan,
        action: ScalingAction,
    ) -> None:
        self._actions.append(action)
        self._plans.append(plan)
        if self._timeline is not None:
            self._timeline.record_decision(ProvisioningDecision(
                time=now,
                action_kind=action.kind,
                groups_before=action.groups_before,
                groups_after=action.groups_after,
                target_nodes=plan.target_nodes,
                forecast_rate=plan.forecast_rate,
                reason=action.reason,
                backend=plan.backend,
                sizing_detail=plan.latency_detail,
                analytic_nodes=plan.analytic_nodes,
                ml_nodes=plan.ml_nodes,
                ml_clamped=plan.ml_clamped,
                clamp_band=plan.clamp_band,
                latency_infeasible=plan.latency_infeasible,
                cache_hit_rate=observation.cache_hit_rate,
                sla_verdicts=[
                    SlaVerdict(
                        op=op,
                        satisfied=report.satisfied,
                        observed_latency=report.observed_percentile_latency,
                        target_latency=report.target_latency,
                        requests=report.request_count,
                    )
                    for op, report in sorted(observation.sla_reports.items())
                ],
            ))
        self._series.record("observed_rate", now, observation.request_rate)
        self._series.record("forecast_rate", now, plan.forecast_rate)
        self._series.record("target_nodes", now, plan.target_nodes)
        self._series.record("nodes", now, self._cluster.node_count())
        self._series.record("groups", now, self._cluster.group_count())
        self._series.record("pending_maintenance", now, observation.pending_maintenance)
        self._series.record("cache_hit_rate", now, observation.cache_hit_rate)

    def actions(self) -> List[ScalingAction]:
        return list(self._actions)

    def plans(self) -> List[CapacityPlan]:
        """Every CapacityPlan emitted, one per control step (for audits:
        E11 asserts each hybrid plan sits inside the clamp band)."""
        return list(self._plans)

    def series(self) -> TimeSeriesRecorder:
        """Time series of everything the controller observed and decided."""
        return self._series

    def scale_up_count(self) -> int:
        return sum(1 for a in self._actions if a.kind == "scale_up")

    def scale_down_count(self) -> int:
        return sum(1 for a in self._actions if a.kind == "scale_down")

    def surge_up_count(self) -> int:
        return sum(1 for a in self._actions if a.kind == "surge_up")

    def surge_down_count(self) -> int:
        return sum(1 for a in self._actions if a.kind == "surge_down")

    def repartition_count(self) -> int:
        return sum(1 for a in self._actions if a.kind == "repartition")

    def evacuation_count(self) -> int:
        return sum(1 for a in self._actions if a.kind == "evacuate")
