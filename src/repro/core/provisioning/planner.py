"""Capacity planning: forecast + models + SLAs -> target node count.

The planner is deliberately a pure function of its inputs so it can be unit
tested without a simulator: give it a forecast rate, the trained models, and
the declared SLAs, and it returns how many storage nodes the cluster should
have.  The controller is the piece that turns that number into rent/release
actions.

The latency requirement is answered by a pluggable backend (see
:mod:`repro.core.provisioning.backends`): ``analytical`` (closed-form
M/G/k-style sizing), ``ml`` (the learned latency model inverted by
bisection), or the default ``hybrid`` in which the ML answer is a bounded
residual clamped to :data:`~repro.core.provisioning.backends.CLAMP_BAND`
around the analytical answer.  The utilisation ceiling and staleness headroom
apply identically under every backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.consistency.spec import ConsistencySpec, PerformanceSLA
from repro.core.provisioning.analytic import AnalyticSizingModel
from repro.core.provisioning.backends import CLAMP_BAND, make_backend
from repro.ml.performance_model import LatencyPercentileModel, PropagationLagModel


@dataclass
class CapacityPlan:
    """The planner's output for one control interval."""

    target_nodes: int
    forecast_rate: float
    latency_required_nodes: int
    utilisation_required_nodes: int
    staleness_pressure: bool
    reason: str
    # Fraction of forecast demand the cache tier is expected to absorb; the
    # node requirements above were computed against the discounted rate.
    cache_absorbed_fraction: float = 0.0
    # True when the observed load pattern suggests the SLA pressure comes from
    # *placement* (one hot group, cluster-wide headroom), so a split/migrate
    # should be tried before renting another replica group.
    repartition_candidate: bool = False
    # Which latency backend produced latency_required_nodes, and the raw
    # answers behind it.  analytic_nodes/ml_nodes are None when the backend
    # did not consult that model.
    backend: str = "hybrid"
    analytic_nodes: Optional[int] = None
    ml_nodes: Optional[int] = None
    # True when no node count within max_nodes meets the strictest SLA —
    # the plan holds a capacity-stability floor instead of chasing the
    # target, and the reason says so (no more silent max_nodes cap).
    latency_infeasible: bool = False
    # True when the hybrid backend clamped the ML answer into the band.
    ml_clamped: bool = False
    clamp_band: float = 0.0
    # The binding latency requirement's explanation — for the analytical and
    # hybrid backends this is the SizingBreakdown.describe() string, which
    # used to be computed and then dropped on the floor here.  The decision
    # timeline (repro.obs.timeline) records it with every plan.
    latency_detail: str = ""

    def describe(self) -> str:
        return (
            f"target={self.target_nodes} nodes (forecast {self.forecast_rate:.0f} ops/s; "
            f"latency needs {self.latency_required_nodes}, utilisation needs "
            f"{self.utilisation_required_nodes}, staleness pressure={self.staleness_pressure}) "
            f"— {self.reason}"
        )


# Extra capacity multiplier applied when the update queue is predicted to
# endanger the staleness bound.
STALENESS_SCALE_FACTOR = 1.25


class CapacityPlanner:
    """Chooses a target node count that meets every declared requirement.

    Args:
        latency_model: trained (or prior-driven) percentile latency model.
        lag_model: trained (or prior-driven) propagation lag model.
        node_capacity_ops: per-node sustainable ops/sec.
        min_nodes: never plan below this many nodes (replication needs).
        max_nodes: hard cap (the pool's size, or a budget cap).
        repartition_hot_utilisation: a window whose worst node exceeds this
            while the cluster mean stays under ``target_utilisation`` is
            flagged as a repartition candidate (hotspot, not overload).
        backend: latency-sizing backend — ``analytical``, ``ml``, or
            ``hybrid`` (default; ML clamped to ±``CLAMP_BAND`` around the
            analytical answer).
        sizing_model: the analytical model; built from the latency model's
            calibration (capacity, base service time, percentile) when not
            supplied.
    """

    # Utilisation ceiling the plan aims for even when the latency model is
    # optimistic (defence in depth).
    target_utilisation = 0.6

    def __init__(
        self,
        latency_model: LatencyPercentileModel,
        lag_model: PropagationLagModel,
        node_capacity_ops: float,
        min_nodes: int = 2,
        max_nodes: int = 10_000,
        repartition_hot_utilisation: float = 0.75,
        backend: str = "hybrid",
        sizing_model: Optional[AnalyticSizingModel] = None,
    ) -> None:
        if min_nodes < 1 or max_nodes < min_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        if node_capacity_ops <= 0:
            raise ValueError("node_capacity_ops must be positive")
        if not 0.0 < repartition_hot_utilisation <= 1.5:
            raise ValueError("repartition_hot_utilisation must be in (0, 1.5]")
        self.repartition_hot_utilisation = repartition_hot_utilisation
        self.latency_model = latency_model
        self.lag_model = lag_model
        self.node_capacity_ops = node_capacity_ops
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        if sizing_model is None:
            sizing_model = AnalyticSizingModel(
                node_capacity_ops=node_capacity_ops,
                base_service_time=latency_model.base_service_time,
                percentile=latency_model.percentile,
            )
        self.sizing_model = sizing_model
        self.backend_name = backend
        self._backend = make_backend(backend, sizing_model, latency_model)

    def plan(
        self,
        forecast_rate: float,
        write_fraction: float,
        slas: Dict[str, PerformanceSLA],
        spec: ConsistencySpec,
        pending_maintenance: int = 0,
        behind_schedule: bool = False,
        mean_utilisation: float = 0.0,
        max_utilisation: float = 0.0,
        cache_hit_rate: float = 0.0,
    ) -> CapacityPlan:
        """Compute the target node count for the forecast workload.

        ``mean_utilisation`` / ``max_utilisation`` are the observed cluster
        load statistics; a wide gap between them marks the plan as a
        repartition candidate (see :class:`CapacityPlan`).

        ``cache_hit_rate`` is the fraction of demand the cache tier has been
        absorbing (the monitor's window measurement).  The cluster only has
        to serve the remainder, so every node requirement is computed against
        the discounted rate — cache absorption is capacity the controller
        does not have to rent.  ``forecast_rate`` itself stays the *client*
        demand so reports and forecasts remain in one unit.
        """
        if forecast_rate < 0:
            raise ValueError("forecast_rate must be non-negative")
        if not 0.0 <= cache_hit_rate <= 1.0:
            raise ValueError(f"cache_hit_rate must be in [0, 1], got {cache_hit_rate}")
        cluster_rate = forecast_rate * (1.0 - cache_hit_rate)
        # Only reads are absorbed, so the mix reaching the nodes shifts
        # toward writes; query the model with the cluster-side fraction.
        cluster_write_fraction = write_fraction
        if cache_hit_rate > 0.0:
            cluster_write_fraction = min(
                write_fraction / max(1.0 - cache_hit_rate, 1e-9), 1.0)
        # Latency requirement: the strictest SLA wins; keep the winning
        # backend answer so the plan can report the raw analytic/ml split.
        latency_nodes = self.min_nodes
        binding = None
        for sla in slas.values():
            requirement = self._backend.latency_requirement(
                cluster_rate=cluster_rate,
                write_fraction=cluster_write_fraction,
                target_latency=sla.latency,
                pending_updates=pending_maintenance,
                max_nodes=self.max_nodes,
            )
            if binding is None or requirement.nodes > binding.nodes:
                binding = requirement
            latency_nodes = max(latency_nodes, requirement.nodes)
        # Utilisation requirement: never plan to run nodes hotter than the ceiling.
        utilisation_nodes = max(
            int(math.ceil(cluster_rate / (self.node_capacity_ops * self.target_utilisation))),
            self.min_nodes,
        )
        target = max(latency_nodes, utilisation_nodes)
        # Staleness pressure: the update queue is (predicted to be) in danger of
        # missing the declared bound, so add headroom for maintenance throughput.
        per_node_rate = cluster_rate / max(target, 1)
        staleness_pressure = behind_schedule or self.lag_model.danger(
            pending_updates=pending_maintenance,
            per_node_rate=per_node_rate,
            staleness_bound=spec.read.staleness_bound,
        )
        if staleness_pressure:
            target = int(math.ceil(target * STALENESS_SCALE_FACTOR))
        target = min(max(target, self.min_nodes), self.max_nodes)
        if latency_nodes >= utilisation_nodes:
            reason = f"latency model ({self.backend_name})"
        else:
            reason = "utilisation ceiling"
        if binding is not None and binding.infeasible:
            reason += (" [latency target infeasible at any scale — "
                       "holding capacity floor]")
        if binding is not None and binding.clamped:
            reason += (f" [ml answer {binding.ml_nodes} clamped to "
                       f"±{CLAMP_BAND:.0%} of analytical "
                       f"{binding.analytic_nodes}]")
        if staleness_pressure:
            reason += " + staleness headroom"
        if cache_hit_rate >= 0.01:
            reason += f" (cache absorbing {cache_hit_rate:.0%})"
        # Hotspot, not overload: the worst node is past the hot threshold while
        # the cluster mean still has headroom, so moving load is likely cheaper
        # than adding capacity.
        repartition_candidate = (
            max_utilisation >= self.repartition_hot_utilisation
            and mean_utilisation <= self.target_utilisation
        )
        if repartition_candidate:
            reason += " (hotspot: repartition candidate)"
        return CapacityPlan(
            target_nodes=target,
            forecast_rate=forecast_rate,
            latency_required_nodes=latency_nodes,
            utilisation_required_nodes=utilisation_nodes,
            staleness_pressure=staleness_pressure,
            reason=reason,
            repartition_candidate=repartition_candidate,
            cache_absorbed_fraction=cache_hit_rate,
            backend=self.backend_name,
            analytic_nodes=None if binding is None else binding.analytic_nodes,
            ml_nodes=None if binding is None else binding.ml_nodes,
            latency_infeasible=False if binding is None else binding.infeasible,
            ml_clamped=False if binding is None else binding.clamped,
            clamp_band=CLAMP_BAND,
            latency_detail="" if binding is None else binding.detail,
        )
