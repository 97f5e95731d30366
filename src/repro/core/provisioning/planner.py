"""Capacity planning: forecast + models + SLAs -> target node count.

The planner is deliberately a pure function of its inputs so it can be unit
tested without a simulator: give it a forecast rate, the trained models, and
the declared SLAs, and it returns how many storage nodes the cluster should
have.  The controller is the piece that turns that number into rent/release
actions.

The latency requirement — "how many nodes keep the predicted SLA-percentile
latency under the target?" — is answered three ways (``backend``), and E11's
ablation compares them head to head:

* ``analytical`` — the closed-form M/G/k-style model
  (:class:`~repro.core.provisioning.analytic.AnalyticSizingModel`) alone.
  Explainable and structurally runaway-proof, but blind to workload
  pathologies the queueing abstraction cannot see.
* ``ml`` — the trained :class:`~repro.ml.performance_model
  .LatencyPercentileModel` inverted by monotone bisection.  Learns the real
  latency surface (fan-out, mix shifts, maintenance pressure) but can be
  mistaught — SLA-violation windows once drove it to demand ``max_nodes``.
* ``hybrid`` (the default) — the analytical answer as the backbone, with
  the ML answer admitted only as a *bounded residual*: :func:`hybrid_band`
  keeps it within :data:`CLAMP_BAND` (a fraction, 0.3 = +-30%) of the
  analytical answer.  Whatever the training windows contained, the plan
  stays within the band — runaway is structurally impossible.

The :class:`CapacityPlan` is the only record of the answer: it carries both
raw answers, whether clamping fired, whether the target is infeasible at any
scale (surfaced in its ``reason`` instead of a silent ``max_nodes`` cap) and
the binding answer's explanation.  The utilisation ceiling and staleness
headroom apply identically under every backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.consistency.spec import ConsistencySpec, PerformanceSLA
from repro.core.provisioning.analytic import AnalyticSizingModel
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
    # hybrid backends this is the SizingBreakdown.describe() string.  Every
    # decision on the timeline (repro.obs.timeline) holds its plan.
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

PLANNER_BACKENDS = ("analytical", "ml", "hybrid")

# The hybrid backend's admissible fractional deviation from the analytical
# answer.
CLAMP_BAND = 0.3


def hybrid_band(analytic_nodes: int) -> Tuple[int, int]:
    """The inclusive [low, high] node band the hybrid backend clamps the ML
    answer into: ``[floor(a * (1 - CLAMP_BAND)), ceil(a * (1 + CLAMP_BAND))]``
    around the analytical answer ``a``, never below 1."""
    low = max(int(math.floor(analytic_nodes * (1.0 - CLAMP_BAND))), 1)
    high = max(int(math.ceil(analytic_nodes * (1.0 + CLAMP_BAND))), 1)
    return low, high


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
        if backend not in PLANNER_BACKENDS:
            raise ValueError(f"unknown planner backend {backend!r}; "
                             f"expected one of {PLANNER_BACKENDS}")
        self.backend = backend

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
        # Utilisation requirement: never plan to run nodes hotter than the ceiling.
        utilisation_nodes = max(
            int(math.ceil(cluster_rate / (self.node_capacity_ops * self.target_utilisation))),
            self.min_nodes,
        )
        plan = CapacityPlan(
            target_nodes=0,
            forecast_rate=forecast_rate,
            latency_required_nodes=0,
            utilisation_required_nodes=utilisation_nodes,
            staleness_pressure=False,
            reason="",
            backend=self.backend,
            clamp_band=CLAMP_BAND,
        )
        # Latency requirement: the strictest SLA wins and its answer fills
        # the plan's sizing fields.
        for sla in slas.values():
            self._size_latency(plan, cluster_rate, cluster_write_fraction,
                               sla.latency, pending_maintenance)
        latency_nodes = plan.latency_required_nodes = max(
            plan.latency_required_nodes, self.min_nodes)
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
        plan.target_nodes = min(max(target, self.min_nodes), self.max_nodes)
        plan.staleness_pressure = staleness_pressure
        if latency_nodes >= utilisation_nodes:
            reason = f"latency model ({self.backend})"
        else:
            reason = "utilisation ceiling"
        if plan.latency_infeasible:
            reason += (" [latency target infeasible at any scale — "
                       "holding capacity floor]")
        if plan.ml_clamped:
            reason += (f" [ml answer {plan.ml_nodes} clamped to "
                       f"±{CLAMP_BAND:.0%} of analytical "
                       f"{plan.analytic_nodes}]")
        if staleness_pressure:
            reason += " + staleness headroom"
        if cache_hit_rate >= 0.01:
            reason += f" (cache absorbing {cache_hit_rate:.0%})"
        # Hotspot, not overload: the worst node is past the hot threshold while
        # the cluster mean still has headroom, so moving load is likely cheaper
        # than adding capacity.
        plan.repartition_candidate = (
            max_utilisation >= self.repartition_hot_utilisation
            and mean_utilisation <= self.target_utilisation
        )
        if plan.repartition_candidate:
            reason += " (hotspot: repartition candidate)"
        plan.reason = reason
        return plan

    def _size_latency(self, plan: CapacityPlan, cluster_rate: float,
                      write_fraction: float, target_latency: float,
                      pending_updates: int) -> None:
        """Size the fleet for one SLA's latency target with the configured
        backend; when no earlier SLA needs as many nodes, the answer binds
        and fills ``plan``'s latency fields."""
        breakdown = search = None
        if self.backend != "ml":
            breakdown = self.sizing_model.required_nodes(
                arrival_rate=cluster_rate,
                target_latency=target_latency,
                max_nodes=self.max_nodes,
            )
        if self.backend != "analytical":
            search = self.latency_model.required_nodes_search(
                predicted_rate=cluster_rate,
                write_fraction=write_fraction,
                target_latency=target_latency,
                max_nodes=self.max_nodes,
                pending_updates=pending_updates,
            )
        if search is None:
            nodes, detail = breakdown.nodes, breakdown.describe()
        elif breakdown is None:
            nodes = search.nodes
            detail = (f"ml model: {nodes} nodes" if search.feasible
                      else f"ml model: no node count meets the target "
                           f"(holding max_nodes={nodes})")
        else:
            low, high = hybrid_band(breakdown.nodes)
            nodes = min(max(search.nodes, low), min(high, self.max_nodes))
            detail = breakdown.describe()
            if nodes != search.nodes:
                detail += (f"; ml residual {search.nodes} clamped to "
                           f"[{low}, {high}] (+-{CLAMP_BAND:.0%})")
            else:
                detail += f"; ml residual kept {nodes} within [{low}, {high}]"
        if nodes <= plan.latency_required_nodes:
            return  # an earlier SLA needs at least as many nodes
        plan.latency_required_nodes = nodes
        plan.analytic_nodes = None if breakdown is None else breakdown.nodes
        plan.ml_nodes = None if search is None else search.nodes
        plan.latency_infeasible = (not search.feasible if breakdown is None
                                   else breakdown.infeasible)
        plan.ml_clamped = (breakdown is not None and search is not None
                           and nodes != search.nodes)
        plan.latency_detail = detail
