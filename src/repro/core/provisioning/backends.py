"""Pluggable latency-sizing backends for the capacity planner.

The planner's latency requirement — "how many nodes keep the predicted
SLA-percentile latency under the target?" — can be answered three ways, and
E11's ablation compares them head-to-head:

* ``analytical`` — the closed-form M/G/k-style model
  (:class:`~repro.core.provisioning.analytic.AnalyticSizingModel`) alone.
  Explainable and structurally runaway-proof, but blind to workload
  pathologies the queueing abstraction cannot see.
* ``ml`` — the trained :class:`~repro.ml.performance_model
  .LatencyPercentileModel` inverted by monotone bisection.  Learns the real
  latency surface (fan-out, mix shifts, maintenance pressure) but can be
  mistaught — SLA-violation windows once drove it to demand ``max_nodes``.
* ``hybrid`` (the default) — the analytical answer as the backbone, with
  the ML answer admitted only as a *bounded residual*: it may move the
  node count at most :data:`CLAMP_BAND` (a fraction, 0.3 = +-30%) away
  from the analytical answer.  Whatever the training windows contained,
  the plan stays within the band — runaway is structurally impossible.

Every backend returns a :class:`LatencyRequirement` so the plan can report
both raw answers, whether clamping fired, and whether the target is
infeasible at any scale (surfaced in ``CapacityPlan.reason`` instead of the
old silent ``max_nodes`` cap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.provisioning.analytic import AnalyticSizingModel
from repro.ml.performance_model import LatencyPercentileModel

PLANNER_BACKENDS = ("analytical", "ml", "hybrid")

# The hybrid backend's admissible fractional deviation from the analytical
# answer.
CLAMP_BAND = 0.3


@dataclass(frozen=True)
class LatencyRequirement:
    """One backend's answer to "how many nodes for this SLA?"."""

    nodes: int
    analytic_nodes: Optional[int]
    ml_nodes: Optional[int]
    infeasible: bool
    clamped: bool
    detail: str


class AnalyticalBackend:
    """Closed-form sizing only; the ML model is consulted for nothing."""

    name = "analytical"

    def __init__(self, sizing_model: AnalyticSizingModel) -> None:
        self.sizing_model = sizing_model

    def latency_requirement(
        self,
        cluster_rate: float,
        write_fraction: float,
        target_latency: float,
        pending_updates: int,
        max_nodes: int,
    ) -> LatencyRequirement:
        breakdown = self.sizing_model.required_nodes(
            arrival_rate=cluster_rate,
            target_latency=target_latency,
            max_nodes=max_nodes,
        )
        return LatencyRequirement(
            nodes=breakdown.nodes,
            analytic_nodes=breakdown.nodes,
            ml_nodes=None,
            infeasible=breakdown.infeasible,
            clamped=False,
            detail=breakdown.describe(),
        )


class MLBackend:
    """Learned sizing only — the pre-clamp behaviour, kept for the ablation."""

    name = "ml"

    def __init__(self, latency_model: LatencyPercentileModel) -> None:
        self.latency_model = latency_model

    def latency_requirement(
        self,
        cluster_rate: float,
        write_fraction: float,
        target_latency: float,
        pending_updates: int,
        max_nodes: int,
    ) -> LatencyRequirement:
        search = self.latency_model.required_nodes_search(
            predicted_rate=cluster_rate,
            write_fraction=write_fraction,
            target_latency=target_latency,
            max_nodes=max_nodes,
            pending_updates=pending_updates,
        )
        detail = (f"ml model: {search.nodes} nodes"
                  if search.feasible
                  else f"ml model: no node count meets the target "
                       f"(holding max_nodes={search.nodes})")
        return LatencyRequirement(
            nodes=search.nodes,
            analytic_nodes=None,
            ml_nodes=search.nodes,
            infeasible=not search.feasible,
            clamped=False,
            detail=detail,
        )


class HybridBackend:
    """Analytical backbone with the ML answer clamped to a band around it.

    With the analytical answer ``a`` the plan lies in
    ``[floor(a * (1 - CLAMP_BAND)), ceil(a * (1 + CLAMP_BAND))]`` (never
    below 1).
    """

    name = "hybrid"

    def __init__(self, sizing_model: AnalyticSizingModel,
                 latency_model: LatencyPercentileModel) -> None:
        self.sizing_model = sizing_model
        self.latency_model = latency_model

    def band(self, analytic_nodes: int) -> tuple:
        """The inclusive [low, high] node band around the analytical answer."""
        low = max(int(math.floor(analytic_nodes * (1.0 - CLAMP_BAND))), 1)
        high = max(int(math.ceil(analytic_nodes * (1.0 + CLAMP_BAND))), 1)
        return low, high

    def latency_requirement(
        self,
        cluster_rate: float,
        write_fraction: float,
        target_latency: float,
        pending_updates: int,
        max_nodes: int,
    ) -> LatencyRequirement:
        breakdown = self.sizing_model.required_nodes(
            arrival_rate=cluster_rate,
            target_latency=target_latency,
            max_nodes=max_nodes,
        )
        search = self.latency_model.required_nodes_search(
            predicted_rate=cluster_rate,
            write_fraction=write_fraction,
            target_latency=target_latency,
            max_nodes=max_nodes,
            pending_updates=pending_updates,
        )
        low, high = self.band(breakdown.nodes)
        nodes = min(max(search.nodes, low), min(high, max_nodes))
        clamped = nodes != search.nodes
        detail = breakdown.describe()
        if clamped:
            detail += (f"; ml residual {search.nodes} clamped to "
                       f"[{low}, {high}] (+-{CLAMP_BAND:.0%})")
        else:
            detail += f"; ml residual kept {nodes} within [{low}, {high}]"
        return LatencyRequirement(
            nodes=nodes,
            analytic_nodes=breakdown.nodes,
            ml_nodes=search.nodes,
            infeasible=breakdown.infeasible,
            clamped=clamped,
            detail=detail,
        )


def make_backend(kind: str, sizing_model: AnalyticSizingModel,
                 latency_model: LatencyPercentileModel):
    """Build a planner backend by name (``analytical`` / ``ml`` / ``hybrid``)."""
    if kind == "analytical":
        return AnalyticalBackend(sizing_model)
    if kind == "ml":
        return MLBackend(latency_model)
    if kind == "hybrid":
        return HybridBackend(sizing_model, latency_model)
    raise ValueError(
        f"unknown planner backend {kind!r}; expected one of {PLANNER_BACKENDS}")
