"""The provisioning decision log.

Every control step the controller writes down exactly one
:class:`ProvisioningDecision`: it holds the step's
:class:`~repro.core.provisioning.monitor.WindowObservation` (SLA window
verdicts, cache absorption) and
:class:`~repro.core.provisioning.planner.CapacityPlan` (the sizing answer
and its rationale) by reference, and adds only what the step did about them
(the action, the group delta, the reason, the fleet size after acting).
The controller's ``actions()``, ``plans()``, ``series()`` and counts are
views of this log.  Rent/release/attach fleet movements are logged as
:class:`FleetEvent` rows as they happen.

The engine always keeps the log, whatever ``telemetry`` says; it is
picklable, so it travels back from sweep workers on each run's summary, and
dumps to JSON via ``scripts/analyze_trace.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from repro.core.provisioning.monitor import WindowObservation
    from repro.core.provisioning.planner import CapacityPlan


@dataclass(slots=True)
class ProvisioningDecision:
    """One control step: observation -> plan -> action, fully explained."""

    time: float
    # "scale_up", "scale_down", "surge_up", "surge_down", "repartition",
    # "evacuate", "hold"
    kind: str
    groups_before: int
    groups_after: int
    reason: str
    # Storage nodes and replica groups attached to the cluster after acting
    # (booting groups are in ``groups_after``, not here).
    node_count: int
    group_count: int
    observation: WindowObservation
    plan: CapacityPlan

    def describe(self) -> str:
        plan = self.plan
        verdicts = " ".join(
            f"{op}:{'ok' if report.satisfied else 'VIOLATED'}"
            f"({report.observed_percentile_latency * 1000:.1f}"
            f"/{report.target_latency * 1000:.0f}ms)"
            for op, report in sorted(self.observation.sla_reports.items())
        )
        lines = [
            f"t={self.time:8.1f}s {self.kind:<11} "
            f"groups {self.groups_before}->{self.groups_after} "
            f"target={plan.target_nodes} nodes "
            f"forecast={plan.forecast_rate:.0f} ops/s — {self.reason}"
        ]
        if verdicts:
            lines.append(f"    sla: {verdicts}")
        if plan.latency_detail:
            lines.append(f"    sizing: {plan.latency_detail}")
        if plan.ml_clamped:
            lines.append(
                f"    hybrid: ml={plan.ml_nodes} clamped to "
                f"±{plan.clamp_band:.0%} of analytic={plan.analytic_nodes}"
            )
        return "\n".join(lines)


@dataclass(slots=True)
class FleetEvent:
    """One fleet movement: instances rented, released, or a group attached."""

    time: float
    kind: str  # "rent", "release", "attach"
    instances: int
    group_id: str = ""
    detail: str = ""

    def describe(self) -> str:
        group = f" group={self.group_id}" if self.group_id else ""
        detail = f" ({self.detail})" if self.detail else ""
        return f"t={self.time:8.1f}s {self.kind:<8} {self.instances} instance(s){group}{detail}"


class DecisionTimeline:
    """Append-only log of provisioning decisions and fleet events."""

    __slots__ = ("decisions", "events")

    def __init__(self) -> None:
        self.decisions: List[ProvisioningDecision] = []
        self.events: List[FleetEvent] = []

    def record_decision(self, decision: ProvisioningDecision) -> None:
        self.decisions.append(decision)

    def record_event(
        self, time: float, kind: str, instances: int, group_id: str = "", detail: str = ""
    ) -> None:
        self.events.append(
            FleetEvent(time=time, kind=kind, instances=instances,
                       group_id=group_id, detail=detail)
        )

    def snapshot(self) -> Dict[str, object]:
        """JSON-able dump of the whole timeline."""
        return {
            "decisions": [
                {
                    "time": d.time,
                    "action": d.kind,
                    "groups_before": d.groups_before,
                    "groups_after": d.groups_after,
                    "target_nodes": d.plan.target_nodes,
                    "forecast_rate": d.plan.forecast_rate,
                    "reason": d.reason,
                    "backend": d.plan.backend,
                    "sizing_detail": d.plan.latency_detail,
                    "analytic_nodes": d.plan.analytic_nodes,
                    "ml_nodes": d.plan.ml_nodes,
                    "ml_clamped": d.plan.ml_clamped,
                    "clamp_band": d.plan.clamp_band,
                    "latency_infeasible": d.plan.latency_infeasible,
                    "cache_hit_rate": d.observation.cache_hit_rate,
                    "sla": [
                        {
                            "op": op,
                            "satisfied": report.satisfied,
                            "observed_latency": report.observed_percentile_latency,
                            "target_latency": report.target_latency,
                            "requests": report.request_count,
                        }
                        for op, report in sorted(d.observation.sla_reports.items())
                    ],
                }
                for d in self.decisions
            ],
            "events": [
                {
                    "time": e.time,
                    "kind": e.kind,
                    "instances": e.instances,
                    "group_id": e.group_id,
                    "detail": e.detail,
                }
                for e in self.events
            ],
        }

    def describe(self, last: Optional[int] = None) -> str:
        decisions = self.decisions if last is None else self.decisions[-last:]
        return "\n".join(d.describe() for d in decisions) or "(no decisions)"
