"""The provisioning feedback loop (Figure 2).

``monitor`` observes workload and SLA attainment window by window and trains
the performance models; ``planner`` converts a forecast plus the declared
SLAs into a target capacity; ``controller`` closes the loop by renting and
releasing utility-computing instances and attaching them to the storage
cluster as replica groups.

The planner's latency sizing is pluggable (``backends``): ``analytical``
uses the closed-form M/G/k-style model in ``analytic`` alone, ``ml`` uses
the learned latency model alone, and the default ``hybrid`` takes the
analytical answer as the backbone and admits the ML answer only as a
bounded residual clamped to a configurable band around it — so mistaught
training windows can no longer drive capacity to ``max_nodes`` (the
latency-model runaway that used to break E6 and fig4's Performance axis).
"""

from repro.core.provisioning.analytic import AnalyticSizingModel, SizingBreakdown
from repro.core.provisioning.backends import (
    PLANNER_BACKENDS,
    AnalyticalBackend,
    HybridBackend,
    LatencyRequirement,
    MLBackend,
    make_backend,
)
from repro.core.provisioning.monitor import SLAMonitor, WindowObservation
from repro.core.provisioning.planner import CapacityPlan, CapacityPlanner
from repro.core.provisioning.controller import ProvisioningController, ScalingAction

__all__ = [
    "AnalyticSizingModel",
    "SizingBreakdown",
    "PLANNER_BACKENDS",
    "AnalyticalBackend",
    "MLBackend",
    "HybridBackend",
    "LatencyRequirement",
    "make_backend",
    "SLAMonitor",
    "WindowObservation",
    "CapacityPlanner",
    "CapacityPlan",
    "ProvisioningController",
    "ScalingAction",
]
