"""The provisioning feedback loop (Figure 2).

``monitor`` observes workload and SLA attainment window by window and trains
the performance models; ``planner`` converts a forecast plus the declared
SLAs into a target capacity; ``controller`` closes the loop by renting and
releasing utility-computing instances and attaching them to the storage
cluster as replica groups, and records each step once, as a
:class:`~repro.obs.timeline.ProvisioningDecision` on the engine's decision
timeline.

The planner answers the latency sizing question one of three ways
(``planner_backend``): ``analytical`` uses the closed-form M/G/k-style model
in ``analytic`` alone, ``ml`` uses the learned latency model alone, and the
default ``hybrid`` takes the analytical answer as the backbone and admits the
ML answer only as a bounded residual clamped to a band around it — so
mistaught training windows can no longer drive capacity to ``max_nodes``
(the latency-model runaway that used to break E6 and fig4's Performance
axis).
"""

from repro.core.provisioning.analytic import AnalyticSizingModel, SizingBreakdown
from repro.core.provisioning.monitor import SLAMonitor, WindowObservation
from repro.core.provisioning.planner import PLANNER_BACKENDS, CapacityPlan, CapacityPlanner
from repro.core.provisioning.controller import ProvisioningController

__all__ = [
    "AnalyticSizingModel",
    "SizingBreakdown",
    "PLANNER_BACKENDS",
    "SLAMonitor",
    "WindowObservation",
    "CapacityPlanner",
    "CapacityPlan",
    "ProvisioningController",
]
