"""Observability layer: span tracing, latency attribution, decision timeline.

Everything in this package is deliberately decoupled from the simulator:
records hold plain floats/strings and are picklable across process-pool
workers, and each run's payloads travel back on its own summary, so sweep
results are byte-identical at any worker count.  There is no metrics
registry: ``Scads.collect_telemetry()`` builds its snapshot from the records
that own each number (the op recorder, the router, the cache, the decision
log, the tracer's traces) when asked.
"""

from repro.obs.attribution import WindowAttribution, attribute_windows, format_attribution
from repro.obs.timeline import DecisionTimeline, FleetEvent, ProvisioningDecision
from repro.obs.tracing import SPAN_KINDS, Span, TraceRecord, Tracer

__all__ = [
    "SPAN_KINDS",
    "Span",
    "TraceRecord",
    "Tracer",
    "WindowAttribution",
    "attribute_windows",
    "format_attribution",
    "DecisionTimeline",
    "FleetEvent",
    "ProvisioningDecision",
]
