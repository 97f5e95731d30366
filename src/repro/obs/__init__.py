"""Observability layer: span tracing, telemetry registry, attribution.

Everything in this package is deliberately decoupled from the simulator:
records hold plain floats/strings and are picklable across process-pool
workers, and each run's payloads travel back on its own summary, so sweep
results are byte-identical at any worker count.
"""

from repro.obs.attribution import WindowAttribution, attribute_windows, format_attribution
from repro.obs.telemetry import Telemetry
from repro.obs.timeline import DecisionTimeline, FleetEvent, ProvisioningDecision
from repro.obs.tracing import SPAN_KINDS, Span, TraceRecord, Tracer

__all__ = [
    "SPAN_KINDS",
    "Span",
    "TraceRecord",
    "Tracer",
    "Telemetry",
    "WindowAttribution",
    "attribute_windows",
    "format_attribution",
    "DecisionTimeline",
    "FleetEvent",
    "ProvisioningDecision",
]
