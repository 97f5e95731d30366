"""Trace demo: end-to-end request tracing on the standard closed loop.

Run with ``python examples/trace_demo.py``.  Turns on the observability
layer (``Scads(telemetry=True)`` via the harness), drives a shortened
standard closed-loop scenario, and prints what the layer produces:

* the three slowest sampled traces with their per-span latency breakdown
  (every on-path span sums to the recorded end-to-end latency),
* per-window p99 latency attribution — which span kinds dominate the
  worst-decile operations in each window,
* the provisioning decision timeline — every control step with its full
  sizing rationale and SLA window verdicts,
* a counter/histogram snapshot of the unified telemetry registry.
"""

from __future__ import annotations

import os
import sys

try:
    from repro.experiments.harness import run_closed_loop
except ImportError:  # running from a source checkout without installation
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from repro.experiments.harness import run_closed_loop

from repro.obs import attribute_windows, format_attribution
from repro.parallel.spec import ScenarioSpec, TraceSpec


def main() -> None:
    # The standard closed-loop shape (flat CloudStone mix, autoscaling on),
    # shortened so the demo finishes in seconds.
    result, engine, _ = run_closed_loop(ScenarioSpec(
        name="trace-demo",
        trace=TraceSpec("constant", {"rate": 120.0}),
        duration=300.0,
        n_users=150,
        initial_groups=2,
        predictive_scaling=False,
        engine_knobs={"telemetry": True},
    ), 7)
    traces = engine.traces()

    print(f"sampled {len(traces)} traces over {result.duration:.0f}s "
          f"({result.operations} operations issued)")
    reconciled = sum(1 for t in traces if t.reconciles())
    print(f"span-sum reconciliation: {reconciled}/{len(traces)} traces\n")

    print("=== top-3 slowest traces ===")
    for trace in engine.tracer.slowest(3):
        print(trace.describe())
        print()

    print("=== per-window p99 latency attribution (worst decile) ===")
    print(format_attribution(attribute_windows(traces, window=60.0)))

    print("\n=== provisioning decision timeline (last 5 decisions) ===")
    print(engine.timeline.describe(last=5))
    print("\nfleet events:")
    for event in engine.timeline.events:
        print(f"  {event.describe()}")

    snapshot = engine.collect_telemetry().snapshot()
    print("\n=== telemetry counters ===")
    for name, value in snapshot["counters"].items():
        print(f"  {name:<32} {value}")
    print("\n=== telemetry histograms (p99 ms) ===")
    for name, stats in snapshot["histograms"].items():
        if stats.get("count"):
            print(f"  {name:<32} n={stats['count']:<7} "
                  f"p99={stats['p99'] * 1000:.3f}ms")


if __name__ == "__main__":
    main()
