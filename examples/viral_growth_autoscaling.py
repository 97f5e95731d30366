"""Reproduce the Animoto scenario (paper Figure 1) in miniature.

A site's load grows by nearly two orders of magnitude over a (scaled-down)
"three days".  The ML-driven provisioning loop must rent machines ahead of
demand to keep the latency SLA, then release them when growth flattens.  The
script prints the load curve and the instance count over time — the same
curve the paper's Figure 1 shows for Animoto — plus cost compared against
statically provisioning for the peak.

Run with ``python examples/viral_growth_autoscaling.py``.
"""

from __future__ import annotations

import os
import sys

try:
    import repro  # noqa: F401 — probe: is the package on the path?
except ImportError:
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.harness import run_closed_loop
from repro.parallel.spec import ScenarioSpec, TraceSpec


def main() -> None:
    # One simulated "day" is compressed to 20 minutes so the example runs in
    # about a minute of wall-clock time; the growth *ratio* matches Figure 1.
    scenario = ScenarioSpec(
        name="viral-growth-example",
        trace=TraceSpec("viral", {"start_rate": 15.0, "peak_multiplier": 20.0,
                                  "ramp_start": 300.0, "ramp_duration": 2400.0}),
        duration=3600.0,
        n_users=150,
    )

    print("running the autoscaled system...")
    autoscaled, engine, _ = run_closed_loop(scenario, 3)
    print("running the statically provisioned baseline (sized for the start)...")
    static, _, _ = run_closed_loop(scenario.with_overrides(autoscale=False), 3)

    series = engine.controller.series()
    print("\ntime(min)  load(ops/s)  nodes")
    nodes = series.get("nodes")
    rates = series.get("observed_rate")
    for i in range(0, len(nodes), max(len(nodes) // 20, 1)):
        t = nodes.times[i]
        print(f"{t / 60.0:8.1f}  {rates.value_at(t):10.1f}  {nodes.values[i]:5.0f}")

    print("\n                         autoscaled   static(start-sized)")
    for key in ("read_p_latency_ms", "read_sla_met", "peak_nodes", "dollars"):
        print(f"{key:<24} {autoscaled.summary()[key]!s:>12} {static.summary()[key]!s:>12}")
    # The ramp ends inside the run, so the load grows by the full multiplier.
    growth = scenario.trace.params["peak_multiplier"]
    print(f"\nload grew {growth:.0f}x; the autoscaler grew the cluster "
          f"{autoscaled.peak_nodes / max(static.peak_nodes, 1):.1f}x larger than the static "
          f"baseline and kept the SLA: {autoscaled.read_report.satisfied} "
          f"(static: {static.read_report.satisfied})")


if __name__ == "__main__":
    main()
