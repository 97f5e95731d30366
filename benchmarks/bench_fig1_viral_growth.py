"""F1 — Figure 1: Animoto-style viral growth.

The paper's Figure 1 shows Animoto growing from ~50 to 3 400+ servers in
three days.  This benchmark drives the SCADS autoscaler with a load trace
whose start-to-peak ratio matches Figure 1 (compressed in simulated time) and
reports the server-count curve, the growth factor achieved, and SLA
attainment — against a statically provisioned baseline sized for the starting
load, which predictably falls over.
"""

from __future__ import annotations

from repro.experiments.harness import run_closed_loop, smoke_mode, smoke_scaled
from repro.parallel.spec import ScenarioSpec, TraceSpec

_SCALE = smoke_scaled(1.0, 0.1)  # BENCH_SMOKE compresses the whole timeline
SCENARIO = ScenarioSpec(
    name="fig1-viral-growth",
    trace=TraceSpec("viral", {"start_rate": 15.0, "peak_multiplier": 20.0,
                              "ramp_start": 240.0 * _SCALE,
                              "ramp_duration": 2100.0 * _SCALE}),
    duration=3000.0 * _SCALE,
    n_users=150,
)


def run_experiment():
    autoscaled, engine, _ = run_closed_loop(SCENARIO, 3)
    static, _, _ = run_closed_loop(SCENARIO.with_overrides(autoscale=False), 3)
    return autoscaled, engine, static


def test_fig1_viral_growth(benchmark, table_printer):
    autoscaled, engine, static = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    nodes = engine.controller.series().get("nodes")
    rates = engine.controller.series().get("observed_rate")
    samples = []
    for i in range(0, len(nodes), max(len(nodes) // 12, 1)):
        t = nodes.times[i]
        samples.append((f"{t / 60:.0f} min", f"{rates.value_at(t):.0f}", f"{nodes.values[i]:.0f}"))
    table_printer("Figure 1 — servers tracking viral growth (autoscaled)",
                  ["time", "load (ops/s)", "storage nodes"], samples)

    table_printer(
        "Figure 1 — autoscaled vs. statically provisioned for the starting load",
        ["system", "peak nodes", "99th pct read (ms)", "SLA met", "dollars"],
        [
            ("SCADS autoscaled", autoscaled.peak_nodes,
             f"{autoscaled.read_report.observed_percentile_latency * 1000:.1f}",
             autoscaled.read_report.satisfied, f"{autoscaled.cost.dollars:.2f}"),
            ("static (start-sized)", static.peak_nodes,
             f"{static.read_report.observed_percentile_latency * 1000:.1f}",
             static.read_report.satisfied, f"{static.cost.dollars:.2f}"),
        ],
    )

    # The ramp ends inside the run, so the load grows by the full multiplier.
    growth = SCENARIO.trace.params["peak_multiplier"]
    node_growth = autoscaled.peak_nodes / max(nodes.values[0], 1)
    print(f"\nload grew {growth:.0f}x; the autoscaler grew capacity {node_growth:.0f}x "
          f"(paper: 50 -> 3,400+ servers, a 68x growth, same shape).")

    # Shape assertions: the autoscaler follows the growth and wins on latency.
    if smoke_mode():
        return  # smoke sweeps check the loop runs; the growth claims need full time
    assert autoscaled.peak_nodes >= 4 * max(nodes.values[0], 1)
    assert autoscaled.scale_ups >= 2
    assert (autoscaled.read_report.observed_percentile_latency
            < static.read_report.observed_percentile_latency)
