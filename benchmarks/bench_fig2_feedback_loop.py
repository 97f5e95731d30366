"""F2 — Figure 2: the provisioning feedback loop.

Figure 2 sketches the closed loop: workload + declared SLAs + learned models
drive partitioning/replication/capacity actions.  This benchmark runs the
same diurnal workload with the loop closed (autoscaling on) and open
(autoscaling off, fixed initial capacity) and reports what the loop buys:
SLA attainment through the daily peak and lower cost through the trough.
"""

from __future__ import annotations

from repro.experiments.harness import run_closed_loop, smoke_mode, smoke_scaled
from repro.parallel.spec import ScenarioSpec, TraceSpec

_SCALE = smoke_scaled(1.0, 0.1)  # BENCH_SMOKE compresses the whole timeline
SCENARIO = ScenarioSpec(
    name="fig2-feedback-loop",
    trace=TraceSpec("diurnal", {"base_rate": 8.0, "peak_rate": 90.0,
                                "peak_hour": 0.4 * _SCALE,
                                "period_hours": 1.0 * _SCALE}),
    duration=3600.0 * _SCALE,  # one compressed "day" (one-hour period)
    n_users=150,
)


def run_experiment():
    closed, _, _ = run_closed_loop(SCENARIO, 5)
    open_loop, _, _ = run_closed_loop(SCENARIO.with_overrides(autoscale=False), 5)
    return closed, open_loop


def test_fig2_feedback_loop(benchmark, table_printer):
    closed, open_loop = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for label, result in (("feedback loop closed", closed), ("loop open (fixed capacity)", open_loop)):
        rows.append((
            label,
            result.peak_nodes,
            result.final_nodes,
            f"{result.read_report.observed_percentile_latency * 1000:.1f}",
            result.read_report.satisfied,
            result.scale_ups,
            result.scale_downs,
            f"{result.cost.dollars:.2f}",
        ))
    table_printer(
        "Figure 2 — effect of closing the provisioning feedback loop",
        ["configuration", "peak nodes", "final nodes", "99th pct read (ms)",
         "SLA met", "scale-ups", "scale-downs", "dollars"],
        rows,
    )
    # The loop reacts (scales up for the peak) and the open loop's tail
    # latency is worse because the fixed capacity saturates at the peak.
    if smoke_mode():
        return  # smoke sweeps check the loop runs; the loop claims need full time
    assert closed.scale_ups >= 1
    assert (closed.read_report.observed_percentile_latency
            <= open_loop.read_report.observed_percentile_latency)
