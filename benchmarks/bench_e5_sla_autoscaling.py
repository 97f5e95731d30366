"""E5 — latency-SLA attainment through a write-heavy event spike.

Section 2.1 singles out event spikes (the post-Halloween photo surge) as
"particularly interesting, and difficult, because they involve a significant
percentage of writes".  This benchmark drives the system with a write-heavy
spike on top of a baseline and compares the declared latency SLA's attainment
and the scaling behaviour for the autoscaled system vs. a static cluster
sized for the baseline.
"""

from __future__ import annotations

from repro.experiments.harness import run_closed_loop, smoke_mode, smoke_scaled
from repro.workloads.traces import HalloweenSpikeTrace

_SCALE = smoke_scaled(1.0, 0.1)  # BENCH_SMOKE compresses the whole timeline
TRACE = HalloweenSpikeTrace(
    base_rate=15.0, spike_multiplier=5.0,
    spike_start=600.0 * _SCALE, rise_duration=180.0 * _SCALE,
    hold_duration=900.0 * _SCALE, decay_duration=600.0 * _SCALE,
)
DURATION = 3000.0 * _SCALE


def run_experiment():
    autoscaled = run_closed_loop(TRACE, DURATION, seed=13, n_users=150,
                                 autoscale=True, mix_kind="write_heavy",
                                 initial_groups=1)
    static = run_closed_loop(TRACE, DURATION, seed=13, n_users=150,
                             autoscale=False, mix_kind="write_heavy",
                             initial_groups=1)
    return autoscaled, static


def test_e5_sla_autoscaling_through_spike(benchmark, table_printer):
    autoscaled, static = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for label, result in (("SCADS autoscaled", autoscaled), ("static baseline", static)):
        summary = result.summary()
        rows.append((
            label, summary["peak_nodes"], summary["read_p_latency_ms"],
            summary["read_sla_met"], summary["write_p_latency_ms"],
            summary["deadline_miss_rate"], summary["dollars"],
        ))
    table_printer(
        "E5 — write-heavy spike: SLA attainment and scaling",
        ["system", "peak nodes", "99th pct read (ms)", "read SLA met",
         "99th pct write (ms)", "maintenance deadline miss rate", "dollars"],
        rows,
    )
    if smoke_mode():
        return  # smoke sweeps check the loop runs; the economics need full time
    assert autoscaled.scale_ups >= 1
    assert (autoscaled.read_report.observed_percentile_latency
            < static.read_report.observed_percentile_latency)
    assert autoscaled.deadline_miss_rate <= static.deadline_miss_rate
