"""E11 — ablation of the machine-learning forecaster and planner backends.

Section 3.3.2 argues model-driven provisioning can add machines *before*
SLAs are endangered.  This benchmark compares three controllers on the same
viral-growth trace: predictive (ML forecast), reactive (same loop but acting
only on the current observation), and static (no scaling), reporting SLA
attainment, peak capacity, and cost.

A second ablation compares the planner's latency-sizing backends head to
head on the same trace — ``analytical`` (closed-form M/G/k), ``ml``
(learned model, the pre-clamp behaviour), and ``hybrid`` (analytical
backbone + bounded ML residual, the default) — and audits every hybrid
:class:`~repro.core.provisioning.planner.CapacityPlan` against the clamp
band.
"""

from __future__ import annotations

from repro.core.provisioning.planner import PLANNER_BACKENDS, hybrid_band
from repro.experiments.harness import run_closed_loop, smoke_mode, smoke_scaled
from repro.parallel.spec import ScenarioSpec, TraceSpec

_SCALE = smoke_scaled(1.0, 0.1)  # BENCH_SMOKE compresses the whole timeline
SCENARIO = ScenarioSpec(
    name="e11-ml-ablation",
    trace=TraceSpec("viral", {"start_rate": 15.0, "peak_multiplier": 14.0,
                              "ramp_start": 240.0 * _SCALE,
                              "ramp_duration": 1500.0 * _SCALE}),
    duration=2100.0 * _SCALE,
    n_users=150,
)


def run_experiment():
    predictive, _, _ = run_closed_loop(SCENARIO, 29)
    reactive, _, _ = run_closed_loop(SCENARIO.with_overrides(predictive_scaling=False), 29)
    static, _, _ = run_closed_loop(SCENARIO.with_overrides(autoscale=False), 29)
    return predictive, reactive, static


def test_e11_predictive_vs_reactive_vs_static(benchmark, table_printer):
    predictive, reactive, static = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for label, result in (("predictive (ML forecast)", predictive),
                          ("reactive (no forecast)", reactive),
                          ("static", static)):
        rows.append((
            label, result.peak_nodes,
            f"{result.read_report.observed_percentile_latency * 1000:.1f}",
            f"{result.read_report.observed_fraction_within:.4f}",
            result.read_report.satisfied,
            f"{result.cost.dollars:.2f}",
        ))
    table_printer(
        "E11 — provisioning policy ablation on viral growth",
        ["policy", "peak nodes", "99th pct read (ms)", "fraction within target",
         "SLA met", "dollars"],
        rows,
    )
    # Any scaling beats none; the forecast keeps attainment at least as good
    # as reacting after the fact.
    if smoke_mode():
        return  # smoke sweeps check the loop runs; the ablation needs full time
    assert (predictive.read_report.observed_percentile_latency
            < static.read_report.observed_percentile_latency)
    assert (predictive.read_report.observed_fraction_within
            >= reactive.read_report.observed_fraction_within - 0.01)
    assert predictive.peak_nodes >= reactive.peak_nodes


def run_backend_ablation():
    return {
        backend: run_closed_loop(
            SCENARIO.with_overrides(engine_knobs={"planner_backend": backend}), 29)
        for backend in PLANNER_BACKENDS
    }


def test_e11_planner_backend_ablation(benchmark, table_printer):
    results = benchmark.pedantic(run_backend_ablation, rounds=1, iterations=1)
    summaries = {backend: summary for backend, (summary, _, _) in results.items()}
    rows = []
    for backend in PLANNER_BACKENDS:
        result = summaries[backend]
        rows.append((
            backend, result.peak_nodes,
            f"{result.read_report.observed_percentile_latency * 1000:.1f}",
            f"{result.read_report.observed_fraction_within:.4f}",
            result.read_report.satisfied,
            f"{result.cost.dollars:.2f}",
        ))
    table_printer(
        "E11 — planner backend ablation (analytical vs ml vs hybrid)",
        ["backend", "peak nodes", "99th pct read (ms)", "fraction within target",
         "SLA met", "dollars"],
        rows,
    )
    # Structural invariant, checked even in smoke mode: every plan the hybrid
    # controller emitted kept the latency requirement inside the clamp band
    # of the analytical answer (the planner's min_nodes floor aside).
    _, hybrid, _ = results["hybrid"]
    plans = hybrid.controller.plans()
    assert plans, "hybrid run emitted no capacity plans"
    min_nodes = hybrid.planner.min_nodes
    for plan in plans:
        assert plan.backend == "hybrid"
        assert plan.analytic_nodes is not None
        low, high = hybrid_band(plan.analytic_nodes)
        assert (min(low, min_nodes)
                <= plan.latency_required_nodes
                <= max(high, min_nodes)), plan.describe()
    if smoke_mode():
        return  # smoke sweeps check the loop runs; economics need full time
    # The hybrid backbone must not cost materially more than pure analytical,
    # and the bounded residual keeps it orders of magnitude from the
    # pre-clamp runaway regime (renting toward the pool cap).
    assert summaries["hybrid"].peak_nodes <= 3 * summaries["analytical"].peak_nodes
    for backend in PLANNER_BACKENDS:
        assert summaries[backend].read_report.request_count > 0
