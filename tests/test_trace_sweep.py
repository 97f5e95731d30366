"""Sweep-fabric observability: traces and telemetry merge across workers.

The observability payloads (telemetry registry, trace list, decision
timeline) ride back from sweep workers inside the picklable
``ClosedLoopSummary`` and are merged per grid cell in run-index order —
so the merged result must be identical no matter how many processes
executed the runs.  These runs are seconds long: the point is the merge
machinery, not the scenario.
"""

from __future__ import annotations

import pickle

import pytest

from repro.parallel.executor import run_sweep
from repro.parallel.results import (
    merge_telemetry,
    merge_timelines,
    merge_traces,
)
from repro.parallel.spec import ScenarioSpec, SweepGrid, TraceSpec

pytestmark = pytest.mark.tier1


def traced_grid(replicates: int = 2, base_seed: int = 11) -> SweepGrid:
    scenario = ScenarioSpec(
        name="traced-smoke",
        trace=TraceSpec("constant", {"rate": 30.0}),
        duration=20.0,
        n_users=40,
        friend_cap=10,
        initial_groups=2,
        control_interval=10.0,
        engine_knobs={"telemetry": True},
    )
    return SweepGrid(scenario=scenario, replicates=replicates,
                     base_seed=base_seed)


def trace_keys(traces):
    return [(t.trace_id, t.op, round(t.start, 9), t.latency, t.success,
             len(t.spans)) for t in traces]


class TestSweepObservability:
    def test_summaries_carry_observability_payloads(self):
        result = run_sweep(traced_grid(replicates=1), workers=1)
        assert not result.failures
        summary = result.records[0].summary
        assert summary.telemetry is not None
        assert summary.traces and all(t.reconciles() for t in summary.traces)
        assert summary.decision_timeline is not None
        # The whole summary (payloads included) survives a pickle cycle, as
        # it must to cross the worker process boundary.
        restored = pickle.loads(pickle.dumps(summary))
        assert restored.telemetry.snapshot() == summary.telemetry.snapshot()
        assert trace_keys(restored.traces) == trace_keys(summary.traces)

    def test_merged_cell_identical_across_worker_counts(self):
        serial = run_sweep(traced_grid(), workers=1)
        pooled = run_sweep(traced_grid(), workers=4)
        assert not serial.failures and not pooled.failures
        a = serial.cell_reports()[0]
        b = pooled.cell_reports()[0]
        assert a.telemetry.snapshot() == b.telemetry.snapshot()
        assert trace_keys(a.traces) == trace_keys(b.traces)
        assert a.decision_timeline.snapshot() == b.decision_timeline.snapshot()
        # The merged report itself remains picklable (for result archives).
        restored = pickle.loads(pickle.dumps(a))
        assert restored.telemetry.snapshot() == a.telemetry.snapshot()

    def test_merged_telemetry_equals_per_run_sums(self):
        result = run_sweep(traced_grid(), workers=1)
        assert not result.failures
        summaries = [record.summary for record in result.records]
        merged = merge_telemetry([s.telemetry for s in summaries])
        for name in ("engine.read.ops", "engine.write.ops", "router.read"):
            assert merged.counters[name] == sum(
                s.telemetry.counters[name] for s in summaries)
        # Histograms union exactly: merged count is the sum of run counts.
        assert len(merged.histogram("engine.read.latency")) == sum(
            len(s.telemetry.histogram("engine.read.latency"))
            for s in summaries)
        traces = merge_traces([s.traces for s in summaries])
        assert len(traces) == sum(len(s.traces) for s in summaries)
        timeline = merge_timelines([s.decision_timeline for s in summaries])
        assert len(timeline.decisions) == sum(
            len(s.decision_timeline.decisions) for s in summaries)

    def test_merge_helpers_absent_payloads(self):
        assert merge_telemetry([None, None]) is None
        assert merge_traces([None]) is None
        assert merge_timelines([]).snapshot() == {"decisions": [], "events": []}

    def test_untraced_sweep_merges_to_none(self):
        grid = traced_grid(replicates=1)
        grid.scenario.engine_knobs = {}
        result = run_sweep(grid, workers=1)
        assert not result.failures
        report = result.cell_reports()[0]
        assert report.telemetry is None
        assert report.traces is None
        # The decision log is kept without telemetry: it is not a payload.
        assert report.decision_timeline.decisions
