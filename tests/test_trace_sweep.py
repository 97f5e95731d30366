"""Sweep-fabric observability: each run's payloads cross worker processes.

The observability payloads (telemetry snapshot, trace list, decision
timeline) ride back from sweep workers inside the picklable
``ClosedLoopSummary``, one per run, in run-index order -- so every run's
payloads must be identical no matter how many processes executed the runs.
These runs are seconds long: the point is the transport, not the scenario.
"""

from __future__ import annotations

import pickle

import pytest

from repro.parallel.executor import run_sweep
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
        assert restored.telemetry == summary.telemetry
        assert trace_keys(restored.traces) == trace_keys(summary.traces)

    def test_merged_cell_identical_across_worker_counts(self):
        serial = run_sweep(traced_grid(), workers=1)
        pooled = run_sweep(traced_grid(), workers=4)
        assert not serial.failures and not pooled.failures
        (a,), (b,) = serial.cell_reports(), pooled.cell_reports()
        assert (a.runs, a.read_report, a.write_report, a.cost) \
            == (b.runs, b.read_report, b.write_report, b.cost)
        # ... and so is every run's observability payload.
        assert len(serial.records) == len(pooled.records) == 2
        for a, b in zip(serial.records, pooled.records):
            assert a.run_id == b.run_id
            a, b = a.summary, b.summary
            assert a.telemetry == b.telemetry
            assert trace_keys(a.traces) == trace_keys(b.traces)
            assert a.decision_timeline.snapshot() == b.decision_timeline.snapshot()

    def test_untraced_sweep_carries_no_payloads(self):
        grid = traced_grid(replicates=1)
        grid.scenario.engine_knobs = {}
        result = run_sweep(grid, workers=1)
        assert not result.failures
        summary = result.records[0].summary
        assert summary.telemetry is None
        assert summary.traces is None
        # The decision log is kept without telemetry: it is not a payload.
        assert summary.decision_timeline.decisions
