"""Tests for the parallel experiment fabric (repro.parallel).

Correctness contract under test:

* **Determinism** — the same expanded grid produces byte-identical per-run
  results under ``workers=1`` and ``workers=4``: identical operation counts,
  SLA reports, and percentile snapshots, because every run is a pure function
  of (scenario spec, seed) and seeds are assigned at expansion time from
  ``SeedSequence(base_seed).spawn``.
* **Failure isolation** — one poisoned spec becomes one structured
  :class:`RunFailure` (with the traceback); sibling runs are unaffected.
* **Mergeability** — merged per-cell reports match what a single estimator
  fed the concatenated samples would report.
* **Transportability** — run summaries survive pickling (the cross-process
  contract the pool relies on).
"""

from __future__ import annotations

import pickle
from dataclasses import fields

import pytest

from repro.experiments.harness import run_closed_loop
from repro.parallel.executor import execute_run, run_sweep
from repro.parallel.results import RunFailure, RunSuccess
from repro.parallel.scenarios import STANDARD_SUITE
from repro.parallel.spec import (
    FaultSpec,
    RunSpec,
    ScenarioSpec,
    SweepGrid,
    TraceSpec,
    derive_seeds,
)

pytestmark = pytest.mark.tier1


def tiny_scenario(**overrides) -> ScenarioSpec:
    """A seconds-long scenario cheap enough for tier-1 process-pool tests."""
    base = ScenarioSpec(
        name="tiny",
        trace=TraceSpec("constant", {"rate": 20.0}),
        duration=12.0,
        n_users=30,
        friend_cap=8,
        initial_groups=2,
        control_interval=6.0,
    )
    return base.with_overrides(**overrides) if overrides else base


def smoke_grid(runs: int, duration: float, rate: float, base_seed: int = 0) -> SweepGrid:
    """Seeded replicates of a seconds-long closed loop as one single-cell grid."""
    scenario = ScenarioSpec(name="smoke", trace=TraceSpec("constant", {"rate": rate}),
                            duration=duration, n_users=40, friend_cap=10,
                            initial_groups=2, control_interval=10.0)
    return SweepGrid(scenario=scenario, replicates=runs, base_seed=base_seed)


# ------------------------------------------------------------- spec expansion


class TestSweepExpansion:
    def test_grid_is_one_cell_times_replicates(self):
        scenario = tiny_scenario()
        runs = SweepGrid(scenario=scenario, replicates=3, base_seed=5).expand()
        assert [run.run_id for run in runs] == ["tiny#r0", "tiny#r1", "tiny#r2"]
        assert {run.cell for run in runs} == {"tiny"}
        assert [run.replicate for run in runs] == [0, 1, 2]
        assert [run.seed for run in runs] == derive_seeds(5, 3)
        assert all(run.scenario is scenario for run in runs)
        with pytest.raises(ValueError, match="replicates"):
            SweepGrid(scenario=scenario, replicates=0)

    def test_engine_knob_override_reaches_the_knob_dict(self):
        # Overrides land in the right layer: a field, a trace parameter, a knob.
        spec = tiny_scenario(**{"n_users": 60, "trace.rate": 10.0,
                                "engine_knobs.cache": False})
        assert spec.n_users == 60
        assert spec.trace.params["rate"] == 10.0
        assert spec.engine_knobs == {"cache": False}
        assert spec.with_overrides(**{"engine_knobs.cache": True}).engine_knobs \
            == {"cache": True}

    def test_unknown_parameter_rejected_at_expansion(self):
        with pytest.raises(ValueError, match="no_such_knob"):
            tiny_scenario(no_such_knob=1)

    def test_seeds_depend_only_on_base_seed_and_index(self):
        seeds_a = derive_seeds(7, 6)
        seeds_b = derive_seeds(7, 6)
        assert seeds_a == seeds_b
        assert len(set(seeds_a)) == len(seeds_a)  # spawn children are distinct
        assert derive_seeds(8, 6) != seeds_a
        # A run keeps its seed whether or not later runs exist.
        assert derive_seeds(7, 3) == seeds_a[:3]

    def test_replicates_of_one_cell_get_distinct_seeds(self):
        runs = SweepGrid(scenario=tiny_scenario(), replicates=4).expand()
        assert len({run.seed for run in runs}) == 4

    def test_overrides_do_not_mutate_the_base_scenario(self):
        base = tiny_scenario()
        changed = base.with_overrides(**{"trace.rate": 99.0,
                                         "engine_knobs.cache": True})
        assert base.trace.params["rate"] == 20.0
        assert base.engine_knobs == {}
        assert changed.trace.params["rate"] == 99.0

    def test_standard_suite_scenarios_all_expand(self):
        for scenario in STANDARD_SUITE:
            runs = SweepGrid(scenario=scenario, replicates=2).expand()
            assert len(runs) == 2
            assert runs[0].scenario.trace.build().rate_at(0.0) >= 0.0


# -------------------------------------------------------- executor determinism


class TestSweepDeterminism:
    def test_workers_1_vs_4_identical_per_run_results(self):
        """The acceptance bar: per-run op counts and percentile snapshots are
        identical whatever the worker count."""
        grid = smoke_grid(runs=4, base_seed=3, duration=10.0, rate=25.0)
        serial = run_sweep(grid, workers=1)
        pooled = run_sweep(grid, workers=4)
        assert len(serial.records) == len(pooled.records) == 4
        for a, b in zip(serial.records, pooled.records):
            assert isinstance(a, RunSuccess) and isinstance(b, RunSuccess)
            assert a.run_id == b.run_id and a.seed == b.seed
            assert a.summary.operations == b.summary.operations
            assert a.summary.operation_counts == b.summary.operation_counts
            assert a.summary.read_report == b.summary.read_report
            assert a.summary.write_report == b.summary.write_report
            assert a.summary.read_latency.snapshot() == b.summary.read_latency.snapshot()
            assert a.summary.cost.dollars == b.summary.cost.dollars

    def test_progress_streams_every_completion(self):
        grid = smoke_grid(runs=3, duration=5.0, rate=10.0)
        seen = []
        run_sweep(grid, workers=2,
                  progress=lambda done, total, record: seen.append((done, total,
                                                                    record.ok)))
        assert [done for done, _, _ in seen] == [1, 2, 3]
        assert all(total == 3 and ok for _, total, ok in seen)

    def test_merged_cell_percentiles_match_concatenated_samples(self):
        import numpy as np

        grid = smoke_grid(runs=3, base_seed=5, duration=10.0, rate=25.0)
        result = run_sweep(grid, workers=1)
        report = result.cell_reports()[0]
        merged = report.read_latency
        # Ground truth: one estimator fed the concatenation of all runs' read
        # latencies (reconstructed from the per-run estimators' raw samples).
        all_samples = np.concatenate(
            [r.summary.read_latency._merged() for r in result.records])
        assert merged.percentile(99.0) == pytest.approx(
            float(np.percentile(all_samples, 99.0)))
        assert report.read_report.observed_percentile_latency == pytest.approx(
            merged.percentile(report.read_report.target_percentile))
        assert report.runs == 3
        assert report.cost.requests_served == sum(
            r.summary.cost.requests_served for r in result.records)


# ---------------------------------------------------------- failure isolation


class TestFailureIsolation:
    def poisoned_runs(self):
        good = smoke_grid(runs=3, base_seed=1, duration=6.0, rate=15.0).expand()
        poison = RunSpec(
            run_id="poison#r0", cell="poison", replicate=0, seed=good[1].seed,
            scenario=tiny_scenario().with_overrides(
                trace=TraceSpec("no-such-trace", {})),
        )
        return [good[0], poison, good[2]]

    def test_poisoned_spec_yields_error_record_and_spares_siblings(self):
        records = run_sweep(self.poisoned_runs(), workers=2).records
        assert [r.ok for r in records] == [True, False, True]
        failure = records[1]
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "ValueError"
        assert "no-such-trace" in failure.message
        assert "Traceback" in failure.traceback
        # Siblings match a run of the same specs without the poison present.
        clean = run_sweep([self.poisoned_runs()[0]], workers=1).records[0]
        assert clean.summary.operations == records[0].summary.operations

    def test_inline_execution_isolates_failures_identically(self):
        records = run_sweep(self.poisoned_runs(), workers=1).records
        assert [r.ok for r in records] == [True, False, True]
        assert records[1].error_type == "ValueError"

    def test_execute_run_never_raises(self):
        bad = RunSpec(run_id="bad#r0", cell="bad", replicate=0, seed=0,
                      scenario=tiny_scenario(mix="no-such-mix"))
        record = execute_run(bad)
        assert isinstance(record, RunFailure)
        assert "no-such-mix" in record.message

    def test_all_failed_cell_skipped_in_cell_reports(self):
        result = run_sweep([self.poisoned_runs()[1]], workers=1)
        assert result.cell_reports() == []
        assert len(result.failures) == 1


# ------------------------------------------------------------ transportability


class TestPortableSummaries:
    def test_run_records_pickle_roundtrip(self):
        grid = smoke_grid(runs=1, duration=5.0, rate=10.0)
        record = run_sweep(grid, workers=1).records[0]
        clone = pickle.loads(pickle.dumps(record))
        assert clone.summary.operations == record.summary.operations
        assert clone.summary.read_latency.snapshot() == \
            record.summary.read_latency.snapshot()
        assert clone.summary.read_report == record.summary.read_report

    # The scorer's fields: the grid judges a finished run by them, the
    # harness never sees them.
    POLICY_FIELDS = {"name", "sla_violation_budget", "sla_write_violation_budget",
                     "sla_ops", "sla_reattain_windows", "sla_min_window_ops"}
    # Every other field, with a non-default value and where a run shows it
    # (each probe reads the run's summary, engine and app).
    HARNESS_FIELDS = {
        "trace": (TraceSpec("constant", {"rate": 40.0}), lambda s, e, a: s.operations > 300),
        "duration": (6.0, lambda s, e, a: s.duration),
        "n_users": (50, lambda s, e, a: e.get("profiles", ("u00000049",)).row is not None),
        "friend_cap": (5, lambda s, e, a: a.friend_cap),
        "mix": ("uniform_read", lambda s, e, a: s.operation_counts["write"]),
        "sla_latency": (0.3, lambda s, e, a: e.spec.performance.latency),
        "sla_percentile": (95.0, lambda s, e, a: e.spec.performance.percentile),
        "staleness_bound": (30.0, lambda s, e, a: e.spec.read.staleness_bound),
        "read_your_writes": (True, lambda s, e, a: e.spec.session.read_your_writes),
        "autoscale": (False, lambda s, e, a: e.autoscale),
        "predictive_scaling": (False, lambda s, e, a: e.controller.predictive),
        "initial_groups": (3, lambda s, e, a: len(e.cluster.groups)),
        "control_interval": (4.0, lambda s, e, a: e.controller.control_interval),
        "sampling_fraction": (0.25, lambda s, e, a: s.operations > 100),
        "engine_knobs": ({"cache": False}, lambda s, e, a: e.cache is not None),
        "faults": ((FaultSpec("zone_outage", at=2.0, duration=100.0,
                              params={"zone_index": 1}),),
                   lambda s, e, a: all(n.alive for n in e.cluster.nodes.values())),
    }

    def test_run_closed_loop_honours_every_spec_field(self):
        """No spec field is dropped on the way to the harness: each one, set
        to a non-default value, yields a run that differs where it should."""
        assert set(self.HARNESS_FIELDS) | self.POLICY_FIELDS == \
            {f.name for f in fields(ScenarioSpec)}
        plain = run_closed_loop(tiny_scenario(), 2)
        for name, (value, probe) in self.HARNESS_FIELDS.items():
            configured = run_closed_loop(tiny_scenario(**{name: value}), 2)
            assert probe(*configured) != probe(*plain), name

    def test_unknown_kinds_name_their_registry(self):
        for override, registered in (({"mix": "no-such-mix"}, "uniform_read"),
                                     ({"trace": TraceSpec("no-such-trace")}, "flash_crowd"),
                                     ({"faults": (FaultSpec("no-such-fault", at=1.0,
                                                            duration=1.0),)},
                                      "host_degradation")):
            with pytest.raises(ValueError, match=registered):
                run_closed_loop(tiny_scenario(**override), 2)

    def test_cell_rescoring_against_alternative_sla_targets(self):
        grid = smoke_grid(runs=2, base_seed=4, duration=8.0, rate=20.0)
        report = run_sweep(grid, workers=1).cell_reports()[0]
        # The merged samples re-score the cell against any latency target:
        # attainment is monotone in the target and hits 1.0 at the max.
        loose = report.read_latency.fraction_at_or_below(report.read_latency.max())
        tight = report.read_latency.fraction_at_or_below(report.read_latency.percentile(50))
        assert loose == 1.0
        assert 0.0 < tight <= loose
