"""The default-on validation grid: expansion, verdicts, and the flipped defaults.

Three things are under test here.  First, the grid machinery itself: paired
seeding across configuration cells, smoke-recipe coverage of the corpus, and
the verdict being a pure function of the sweep result (identical at any
worker count).  Second, the engine's flipped defaults: ``Scads()`` with no
arguments now constructs with repartitioning and the cache tier on, and the
explicit opt-outs round-trip.  Third, the regression the flip must not
introduce: session guarantees (read-your-writes, monotonic reads) must hold
on a default-constructed engine even while the rebalancer's live migration
is moving the session's keys.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache.tier import CacheConfig, CacheTier
from repro.core.consistency import ConsistencySpec, SessionGuarantee
from repro.core.engine import Scads
from repro.core.schema import EntitySchema, Field
from repro.parallel.executor import run_sweep
from repro.parallel.grid import (
    CONFIG_CELLS,
    build_grid_runs,
    evaluate_grid,
    grid_scenarios,
    render_verdict_table,
)
from repro.parallel.scenarios import STANDARD_SUITE, smoke_variant

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.tier1


# ------------------------------------------------------------- grid expansion


class TestGridExpansion:
    def test_every_replicate_seed_is_shared_across_the_four_configs(self):
        runs = build_grid_runs(replicates=2)
        seeds = {}
        for run in runs:
            key = (run.cell.split("/")[0], run.replicate)
            seeds.setdefault(key, set()).add(run.seed)
        # Paired experiment: one seed per (scenario, replicate), shared by
        # baseline/repartition/cache/both.
        assert all(len(cell_seeds) == 1 for cell_seeds in seeds.values())
        # ...but scenarios (and replicates) draw distinct seeds.
        distinct = {next(iter(s)) for s in seeds.values()}
        assert len(distinct) == len(seeds)

    def test_filtering_the_corpus_preserves_per_scenario_seeds(self):
        full = build_grid_runs(replicates=2)
        only = build_grid_runs(
            scenarios=grid_scenarios(names=["regional-failover"]), replicates=2)
        wanted = [r for r in full if r.cell.startswith("regional-failover/")]
        assert [(r.run_id, r.seed) for r in only] == \
            [(r.run_id, r.seed) for r in wanted]

    def test_a_scenario_outside_the_corpus_seeds_the_same_in_every_process(self):
        # Its seed comes from a hash of its name; ``hash()`` of a str is
        # salted per process, so that hash must be a stable one.
        code = ("from repro.parallel.grid import build_grid_runs\n"
                "from repro.parallel.scenarios import STANDARD_SUITE\n"
                "spec = STANDARD_SUITE[0].with_overrides(name='renamed-smoke')\n"
                "print([run.seed for run in build_grid_runs([spec], replicates=2)])\n")
        seeds = [
            subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           text=True, env={**os.environ, "PYTHONHASHSEED": hash_seed,
                                           "PYTHONPATH": str(SRC)}).stdout
            for hash_seed in ("1", "2")
        ]
        assert seeds[0] == seeds[1]

    def test_config_cells_pin_both_knobs_explicitly(self):
        runs = build_grid_runs(scenarios=grid_scenarios(names=["standard-closed-loop"]))
        knobs = {run.cell.split("/")[1]: run.scenario.engine_knobs for run in runs}
        assert knobs["baseline"]["cache"] is False
        assert knobs["baseline"]["repartition"] is False
        assert knobs["both"]["cache"] is True
        assert knobs["both"]["repartition"] is True
        assert all(set(k) >= {"cache", "repartition"} for k in knobs.values())

    def test_no_two_corpus_scenarios_are_equal_under_every_cell(self):
        for i, first in enumerate(STANDARD_SUITE):
            for second in STANDARD_SUITE[i + 1:]:
                assert any(
                    first.with_overrides(name="x", **overrides)
                    != second.with_overrides(name="x", **overrides)
                    for overrides in CONFIG_CELLS.values()
                ), (first.name, second.name)

    def test_grid_seeds_are_pinned(self):
        # The grid seeds are part of every grid fingerprint: these are the
        # values the runs had before the cells went through SweepGrid.expand.
        pinned = {
            "standard-closed-loop": [1247148256451459311, 1833474909210205599],
            "write-heavy": [15514177504443620650, 11837761629387765858],
            "diurnal-scale-down": [17637719132235393954, 6275066562878893250],
        }
        runs = build_grid_runs(replicates=2, base_seed=7)
        for name, seeds in pinned.items():
            for config in CONFIG_CELLS:
                cell = f"{name}/{config}"
                assert [(run.run_id, run.seed) for run in runs if run.cell == cell] \
                    == [(f"{cell}#r{replicate}", seed) for replicate, seed in enumerate(seeds)]

    def test_a_deleted_scenario_does_not_move_the_later_seeds(self):
        # Values from before the cache-tier scenario (corpus position 5) went.
        pinned = {
            "diurnal-flash-crowd": [16873908462715126031, 11164801412611598087],
            "noisy-neighbor-episode": [11069158524112443495, 5759932313109111284],
        }
        runs = build_grid_runs(replicates=2, base_seed=7)
        for name, seeds in pinned.items():
            assert [run.seed for run in runs if run.cell == f"{name}/baseline"] == seeds

    def test_every_corpus_scenario_has_a_smoke_recipe(self):
        for spec in STANDARD_SUITE:
            smoke = smoke_variant(spec)
            assert smoke.duration <= 60.0, spec.name
            assert smoke.n_users == 40
            # A fault scenario's smoke variant must still inject its fault
            # inside the shortened window.
            for fault in smoke.faults:
                assert fault.at < smoke.duration, spec.name

    def test_unknown_scenario_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown scenarios"):
            grid_scenarios(names=["no-such-scenario"])


# ------------------------------------- verdict identity across worker counts


def _tiny_corpus():
    """Two smoke scenarios shrunk further: one plain, one fault-injected."""
    plain = smoke_variant(STANDARD_SUITE[0]).with_overrides(
        duration=10.0, **{"trace.rate": 20.0})
    failover = next(smoke_variant(s) for s in STANDARD_SUITE
                    if s.name == "regional-failover")
    failover = failover.with_overrides(duration=16.0, **{"trace.rate": 15.0})
    return [plain, failover]


class TestVerdictIdentityAcrossWorkers:
    def test_verdict_identical_at_one_and_four_workers(self):
        corpus = _tiny_corpus()
        runs = build_grid_runs(scenarios=corpus, base_seed=3)
        serial = run_sweep(list(runs), workers=1)
        pooled = run_sweep(list(runs), workers=4)
        verdict_serial = evaluate_grid(serial, corpus, smoke=True)
        verdict_pooled = evaluate_grid(pooled, corpus, smoke=True)
        assert render_verdict_table(verdict_serial) == \
            render_verdict_table(verdict_pooled)
        for a, b in zip(verdict_serial.cells, verdict_pooled.cells):
            assert [(c.name, c.passed, c.detail) for c in a.checks] == \
                [(c.name, c.passed, c.detail) for c in b.checks]
            assert (a.stale_reads, a.max_replication_lag) == \
                (b.stale_reads, b.max_replication_lag)

    def test_verdict_covers_every_expected_cell(self):
        corpus = _tiny_corpus()
        runs = build_grid_runs(scenarios=corpus, base_seed=3)
        verdict = evaluate_grid(run_sweep(runs, workers=1), corpus,
                                smoke=True)
        cells = {cell.cell for cell in verdict.cells}
        assert cells == {f"{spec.name}/{config}"
                         for spec in corpus for config in CONFIG_CELLS}


# ------------------------------------------------- flipped engine defaults


class TestDefaultOnConstruction:
    def test_no_arg_construction_enables_repartition_and_cache(self):
        engine = Scads(seed=0, autoscale=False)
        assert engine.repartition is True
        assert engine.rebalancer is not None
        assert isinstance(engine.cache, CacheTier)

    def test_opt_outs_round_trip(self):
        no_cache = Scads(seed=0, autoscale=False, cache=False)
        assert no_cache.cache is None
        assert no_cache.rebalancer is not None  # the other default stays on
        no_repart = Scads(seed=0, autoscale=False, repartition=False)
        assert no_repart.rebalancer is None
        assert no_repart.cache is not None
        seed_shape = Scads(seed=0, autoscale=False, cache=False,
                           repartition=False)
        assert seed_shape.cache is None and seed_shape.rebalancer is None

    def test_explicit_cache_config_is_honoured(self):
        config = CacheConfig(capacity=7)
        engine = Scads(seed=0, autoscale=False, cache=config)
        assert engine.cache is not None
        assert engine.cache.config.capacity == 7


# ---------------------- session guarantees under the defaults, mid-migration


def _default_engine(spec: ConsistencySpec, seed: int) -> Scads:
    """A default-on engine (cache + repartition) with a migratable keyspace."""
    engine = Scads(seed=seed, consistency=spec, autoscale=False,
                   initial_groups=2, partitioner_kind="range")
    engine.register_entity(EntitySchema(
        "profiles", key_fields=[Field("user_id")], value_fields=[Field("bio")]))
    return engine


class TestSessionGuaranteesSurviveTheFlip:
    def test_read_your_writes_holds_while_the_written_key_migrates(self):
        spec = ConsistencySpec(session=SessionGuarantee(read_your_writes=True))
        engine = _default_engine(spec, seed=31)
        engine.sessions.open("alice")
        engine.put("profiles", {"user_id": "alice", "bio": "v1"},
                   session_id="alice")
        # Live-migrate the partition holding the fresh write to the other
        # group before replication has settled anywhere.
        home = engine.cluster.partitioner.group_for_key("profiles", ("alice",))
        target = [gid for gid in engine.cluster.groups if gid != home]
        engine.cluster.split_partition("alice")
        engine.cluster.migrate_partition("alice", target[0])
        for _ in range(10):
            outcome = engine.get("profiles", ("alice",), session_id="alice")
            assert outcome.success and outcome.row is not None
            assert outcome.row["bio"] == "v1"

    def test_monotonic_reads_never_regress_during_migration(self):
        spec = ConsistencySpec(session=SessionGuarantee(monotonic_reads=True))
        engine = _default_engine(spec, seed=32)
        engine.sessions.open("bob")
        versions = []
        for i in range(4):
            engine.put("profiles", {"user_id": "bob", "bio": f"v{i}"})
            engine.settle(2.0)
            if i == 1:
                home = engine.cluster.partitioner.group_for_key(
                    "profiles", ("bob",))
                target = [gid for gid in engine.cluster.groups
                          if gid != home]
                engine.cluster.split_partition("bob")
                engine.cluster.migrate_partition("bob", target[0])
            outcome = engine.get("profiles", ("bob",), session_id="bob")
            if outcome.success and outcome.row is not None:
                versions.append(int(outcome.row["bio"][1:]))
        assert versions == sorted(versions), "monotonic reads regressed"
        assert versions, "no successful session reads"


# ----------------------------------------- the windowed SLA policy gate


def _record(windows):
    """A RunSuccess stand-in: the policy check only reads summary windows."""
    from types import SimpleNamespace

    return SimpleNamespace(summary=SimpleNamespace(
        read_windows=list(windows), write_windows=[]))


def _report(satisfied=True, observed=0.050):
    from types import SimpleNamespace

    read = SimpleNamespace(target_percentile=99.0, target_latency=0.150,
                           satisfied=satisfied,
                           observed_percentile_latency=observed)
    return SimpleNamespace(read_report=read, write_report=read)


def _window(start, total=100, within=100):
    from repro.metrics.sla import ComplianceWindow

    return ComplianceWindow(start=start, total=total, within=within)


class TestPolicySlaCheck:
    """Unit tests of the per-cell windowed policy evaluation."""

    def _spec(self, **overrides):
        return STANDARD_SUITE[0].with_overrides(**overrides)

    def _check(self, spec, windows_per_run, report=None):
        from repro.parallel.grid import _policy_sla_check

        successes = [_record(w) for w in windows_per_run]
        return _policy_sla_check(spec, successes, report or _report(), "read")

    def test_violations_within_budget_pass(self):
        spec = self._spec(sla_violation_budget=0.30, sla_reattain_windows=2)
        windows = [_window(0.0), _window(60.0, within=50),  # violated
                   _window(120.0), _window(180.0)]
        passed, detail, compliance = self._check(spec, [windows])
        assert passed
        assert compliance == "1/4w"

    def test_budget_bust_fails(self):
        spec = self._spec(sla_violation_budget=0.10, sla_reattain_windows=1)
        windows = [_window(0.0, within=50), _window(60.0, within=50),
                   _window(120.0), _window(180.0)]
        passed, detail, _ = self._check(spec, [windows])
        assert not passed
        assert "budget" in detail

    def test_terminal_violation_streak_fails_reattainment(self):
        spec = self._spec(sla_violation_budget=0.50, sla_reattain_windows=2)
        windows = [_window(0.0), _window(60.0),
                   _window(120.0, within=50),
                   _window(180.0, within=50)]  # 2 violated into the end
        passed, detail, compliance = self._check(spec, [windows])
        assert not passed
        assert "NOT re-attained" in detail
        assert compliance.endswith("!")

    def test_single_final_violated_window_is_budget_not_reattainment(self):
        # A run cut off mid-disturbance (one violated window at the end,
        # streak shorter than sla_reattain_windows) charges the budget.
        spec = self._spec(sla_violation_budget=0.50, sla_reattain_windows=2)
        windows = [_window(0.0), _window(60.0), _window(120.0),
                   _window(180.0, within=50)]
        passed, detail, compliance = self._check(spec, [windows])
        assert passed
        assert "re-attained" in detail and "NOT" not in detail
        assert compliance == "1/4w"

    def test_low_traffic_windows_are_skipped(self):
        spec = self._spec(sla_violation_budget=0.0, sla_min_window_ops=20)
        # The violated window carries 5 requests: drain-tail noise, skipped.
        windows = [_window(0.0), _window(60.0, total=5, within=0),
                   _window(120.0)]
        passed, _, compliance = self._check(spec, [windows])
        assert passed
        assert compliance == "0/2w"

    def test_worst_replicate_gates_the_cell(self):
        spec = self._spec(sla_violation_budget=0.30, sla_reattain_windows=1)
        clean = [_window(0.0), _window(60.0), _window(120.0)]
        # One bad replicate busts its own budget even though the pooled
        # violation count (2/6) would squeak under it.
        dirty = [_window(0.0, within=50), _window(60.0, within=50),
                 _window(120.0)]
        passed, _, _ = self._check(spec, [clean, dirty])
        assert not passed

    def test_short_run_falls_back_to_whole_run_report(self):
        spec = self._spec()
        passed, detail, compliance = self._check(
            spec, [[_window(0.0)]], report=_report(satisfied=True))
        assert passed and compliance == "yes"
        assert "whole-run" in detail
        passed, _, compliance = self._check(
            spec, [[_window(0.0)]], report=_report(satisfied=False))
        assert not passed and compliance == "NO"

    def test_write_budget_override_applies_to_writes_only(self):
        from repro.parallel.grid import _policy_sla_check
        from types import SimpleNamespace

        spec = self._spec(sla_violation_budget=0.10,
                          sla_write_violation_budget=0.50,
                          sla_reattain_windows=1)
        windows = [_window(0.0, within=50), _window(60.0),
                   _window(120.0), _window(180.0)]  # 25% violated
        record = SimpleNamespace(summary=SimpleNamespace(
            read_windows=list(windows), write_windows=list(windows)))
        read_passed, _, _ = _policy_sla_check(spec, [record], _report(), "read")
        write_passed, _, _ = _policy_sla_check(spec, [record], _report(), "write")
        assert not read_passed   # 25% > 10% read budget
        assert write_passed      # 25% <= 50% write budget
