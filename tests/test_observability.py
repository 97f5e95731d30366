"""Observability layer: tracing, the telemetry snapshot, attribution, timeline.

Covers the layer's three contracts:

* **determinism** — trace sampling is a per-stream counter modulo, never an
  RNG draw, so a telemetry-on run produces byte-identical operation results
  to a telemetry-off run with the same seed;
* **reconciliation** — a sampled trace's on-path span durations sum to the
  operation's recorded end-to-end latency (float tolerance), across reads,
  writes, cache hits, range fan-outs, and query dereference composition;
* **mergeability** — snapshots, traces, and timelines pickle and merge
  exactly (the sweep-fabric tests in test_trace_sweep.py assert the
  worker-count independence end to end);
* **one owner per number** — the telemetry snapshot is a view of the
  records the engine keeps anyway (router, op recorder, cache, decision
  log, traces), never a copy taken during the run.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Scads
from repro.core.schema import EntitySchema, Field
from repro.experiments.harness import run_closed_loop
from repro.obs import (
    SPAN_KINDS,
    Span,
    TraceRecord,
    Tracer,
    attribute_windows,
    format_attribution,
)
from repro.parallel.scenarios import STANDARD_SUITE, smoke_variant
from repro.parallel.spec import ScenarioSpec, TraceSpec

pytestmark = pytest.mark.tier1


def traced_engine(sample_interval=4, **kwargs) -> Scads:
    defaults = dict(seed=3, initial_groups=2, autoscale=False, telemetry=True)
    defaults.update(kwargs)
    engine = Scads(**defaults)
    if engine.tracer is not None:
        engine.tracer.sample_interval = sample_interval
    engine.register_entity(EntitySchema(
        name="profiles",
        key_fields=[Field("user_id")],
        value_fields=[Field("name"), Field("birthday")],
    ))
    engine.register_entity(EntitySchema(
        name="friendships",
        key_fields=[Field("f1"), Field("f2")],
        max_per_partition=100,
        column_bounds={"f2": 100},
    ))
    engine.register_query(
        "friend_birthdays",
        "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
        "WHERE f.f1 = <user_id> ORDER BY p.birthday LIMIT 10",
    )
    engine.start()
    return engine


def drive(engine: Scads, users: int = 24) -> list:
    """A deterministic workload touching every traced path; returns the
    per-operation latencies in issue order (the determinism fingerprint)."""
    latencies = []
    for i in range(users):
        uid = f"u{i}"
        result = engine.put("profiles", {"user_id": uid, "name": uid.upper(),
                                         "birthday": f"{1 + i % 12:02d}-01"})
        latencies.append(result.latency)
        for friend in range(min(i, 5)):
            result = engine.put("friendships", {"f1": uid, "f2": f"u{friend}"})
            latencies.append(result.latency)
    engine.settle()
    for i in range(users):
        outcome = engine.get("profiles", (f"u{i}",))
        latencies.append(outcome.latency)
        result = engine.query("friend_birthdays", {"user_id": f"u{i}"})
        latencies.append(result.latency)
    engine.run_for(30.0)
    return latencies


# ----------------------------------------------------------------- tracer


class TestTracer:
    def test_sampling_lattice_is_counter_modulo(self):
        tracer = Tracer()
        tracer.sample_interval = 4
        sampled = []
        for i in range(10):
            if tracer.maybe_begin("read", now=float(i)):
                tracer.end(latency=0.01)
                sampled.append(i)
        assert sampled == [0, 4, 8]  # first op sampled, then every Nth
        # Streams sample independently: a fresh stream starts at its own 0.
        assert tracer.maybe_begin("write", now=99.0)
        tracer.end(latency=0.02)
        assert [t.op for t in tracer.traces] == ["read"] * 3 + ["write"]

    def test_max_traces_caps_appends(self):
        tracer = Tracer()
        tracer.sample_interval, tracer.max_traces = 1, 2
        for i in range(5):
            if tracer.maybe_begin("read", now=float(i)):
                tracer.end(latency=0.01)
        assert len(tracer.traces) == 2
        assert [t.start for t in tracer.traces] == [0.0, 1.0]  # prefix kept

    def test_demote_and_repromote_for_parallel_composition(self):
        tracer = Tracer()
        tracer.sample_interval = 1
        assert tracer.maybe_begin("query", now=0.0)
        mark = tracer.mark()
        tracer.add("service", 0.010)  # loser leg
        tracer.add("service", 0.030)  # winner leg
        tracer.demote_since(mark)
        tracer.add("index_deref", 0.030)  # the on-path aggregate: the winner
        record = tracer.end(latency=0.030)
        assert record.reconciles()
        assert record.kind_totals() == {"index_deref": 0.030}
        assert sum(span.duration for span in record.spans) == pytest.approx(0.070)

    def test_reconciliation_tolerance(self):
        record = TraceRecord(trace_id=0, op="read", start=0.0, latency=0.1,
                             success=True,
                             spans=[Span("network", 0.04), Span("service", 0.06)])
        assert record.reconciles()
        record.spans.append(Span("queue", 0.01))
        assert not record.reconciles()

# ------------------------------------------------------------ driven engine


class TestEngineTracing:
    def test_all_sampled_traces_reconcile(self):
        engine = traced_engine()
        drive(engine)
        traces = engine.traces()
        assert len(traces) >= 10
        assert {t.op for t in traces} >= {"read", "write", "query"}
        for trace in traces:
            assert trace.reconciles(), trace.describe()
            assert all(span.kind in SPAN_KINDS for span in trace.spans)

    def test_same_seed_identical_with_telemetry_on_and_off(self):
        on = drive(traced_engine(seed=7))
        off = drive(traced_engine(seed=7, telemetry=False))
        assert on == off  # byte-identical latencies: no RNG perturbation

    def test_cache_hit_traces(self):
        engine = traced_engine(cache=True, sample_interval=1)
        engine.put("profiles", {"user_id": "a", "name": "A", "birthday": "01-01"})
        engine.settle()
        engine.get("profiles", ("a",))  # miss, fills the cache
        engine.get("profiles", ("a",))  # hit
        hits = [t for t in engine.traces()
                if any(s.kind == "cache_hit" for s in t.spans)]
        assert hits and all(t.reconciles() for t in hits)

    def test_telemetry_off_is_absent_everywhere(self):
        engine = traced_engine(telemetry=False)
        drive(engine, users=4)
        assert engine.tracer is None
        # The decision log is the control plane's record, not telemetry.
        assert engine.timeline is not None
        assert engine.traces() == []
        assert engine.collect_telemetry() is None

    def test_collect_telemetry_counters_and_idempotence(self):
        engine = traced_engine()
        drive(engine, users=8)
        telemetry = engine.collect_telemetry()
        counts = engine.cumulative_operation_counts()
        assert telemetry["counters"]["engine.read.ops"] == counts["read"]
        assert telemetry["counters"]["engine.write.ops"] == counts["write"]
        assert telemetry["counters"]["router.read"] > 0
        assert telemetry["histograms"]["engine.read.latency"]["count"] > 0
        json.dumps(telemetry)  # JSON-able throughout
        assert engine.collect_telemetry() == telemetry  # idempotent

    def test_off_path_spans_stay_out_of_the_snapshot_span_histograms(self):
        engine = traced_engine()
        tracer = engine.tracer
        tracer.sample_interval = 1
        tracer.maybe_begin("read", now=0.0)
        tracer.add("network", 0.01)
        tracer.add("service", 0.02, off_path=True)
        tracer.end(latency=0.01)
        histograms = engine.collect_telemetry()["histograms"]
        assert histograms["trace.read.latency"]["count"] == 1
        assert histograms["span.network"]["count"] == 1
        # Off-path spans stay out of the attribution histograms.
        assert "span.service" not in histograms

    def test_every_snapshot_entry_reads_its_owner(self):
        engine = traced_engine(autoscale=True, control_interval=10.0, sample_interval=1)
        drive(engine)
        for i in range(6):
            engine.get("profiles", (f"u{i}",))  # cache hits
        snapshot = engine.collect_telemetry()
        counters, gauges, histograms = (
            snapshot["counters"], snapshot["gauges"], snapshot["histograms"])
        decisions = engine.timeline.decisions
        assert decisions
        assert counters["monitor.windows"] == len(decisions)
        assert counters.get("monitor.violation_windows", 0) == sum(
            d.observation.any_sla_violated() for d in decisions)
        assert gauges["monitor.peak_request_rate"] == max(
            d.observation.request_rate for d in decisions)
        assert gauges["cluster.peak_nodes"] == max(d.node_count for d in decisions)
        for name, count in engine.router.op_counts().items():
            assert counters[f"router.{name}"] == count
        recorder = engine.recorder
        for op_type, attempts in recorder.counts().items():
            assert counters[f"engine.{op_type}.ops"] == attempts
            assert histograms[f"engine.{op_type}.latency"] == \
                recorder.all_time(op_type).snapshot()
        assert not any(name.endswith(".failures") for name in counters)  # none failed
        hits, misses = engine.cache.hit_counts()
        assert (counters["cache.hits"], counters["cache.misses"]) == (hits, misses)
        # Every op is traced here: a read the cache served has no cluster span.
        cache_served = sum(1 for t in engine.tracer.traces if t.op in ("read", "query")
                           and {s.kind for s in t.spans} <= {"cache_hit", "index_deref"})
        assert counters["engine.read.cache_served"] == cache_served > 0
        assert counters["replication.propagations"] == histograms["replication.lag"]["count"]
        assert histograms["replication.lag"]["max"] == \
            engine.cluster.replication.max_observed_lag()
        # Latency and span histograms, recomputed from the tracer's traces.
        recomputed = {}
        for trace in engine.tracer.traces:
            recomputed.setdefault(f"trace.{trace.op}.latency", []).append(trace.latency)
            for span in trace.spans:
                if not span.off_path:
                    recomputed.setdefault(f"span.{span.kind}", []).append(span.duration)
        traced = {name: stats for name, stats in histograms.items()
                  if name.startswith(("trace.", "span."))}
        assert set(traced) == set(recomputed)
        for name, values in recomputed.items():
            assert traced[name]["count"] == len(values)
            assert traced[name]["max"] == max(values)
            assert traced[name]["mean"] == pytest.approx(sum(values) / len(values))


# ------------------------------------------------------------- attribution


def make_trace(trace_id: int, start: float, latency: float,
               kinds: dict) -> TraceRecord:
    spans = [Span(kind, duration) for kind, duration in kinds.items()]
    return TraceRecord(trace_id=trace_id, op="read", start=start,
                       latency=latency, success=True, spans=spans)


class TestAttribution:
    def test_windows_bucket_and_rank(self):
        traces = [
            make_trace(0, 10.0, 0.010, {"network": 0.002, "service": 0.008}),
            make_trace(1, 20.0, 0.100, {"queue": 0.090, "service": 0.010}),
            make_trace(2, 70.0, 0.050, {"service": 0.050}),
        ]
        reports = attribute_windows(traces, window=60.0)
        assert [r.start for r in reports] == [0.0, 60.0]
        first = reports[0]
        assert first.trace_count == 2
        # Worst decile of 2 traces = 1 trace: the 100 ms queue-bound one.
        assert first.worst_count == 1
        assert first.kind_seconds == {"queue": 0.090, "service": 0.010}
        assert first.kind_fractions()["queue"] == pytest.approx(0.9)
        assert first.percentile_latency == pytest.approx(0.0991)

    def test_format_and_validation(self):
        assert format_attribution([]) == "(no traces)"
        report = attribute_windows(
            [make_trace(0, 0.0, 0.01, {"service": 0.01})], window=60.0)[0]
        assert "service 100.0%" in report.describe()
        with pytest.raises(ValueError):
            attribute_windows([], window=0.0)

    def test_engine_traces_attribute(self):
        engine = traced_engine()
        drive(engine)
        reports = attribute_windows(engine.traces(), window=30.0)
        assert reports
        for report in reports:
            assert report.trace_count > 0
            assert set(report.kind_seconds) <= SPAN_KINDS


# ----------------------------------------------------------------- timeline


class TestDecisionTimeline:
    def test_autoscaling_engine_records_decisions(self):
        engine = traced_engine(autoscale=True, control_interval=10.0)
        drive(engine)
        timeline = engine.timeline
        assert timeline.decisions
        decision = timeline.decisions[0]
        assert decision.kind in {"scale_up", "scale_down", "repartition", "hold"}
        assert decision.plan.backend
        assert decision.plan.latency_detail  # the SizingBreakdown explanation
        assert "read" in decision.observation.sla_reports
        # The decision holds the step's records; the controller's views read them.
        assert engine.controller.plans()[0] is decision.plan
        assert engine.controller.actions() == timeline.decisions
        assert timeline.events  # adopted groups at minimum
        assert {e.kind for e in timeline.events} <= {"rent", "release", "attach"}
        json.dumps(timeline.snapshot())
        assert "t=" in timeline.describe(last=2)



@pytest.mark.parametrize("name", ["noisy-neighbor-episode", "spot-interruption-storm"])
def test_telemetry_never_changes_a_decision(name):
    # The tracer feeds contention evidence to the monitor and the spot fleet
    # logs its moves on the same timeline; with telemetry on or off, the
    # decision log of a seeded run is the same, byte for byte.
    spec = smoke_variant(next(s for s in STANDARD_SUITE if s.name == name))
    summaries = [
        run_closed_loop(spec.with_overrides(**{"engine_knobs.telemetry": telemetry}), 11)[0]
        for telemetry in (True, False)
    ]
    logs = [json.dumps(summary.decision_timeline.snapshot(), sort_keys=True)
            for summary in summaries]
    assert '"decisions": [{' in logs[0]
    assert logs[0] == logs[1]


def test_peak_nodes_gauge_is_the_runs_peak_after_a_scale_down():
    # The gauge and the summary quote one peak: the largest fleet any
    # control step left, not the fleet still attached at collection time.
    summary, engine, _ = run_closed_loop(ScenarioSpec(
        name="shrink", trace=TraceSpec("constant", {"rate": 10.0}), duration=120.0,
        n_users=40, friend_cap=10, initial_groups=4, control_interval=10.0,
        engine_knobs={"telemetry": True}), 11)
    assert summary.scale_downs > 0 and summary.final_nodes < summary.peak_nodes
    assert summary.peak_nodes == max(d.node_count for d in engine.timeline.decisions)
    assert summary.telemetry["gauges"]["cluster.peak_nodes"] == summary.peak_nodes


def test_analyze_trace_script_dumps_a_reconciled_run():
    # The offline-analysis entry point, end to end: a telemetry-on run of the
    # standard scenario, dumped as one JSON document.
    root = Path(__file__).resolve().parent.parent
    completed = subprocess.run(
        [sys.executable, str(root / "scripts" / "analyze_trace.py"), "--duration", "20"],
        check=True, capture_output=True, text=True, timeout=240,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    document = json.loads(completed.stdout)
    assert document["trace_count"] > 0
    assert document["reconciled_traces"] == document["trace_count"]
    # 20 s is shorter than one 30 s control interval: the timeline holds the
    # fleet's attach events and no control step yet.
    assert document["decision_timeline"]["events"]


# ------------------------------------------------------------------ pickling


class TestPickling:
    def test_engine_payloads_round_trip(self):
        engine = traced_engine(autoscale=True, control_interval=10.0)
        drive(engine)
        telemetry = engine.collect_telemetry()
        assert pickle.loads(pickle.dumps(telemetry)) == telemetry

        traces = engine.traces()
        restored_traces = pickle.loads(pickle.dumps(traces))
        assert [(t.trace_id, t.op, t.latency) for t in restored_traces] == \
               [(t.trace_id, t.op, t.latency) for t in traces]
        assert all(t.reconciles() for t in restored_traces)

        timeline = pickle.loads(pickle.dumps(engine.timeline))
        assert timeline.snapshot() == engine.timeline.snapshot()
