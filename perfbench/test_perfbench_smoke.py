"""Smoke test of the benchmark itself: names, plumbing and the tracer's
hygiene — not performance.  Every workload runs a few simulated seconds on a
60-user graph through the same code path ``run.py`` drives."""

from __future__ import annotations

import json
import re

import pytest

from perfbench import calibration, micro, run, workloads
from perfbench.tracing import SPAN_TARGETS, SpanTracer

pytestmark = pytest.mark.tier1

SIM_SECONDS = 4.0
N_USERS = 60
SMOKE_EFFORT = micro.Effort(share=0.01, repeats=1)
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _seconds_for(workload: workloads.Workload) -> float:
    """``--seconds`` at which one replica simulates ``SIM_SECONDS``."""
    return run.RUN_SECONDS * SIM_SECONDS / (workload.sim_seconds * run.SIM_SCALE)


@pytest.fixture(scope="module")
def spec() -> dict:
    return run.load_spec()


def test_benchmark_json_matches_the_code(spec):
    assert spec["paths"] == ["perfbench"]
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(name) for name in names)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}["setup_s"] \
        == ("s", "lower")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted_once(name, spec, monkeypatch):
    # Calibration slices are pure timing (4 ms each, a dozen per simulation);
    # what they measure is irrelevant to what this test checks.
    monkeypatch.setattr(calibration, "slice_ns", lambda: int(calibration.REFERENCE_NS))
    workload = workloads.WORKLOADS[name]
    seconds = _seconds_for(workload)
    end_to_end = run.end_to_end_pass(workload, seed=1, seconds=seconds, n_users=N_USERS)
    layers = run.layers_pass(workload, seed=1, seconds=seconds, n_users=N_USERS,
                             effort=SMOKE_EFFORT)
    assert not set(end_to_end.metrics) & set(layers.metrics)
    for section, outcome in (("end_to_end", end_to_end), ("per_layer", layers)):
        declared = [m["name"] for m in spec[section]]
        assert sorted(outcome.metrics) == sorted(declared)
        result, _ = run.contract_result(spec, (section,), [outcome])
        assert sorted(result["metrics"]) == sorted(declared)
        assert result["attempted"] >= 1 and result["failed"] == 0
        json.dumps(result)  # every value is a plain number
    # Traced and untraced fingerprints matched and the prefix re-run agreed:
    # the only complaints so short a run may have are about its premises
    # (a 60-user graph fits any cache; nothing scales in four seconds).
    complaints = [p for p in end_to_end.problems + layers.problems
                  if "does not hold" not in p]
    assert complaints == []


def test_tracer_leaves_the_patched_classes_as_it_found_them():
    targets = [target for group in SPAN_TARGETS.values() for target in group]
    before = {(cls, attr): cls.__dict__[attr] for cls, attr in targets}
    tracer = SpanTracer(keep_spans=10)
    with tracer.installed():
        assert all(cls.__dict__[attr] is not original
                   for (cls, attr), original in before.items())
        workloads.simulate(workloads.WORKLOADS["write-storm"], 1, 0.001,
                           n_users=20, before_load=tracer.reset)
    assert all(cls.__dict__[attr] is original
               for (cls, attr), original in before.items())
    assert tracer.ops > 0 and len(tracer.spans) == 10
    name, start, end, parent_start, trace_id = tracer.spans[-1]
    assert end >= start and parent_start < start


def test_compare_flags_a_regression_beyond_the_bound(spec, tmp_path, capsys):
    def write(path, ops_per_wall_s):
        path.write_text(json.dumps({"workloads": {"steady-skewed": {"metrics": {
            "ops_per_wall_s": ops_per_wall_s, "setup_s": 0.5}}}}))
        return str(path)

    base = write(tmp_path / "a.json", 10_000.0)
    same = write(tmp_path / "b.json", 9_900.0)
    slow = write(tmp_path / "c.json", 5_000.0)
    assert run.main(["--compare", base, same]) == 0
    assert run.main(["--compare", base, slow]) == 1
    assert "worse" in capsys.readouterr().out


def test_a_segment_is_charged_the_slowdown_of_the_slices_around_it():
    ref = calibration.REFERENCE_NS
    # One slice before segment 0, one after segments 2, 3 and 5; the machine
    # halves its speed during segment 2.
    slices = [(0, ref), (2, ref), (3, 2 * ref), (5, 2 * ref)]
    assert calibration.segment_slowdowns(slices) == [1.0, 1.0, 1.5, 2.0, 2.0]
    # A single slow slice between fast neighbours is jitter, not an episode.
    blip = [(0, ref), (1, ref), (2, 3 * ref), (3, ref), (4, ref)]
    assert calibration.segment_slowdowns(blip) == [1.0, 1.0, 1.0, 1.0]
