"""A ratchet on the design-size numbers ROADMAP.md quotes (aim 2).

Each bound is the value at the head of the last PR that simplified the thing
it measures.  A PR that simplifies further lowers its bound in the same
change; no PR raises one — a new engine knob or branch fails tier-1 here
instead of waiting for the next re-anchor to be noticed.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

from repro import Scads
from repro.core.provisioning.controller import ProvisioningController
from repro.experiments.harness import run_closed_loop
from repro.storage.cluster import Cluster
from repro.storage.node import StorageNode
from repro.storage.replication import ReplicationEngine
from repro.storage.router import Router

pytestmark = pytest.mark.tier1

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

MAX_ENGINE_KWARGS = 22
MAX_ENGINE_LINES = 1089
MAX_ENGINE_IS_NOT_NONE = 44
MAX_CLUSTER_LINES = 1030
# Data movement is three primitives (see cluster.py's "Data movement"): the
# scans are _misplaced, _copy_store and the range seeding's token census.
MAX_CLUSTER_SCANS = 3
MAX_STORAGE_KWARGS = {Cluster: 7, StorageNode: 3, ReplicationEngine: 5}
MAX_ACT_LINES = 10
MAX_CONTROLLER_LINES = 600
MAX_CONTROLLER_KWARGS = 18
MAX_RUN_CLOSED_LOOP_PARAMETERS = 15
MAX_MAKE_TARGETS = 15
MAX_EVENTS_LINES = 86


def test_engine_constructor_takes_no_new_knob():
    parameters = inspect.signature(Scads.__init__).parameters
    assert len(parameters) - 1 <= MAX_ENGINE_KWARGS  # minus self


def test_engine_module_does_not_grow():
    source = (SRC / "core" / "engine.py").read_text(encoding="utf-8")
    assert len(source.splitlines()) <= MAX_ENGINE_LINES
    assert source.count("is not None") <= MAX_ENGINE_IS_NOT_NONE


def test_the_cluster_read_path_pays_per_batch_not_per_key():
    # One shared outcome per multiget: no per-key result record ...
    assert "RequestResult(" not in inspect.getsource(Router.read_many)
    # ... and the owning group is a fact about the outcome: the one
    # verification rule never resolves it per key (it reads outcome.group).
    assert inspect.getsource(Scads._verify_replica_read).count("group_for_key(") <= 1
    engine = (SRC / "core" / "engine.py").read_text(encoding="utf-8")
    assert engine.count("def _verify_replica_read(") == 1
    assert "_consistent_read" not in engine  # no per-key twin of the rule


def test_cluster_module_does_not_grow():
    source = (SRC / "storage" / "cluster.py").read_text(encoding="utf-8")
    assert len(source.splitlines()) <= MAX_CLUSTER_LINES


def test_moved_data_reaches_a_group_in_one_place():
    cluster = (SRC / "storage" / "cluster.py").read_text(encoding="utf-8")
    router = (SRC / "storage" / "router.py").read_text(encoding="utf-8")
    # Cluster.deliver is the only live-apply-or-retrying-replicate decision.
    assert cluster.count("replicate_to(") == 1
    assert router.count("replicate_to(") == 0
    # Cluster._new_node builds every node; a sweep or a whole-store copy is
    # not written out again beside the primitives.
    assert cluster.count("StorageNode(") == 1
    assert cluster.count("scan_namespace(") <= MAX_CLUSTER_SCANS


def test_an_event_is_one_heap_entry():
    # No event object and no lazy cancellation: the heap holds only live
    # entries, and cancel() takes one out at once.
    source = (SRC / "sim" / "events.py").read_text(encoding="utf-8")
    assert "class Event:" not in source and "class Event(" not in source
    for word in ("cancelled", "popped", "_live"):
        assert word not in source, word
    assert len(source.splitlines()) <= MAX_EVENTS_LINES


@pytest.mark.parametrize("cls", list(MAX_STORAGE_KWARGS), ids=lambda cls: cls.__name__)
def test_storage_constructors_take_no_new_knob(cls):
    parameters = inspect.signature(cls.__init__).parameters
    assert len(parameters) - 1 <= MAX_STORAGE_KWARGS[cls]  # minus self


def test_controller_act_does_not_grow():
    source = inspect.getsource(ProvisioningController._act)
    assert len(source.splitlines()) <= MAX_ACT_LINES


def test_controller_module_does_not_grow():
    source = (SRC / "core" / "provisioning" / "controller.py").read_text(encoding="utf-8")
    assert len(source.splitlines()) <= MAX_CONTROLLER_LINES


def test_controller_constructor_takes_no_new_knob():
    parameters = inspect.signature(ProvisioningController.__init__).parameters
    assert len(parameters) - 1 <= MAX_CONTROLLER_KWARGS  # minus self


def test_scaling_actions_are_constructed_in_one_place():
    constructions = sum(path.read_text(encoding="utf-8").count("ScalingAction(")
                        for path in SRC.rglob("*.py"))
    assert constructions == 1


def _sources(*directories):
    return [path for directory in directories
            for path in (ROOT / directory).rglob("*.py")]


def test_a_scenario_spec_is_unpacked_in_one_place():
    # executor.run_scenario builds the spec's trace; a second hit is a second
    # hand-written ScenarioSpec -> run_closed_loop mapping that can drift.
    builds = {path.relative_to(ROOT).as_posix():
              path.read_text(encoding="utf-8").count(".trace.build()")
              for path in _sources("src", "benchmarks", "scripts")}
    assert {path: count for path, count in builds.items() if count} \
        == {"src/repro/parallel/executor.py": 1}


def test_run_closed_loop_takes_no_new_parameter():
    assert len(inspect.signature(run_closed_loop).parameters) \
        <= MAX_RUN_CLOSED_LOOP_PARAMETERS


def test_makefile_does_not_grow():
    makefile = (ROOT / "Makefile").read_text(encoding="utf-8")
    assert len(re.findall(r"^[a-z][a-z-]*:", makefile, flags=re.M)) <= MAX_MAKE_TARGETS


def test_the_pre_flip_perf_harness_stays_gone():
    # perfbench/ + BENCHMARK.json are the only performance harness;
    # BENCH_PERF.json is frozen history that nothing reads or appends to.
    retired = ("perf" + "_log", "BENCH_PERF" + "_RECORD")
    for path in _sources("src", "tests", "benchmarks", "scripts"):
        text = path.read_text(encoding="utf-8")
        assert not any(word in text for word in retired), path
