"""A ratchet on the design-size numbers ROADMAP.md quotes (aim 2).

Each bound is the value at the head of the last PR that simplified the thing
it measures.  A PR that simplifies further lowers its bound in the same
change; no PR raises one — a new engine knob or branch fails tier-1 here
instead of waiting for the next re-anchor to be noticed.
"""

from __future__ import annotations

import ast
import inspect
import re
from collections import Counter
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
MAX_ENGINE_LINES = 1080
MAX_ENGINE_IS_NOT_NONE = 42
MAX_CLUSTER_LINES = 1008
# Data movement is three primitives (see cluster.py's "Data movement"): the
# scans are _misplaced, _copy_store and the range seeding's token census.
MAX_CLUSTER_SCANS = 3
MAX_STORAGE_KWARGS = {Cluster: 6, StorageNode: 3, ReplicationEngine: 3}
MAX_ACT_LINES = 10
MAX_CONTROLLER_LINES = 596
MAX_CONTROLLER_KWARGS = 15
MAX_RUN_CLOSED_LOOP_PARAMETERS = 15
MAX_MAKE_TARGETS = 15
MAX_EVENTS_LINES = 86
# Settable values: the parameters with a default on an explicit ``__init__``
# of a class under src/repro/, plus the fields with a default on a ``*Config``
# dataclass.  Each must have a caller outside tests/ (a value only tests set
# is a constant; a test that needs another value sets the attribute on the
# object it built) -- except these, each with why it survives:
MAX_SETTABLE_VALUES = 91
UNSET_VALUES = {
    "AdmissionPolicy.propagation_headroom":
        "derived from the bound by default; only tests pass one, to reach a "
        "policy with no servable budget, and folding it deletes cacheable() "
        "and the two tests of that path",
    "VirtualClock.start":
        "the simulator's clock starts at 0; only clock tests start one "
        "mid-run, and folding it deletes two of them",
}
CALLER_DIRECTORIES = ("src", "benchmarks", "scripts", "examples", "perfbench")


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


# ------------------------------------------------------ knobs and dead code


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _callee(node):
    """The last name of a call's (or a decorator's) target."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _defaults(arguments):
    """``({parameter: dumped default}, positional parameter names)``."""
    positional = arguments.posonlyargs + arguments.args
    pairs = list(zip(positional[len(positional) - len(arguments.defaults):],
                     arguments.defaults))
    pairs += [(arg, value) for arg, value in zip(arguments.kwonlyargs, arguments.kw_defaults)
              if value is not None]
    return {arg.arg: ast.dump(value) for arg, value in pairs}, [arg.arg for arg in positional]


def _declarations():
    """The settable values (``"Class.name" -> default``), the defaults of
    every module-level function (a default may be relayed through one), and
    each callee's positional parameter order."""
    values, relays, order = {}, {}, {}
    for path in sorted(SRC.rglob("*.py")):
        tree = _parse(path)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defaults, order[node.name] = _defaults(node.args)
                relays.update((f"{node.name}.{name}", d) for name, d in defaults.items())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    defaults, positional = _defaults(item.args)
                    values.update((f"{node.name}.{name}", d) for name, d in defaults.items())
                    order[node.name] = positional[1:]
            if node.name.endswith("Config") and any(
                    _callee(decorator) == "dataclass" for decorator in node.decorator_list):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
                order[node.name] = [item.target.id for item in fields]
                values.update((f"{node.name}.{item.target.id}", ast.dump(item.value))
                              for item in fields if item.value is not None)
    return values, relays, order


class _Setters(ast.NodeVisitor):
    """Every call that passes a declared parameter: by keyword, by position,
    or as a key of a dict that reaches a ``**`` call.

    Passing a bare parameter of the enclosing function, or ``self.<name>`` of
    the enclosing class, with the same default as the callee's hands that
    default on: it sets the callee's value only if the relayed one is set.
    """

    def __init__(self, values, relays, order):
        self.defaults = {**relays, **values}
        self.order = order
        self.direct, self.relayed = set(), []
        self.dict_keys, self.starred = set(), set()
        self.scope = []  # (enclosing class, parameter owner, parameter names)

    def visit_ClassDef(self, node):
        self.scope.append((node.name, None, ()))
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        cls = self.scope[-1][0] if self.scope else None
        owner = cls if node.name == "__init__" and cls else node.name
        self.scope.append((cls, owner, _defaults(node.args)[0]))
        self.generic_visit(node)
        self.scope.pop()

    def _assign(self, target, value):
        source = None
        if self.scope:
            cls, owner, parameters = self.scope[-1]
            if isinstance(value, ast.Name) and value.id in parameters:
                source = f"{owner}.{value.id}"
            elif isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name) \
                    and value.value.id == "self":
                source = f"{cls}.{value.attr}"
        if source in self.defaults and self.defaults[source] == self.defaults.get(target):
            self.relayed.append((target, source))
        else:
            self.direct.add(target)

    def visit_Call(self, node):
        callee = _callee(node)
        if callee == "dict":
            self.dict_keys.update(keyword.arg for keyword in node.keywords if keyword.arg)
        for keyword in node.keywords:
            if keyword.arg is None:
                self.starred.add(callee)
            else:
                self._assign(f"{callee}.{keyword.arg}", keyword.value)
        for parameter, argument in zip(self.order.get(callee, ()), node.args):
            if isinstance(argument, ast.Starred):
                break
            self._assign(f"{callee}.{parameter}", argument)
        self.generic_visit(node)

    def visit_Dict(self, node):
        self.dict_keys.update(key.value for key in node.keys
                              if isinstance(key, ast.Constant) and isinstance(key.value, str))
        self.generic_visit(node)


def test_every_settable_value_has_a_caller():
    values, relays, order = _declarations()
    setters = _Setters(values, relays, order)
    for path in sorted(_sources(*CALLER_DIRECTORIES)):
        setters.visit(_parse(path))
    found = setters.direct | {f"{callee}.{key}" for callee in setters.starred
                              for key in setters.dict_keys}
    grew = True
    while grew:
        grew = False
        for target, source in setters.relayed:
            if source in found and target not in found:
                found.add(target)
                grew = True
    unset = sorted(set(values) - found)
    message = f"settable values no code outside tests/ sets: {unset}"
    assert len(values) <= MAX_SETTABLE_VALUES, message
    assert unset == sorted(UNSET_VALUES), message


def test_every_definition_is_referenced():
    # A function, method or class name whose every occurrence is one of its
    # own definitions is dead code.  Dunder methods are called by Python.
    defined = Counter(
        node.name for path in SRC.rglob("*.py") for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__")))
    words = Counter(word for path in _sources("tests", *CALLER_DIRECTORIES)
                    for word in re.findall(r"\w+", path.read_text(encoding="utf-8")))
    assert sorted(name for name, count in defined.items() if words[name] <= count) == []
