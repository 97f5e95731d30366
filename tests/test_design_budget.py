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
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro import Scads
from repro.cache.store import CacheEntry
from repro.core.engine import OperationOutcome
from repro.core.index.maintenance import EntityWrite, MaintenanceResult
from repro.core.index.updater import UpdateTask
from repro.core.provisioning.controller import ProvisioningController
from repro.core.query.executor import QueryResult
from repro.experiments.harness import run_closed_loop
from repro.metrics.sla import ComplianceWindow
from repro.storage.cluster import Cluster
from repro.storage.node import StorageNode, _NamespaceStore
from repro.storage.records import KeyRange, VersionedValue
from repro.storage.replication import PropagationRecord, ReplicationEngine
from repro.storage.router import ReadOutcome, RequestResult, Router
from repro.workloads.opmix import Operation

pytestmark = pytest.mark.tier1

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

MAX_ENGINE_KWARGS = 22
MAX_ENGINE_LINES = 1029
MAX_ENGINE_IS_NOT_NONE = 37
MAX_CLUSTER_LINES = 941
# Data movement is three primitives (see cluster.py's "Data movement"): the
# scans are _misplaced, _copy_store and the range seeding's token census.
MAX_CLUSTER_SCANS = 3
MAX_STORAGE_KWARGS = {Cluster: 6, StorageNode: 3, ReplicationEngine: 3}
MAX_ACT_LINES = 10
MAX_CONTROLLER_LINES = 546
MAX_CONTROLLER_KWARGS = 15
MAX_RUN_CLOSED_LOOP_PARAMETERS = 2
MAX_MAKE_TARGETS = 14
MAX_EVENTS_LINES = 70
MAX_CACHE_STORE_LINES = 330
MAX_PARTITIONER_LINES = 291
MAX_ROUTER_LINES = 633
# Settable values: the parameters with a default on an explicit ``__init__``
# of a class under src/repro/, plus the fields with a default on a ``*Config``
# dataclass.
MAX_SETTABLE_VALUES = 84
# Every defaulted parameter of every function and method under src/repro/.
MAX_DEFAULTED_PARAMETERS = 185
# Nothing in src/ exists only for its tests: every function, method and class
# is used by code outside tests/, and every defaulted parameter is passed by
# it (a value only tests set is a constant; a test that needs another value
# sets the attribute on the object it built) -- except these test seams, each
# with why it survives.  A seam's parameters are exempt with it.
MAX_TEST_SEAMS = 7
TEST_SEAMS = {
    "ConstantLatency":
        "the test fake: a service time that consumes no randomness, so kernel, "
        "queueing and contention tests can assert exact latencies",
    "Cluster.anti_affinity_violations":
        "an invariant the tests assert: no replica group stacks members on "
        "one host, through placement, replacement, evacuation and zone outages",
    "Cluster.total_keys":
        "an invariant the tests assert: each logical key counted once at its "
        "owner's primary, through adds, removals, in-flight migrations and "
        "outages",
    "StalenessBudgetCache.cost_total":
        "what the cache's LinearScanStore twin is compared on after every step",
    "FailureInjector.crash_node":
        "the single-node outage the crash and recovery regressions drive",
    "NetworkModel.heal":
        "partitions end by handle in the replication twin and the kernel tests",
    "Scads.delete":
        "the engine's delete path with its session: no shipped workload "
        "deletes, and the read-your-writes regressions for deletes drive it",
}
CALLER_DIRECTORIES = ("src", "benchmarks", "scripts", "examples", "perfbench")


def test_engine_constructor_takes_no_new_knob():
    parameters = inspect.signature(Scads.__init__).parameters
    assert len(parameters) - 1 <= MAX_ENGINE_KWARGS  # minus self


def test_engine_module_does_not_grow():
    source = (SRC / "core" / "engine.py").read_text(encoding="utf-8")
    assert len(source.splitlines()) <= MAX_ENGINE_LINES
    assert source.count("is not None") <= MAX_ENGINE_IS_NOT_NONE


def test_an_index_entry_stores_an_int_not_a_dict():
    # Support counts are plain ints; a per-entry dict was one live
    # allocation per index entry.
    for path in SRC.rglob("*.py"):
        assert '{"support"' not in path.read_text(encoding="utf-8"), path


def test_the_cluster_read_path_pays_per_batch_not_per_key():
    # One shared outcome per multiget: no per-key result record ...
    assert "RequestResult(" not in inspect.getsource(Router.read_many)
    # ... and the owning group is a fact about the outcome: the one
    # verification rule never resolves it per key (it reads outcome.group).
    assert inspect.getsource(Scads._verify_replica_read).count("group_for_key(") <= 1
    engine = (SRC / "core" / "engine.py").read_text(encoding="utf-8")
    assert engine.count("def _verify_replica_read(") == 1
    assert "_consistent_read" not in engine  # no per-key twin of the rule


# Allocated once (or more) per client operation, routed write, replica apply
# or maintenance task: a per-instance ``__dict__`` on any of them is memory
# paid per operation.
PER_OPERATION_RECORDS = (
    VersionedValue, KeyRange, Operation, RequestResult, ReadOutcome,
    QueryResult, OperationOutcome, CacheEntry, UpdateTask, EntityWrite,
    MaintenanceResult, ComplianceWindow, PropagationRecord,
)


@pytest.mark.parametrize("cls", PER_OPERATION_RECORDS, ids=lambda cls: cls.__name__)
def test_per_operation_records_have_no_instance_dict(cls):
    assert not hasattr(cls.__new__(cls), "__dict__")


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


def test_a_node_store_is_its_dict():
    # A store is its dict plus the sorted prefix of its keys: the keys no
    # range read has ordered yet are the dict's own suffix, so no second key
    # list is kept beside them.
    tree = ast.parse(textwrap.dedent(inspect.getsource(_NamespaceStore)))
    assigned = {}
    for method in ast.walk(tree):
        if isinstance(method, ast.FunctionDef):
            assigned[method.name] = {
                target.attr for node in ast.walk(method)
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name) and target.value.id == "self"}
    assert assigned["__init__"] == {"_data", "_sorted_keys"}
    assert set().union(*assigned.values()) == {"_data", "_sorted_keys"}


def test_an_event_is_one_heap_entry():
    # No event object and no lazy cancellation: the heap holds only live
    # entries, and cancel() takes one out at once.
    source = (SRC / "sim" / "events.py").read_text(encoding="utf-8")
    assert "class Event:" not in source and "class Event(" not in source
    for word in ("cancelled", "popped", "_live"):
        assert word not in source, word
    assert len(source.splitlines()) <= MAX_EVENTS_LINES


def test_cache_store_module_does_not_grow():
    source = (SRC / "cache" / "store.py").read_text(encoding="utf-8")
    assert len(source.splitlines()) <= MAX_CACHE_STORE_LINES


def test_partitioner_module_does_not_grow():
    source = (SRC / "storage" / "partitioner.py").read_text(encoding="utf-8")
    assert len(source.splitlines()) <= MAX_PARTITIONER_LINES


def test_router_module_does_not_grow():
    source = (SRC / "storage" / "router.py").read_text(encoding="utf-8")
    assert len(source.splitlines()) <= MAX_ROUTER_LINES


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
    # One decision log: a control step is written down once, by the
    # controller's _action, and the sizing answer lives only in the plan.
    sources = {path: path.read_text(encoding="utf-8") for path in SRC.rglob("*.py")}
    assert sum(text.count("ProvisioningDecision(") for text in sources.values()) == 1
    for retired in ("ScalingAction", "LatencyRequirement", "make_backend", "SlaVerdict"):
        assert not any(retired in text for text in sources.values()), retired
    # ... and it is always kept: the control plane has no off path.
    for path, text in sources.items():
        if SRC / "core" in path.parents:
            assert not re.search(r"timeline is (not )?None", text), path


def _sources(*directories):
    return [path for directory in directories
            for path in (ROOT / directory).rglob("*.py")]


def test_a_scenario_spec_is_unpacked_in_one_place():
    # harness.run_closed_loop builds the spec's trace; a second hit is a
    # second hand-written ScenarioSpec -> engine mapping that can drift.
    sources = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in _sources("src", "benchmarks", "scripts", "examples")}
    builds = {path: text.count(".trace.build()") for path, text in sources.items()}
    assert {path: count for path, count in builds.items() if count} \
        == {"src/repro/experiments/harness.py": 1}
    # ... and it is the only way to run one: no relay and no second sweep.
    for retired in ("run_scenario", "run_sweep.py"):
        assert not any(retired in text for text in sources.values()), retired


def test_run_closed_loop_takes_no_new_parameter():
    assert len(inspect.signature(run_closed_loop).parameters) \
        <= MAX_RUN_CLOSED_LOOP_PARAMETERS


def test_makefile_does_not_grow():
    makefile = (ROOT / "Makefile").read_text(encoding="utf-8")
    assert len(re.findall(r"^[a-z][a-z-]*:", makefile, flags=re.M)) <= MAX_MAKE_TARGETS


def test_telemetry_keeps_no_registry():
    # A telemetry number lives in the record that owns it and
    # Scads.collect_telemetry() reads it there; no class keeps a second copy.
    for path in SRC.rglob("*.py"):
        classes = {node.name for node in ast.walk(_parse(path))
                   if isinstance(node, ast.ClassDef)}
        assert "Telemetry" not in classes, path


# numpy's quantile functions import numpy.ma on their first call (1.2 MB of
# RSS in every run); metrics.sla._linear_percentile is their formula without it.
NUMPY_QUANTILES = {"percentile", "quantile", "median",
                   "nanpercentile", "nanquantile", "nanmedian"}


def _numpy_quantile_calls(tree):
    """Names of the numpy quantile functions ``tree`` calls or imports."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in NUMPY_QUANTILES
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            found.append(node.func.attr)
        elif (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "numpy"):
            found.extend(alias.name for alias in node.names
                         if alias.name in NUMPY_QUANTILES)
    return found


def test_nothing_in_src_calls_a_numpy_quantile():
    offenders = {str(path.relative_to(ROOT)): calls for path in SRC.rglob("*.py")
                 if (calls := _numpy_quantile_calls(_parse(path)))}
    assert not offenders


def test_the_numpy_quantile_audit_flags_each_form():
    tree = ast.parse("import numpy as np\nfrom numpy import median\n"
                     "np.percentile(a, 99)\nnumpy.quantile(a, 0.5)\n"
                     "estimator.percentile(99)\n")
    assert sorted(_numpy_quantile_calls(tree)) == ["median", "percentile", "quantile"]


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


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defaults(arguments):
    """``({parameter: dumped default}, positional parameter names)``."""
    positional = arguments.posonlyargs + arguments.args
    pairs = list(zip(positional[len(positional) - len(arguments.defaults):],
                     arguments.defaults))
    pairs += [(arg, value) for arg, value in zip(arguments.kwonlyargs, arguments.kw_defaults)
              if value is not None]
    return {arg.arg: ast.dump(value) for arg, value in pairs}, [arg.arg for arg in positional]


def _owner(function, cls):
    """Whose parameters a function's are: its class for ``__init__`` (a call
    names the class), else its own name (a call names the method)."""
    return cls if function.name == "__init__" and cls else function.name


class _Declarations(ast.NodeVisitor):
    """Every defaulted parameter under src/repro/ (``"owner.name" -> dumped
    default``) -- of every function and method, plus the defaulted fields of
    a ``*Config`` dataclass -- and each callee's positional parameter orders.

    A call names its callee by its last name only, so methods that share a
    name share their parameters' keys (and a call is matched against every
    order the name has)."""

    def __init__(self):
        self.defaults, self.order, self.settable = {}, {}, set()
        self.classes = []

    def visit_ClassDef(self, node):
        if node.name.endswith("Config") and any(
                _callee(decorator) == "dataclass" for decorator in node.decorator_list):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            self.order.setdefault(node.name, []).append([item.target.id for item in fields])
            for item in fields:
                if item.value is not None:
                    key = f"{node.name}.{item.target.id}"
                    self.defaults[key] = ast.dump(item.value)
                    self.settable.add(key)
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        cls = self.classes[-1] if self.classes else None
        if node.name == "__init__" or not _dunder(node.name):
            owner = _owner(node, cls)
            defaults, positional = _defaults(node.args)
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            self.order.setdefault(owner, []).append(positional)
            for name, default in defaults.items():
                self.defaults.setdefault(f"{owner}.{name}", default)
                if owner == cls:
                    self.settable.add(f"{owner}.{name}")
        classes, self.classes = self.classes, []  # a nested def is no method
        self.generic_visit(node)
        self.classes = classes


def _declarations():
    declarations = _Declarations()
    for path in sorted(SRC.rglob("*.py")):
        declarations.visit(_parse(path))
    return declarations


class _Setters(ast.NodeVisitor):
    """Every call that passes a declared parameter: by keyword, by position,
    or as a key of a dict that reaches a ``**`` call.

    Passing a bare parameter of the enclosing function, or ``self.<name>`` of
    the enclosing class, with the same default as the callee's hands that
    default on: it sets the callee's value only if the relayed one is set.
    """

    def __init__(self, declarations):
        self.defaults = declarations.defaults
        self.order = declarations.order
        self.direct, self.relayed = set(), []
        self.dict_keys, self.starred = set(), set()
        self.scope = []  # (enclosing class, parameter owner, parameter names)

    def visit_ClassDef(self, node):
        self.scope.append((node.name, None, ()))
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        cls = self.scope[-1][0] if self.scope else None
        self.scope.append((cls, _owner(node, cls), _defaults(node.args)[0]))
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
        for order in self.order.get(callee, ()):
            for parameter, argument in zip(order, node.args):
                if isinstance(argument, ast.Starred):
                    break
                self._assign(f"{callee}.{parameter}", argument)
        self.generic_visit(node)

    def visit_Dict(self, node):
        self.dict_keys.update(key.value for key in node.keys
                              if isinstance(key, ast.Constant) and isinstance(key.value, str))
        self.generic_visit(node)


def _unset_parameters(declarations):
    """The declared parameters no code outside tests/ passes."""
    setters = _Setters(declarations)
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
    return sorted(set(declarations.defaults) - found)


_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")


def _listings(tree):
    """The nodes of every ``__all__`` and ``__slots__`` listing in a module:
    they name what a module exports or a class holds without using it."""
    return {id(node) for statement in ast.walk(tree) if isinstance(statement, ast.Assign)
            and any(getattr(target, "id", None) in ("__all__", "__slots__")
                    for target in statement.targets)
            for node in ast.walk(statement)}


def _references():
    """Every name code outside tests/ uses, as ``(names, attributes)``: each
    AST ``Name``, and each ``Attribute`` or identifier-shaped string
    (``getattr(obj, "name")``) -- not counting an ``__all__`` or
    ``__slots__`` listing (see ``_listings``)."""
    names, attributes = Counter(), Counter()
    for path in _sources(*CALLER_DIRECTORIES):
        tree = _parse(path)
        listed = _listings(tree)
        for node in ast.walk(tree):
            if id(node) in listed:
                continue
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                attributes[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and _IDENTIFIER.match(node.value):
                attributes[node.value] += 1
    return names, attributes


def _unreferenced_definitions():
    """``"Class.name"`` of every function, method and class under src/repro/
    whose name code outside tests/ never uses (dunders are called by Python).
    A method (a ``def`` directly in a class) is used only through an
    attribute or a string: a local variable of the same name is no call."""
    names, attributes = _references()
    unreferenced = []

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                method = prefix and not isinstance(node, ast.ClassDef)
                used = attributes[node.name] or (not method and names[node.name])
                if not _dunder(node.name) and not used:
                    unreferenced.append(prefix + node.name)
                if isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}{node.name}.")

    for path in sorted(SRC.rglob("*.py")):
        walk(_parse(path).body, "")
    return sorted(unreferenced)


def _seam_owners():
    """The parameter owner (see ``_owner``) of each test seam that is a
    function or method; a seam's parameters are exempt with it."""
    return {seam.rsplit(".", 1)[-1] for seam in TEST_SEAMS}


def test_every_definition_has_a_caller_outside_tests():
    unreferenced = _unreferenced_definitions()
    dead = [name for name in unreferenced if name not in TEST_SEAMS]
    assert dead == [], f"definitions only tests use: {dead}"


def test_every_defaulted_parameter_has_a_caller_outside_tests():
    declarations = _declarations()
    unset = _unset_parameters(declarations)
    owners = _seam_owners()
    knobs = [key for key in unset if key.split(".", 1)[0] not in owners]
    assert knobs == [], f"defaulted parameters only tests pass: {knobs}"
    assert len(declarations.settable) <= MAX_SETTABLE_VALUES
    assert len(declarations.defaults) <= MAX_DEFAULTED_PARAMETERS


def test_every_test_seam_is_one():
    # A seam that code outside tests/ came to use (or that was deleted) is
    # no longer an exception; it leaves the list.
    unreferenced = set(_unreferenced_definitions())
    unset_owners = {key.split(".", 1)[0] for key in _unset_parameters(_declarations())}
    assert len(TEST_SEAMS) <= MAX_TEST_SEAMS
    stale = [seam for seam in TEST_SEAMS
             if seam not in unreferenced and seam.rsplit(".", 1)[-1] not in unset_owners]
    assert stale == []


# ------------------------------------------------------------- stored values

# Nothing is stored for nobody: every field of a dataclass or NamedTuple and
# every ``self.<name> = ...`` under src/repro/ is read by code outside tests/
# -- except these, each with why it stays.  A counter only incremented, or a
# value only a constructor keyword sets, is work that runs for no reader.
MAX_UNREAD_VALUES = 1
UNREAD_VALUES = {
    "UserProfile.signup_day":
        "drawn from the seeded graph stream between a profile's hometown and "
        "the next profile's birthday; without the draw every fingerprint moves",
}


def _is_record(cls):
    """Is a class a ``@dataclass`` or a ``NamedTuple`` (its fields are stores)?"""
    return any(_callee(decorator) == "dataclass" for decorator in cls.decorator_list) \
        or any(_callee(base) == "NamedTuple" for base in cls.bases)


class _Stores(ast.NodeVisitor):
    """Every stored value of a module, as ``"Class.name"``: each field of a
    record class (see ``_is_record``) and each ``self.<name> = ...`` in a
    class.  A class that reads itself whole -- ``fields(self)`` or
    ``asdict(self)`` -- reads every field, so it is collected in ``whole``."""

    def __init__(self):
        self.stores, self.whole, self.classes = set(), set(), []

    def visit_ClassDef(self, node):
        if _is_record(node):
            self.stores.update(
                f"{node.name}.{item.target.id}" for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.dump(item.annotation))
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "self" \
                and self.classes:
            self.stores.add(f"{self.classes[-1]}.{node.attr}")
        self.generic_visit(node)

    def visit_Call(self, node):
        if _callee(node) in ("fields", "asdict") and node.args \
                and getattr(node.args[0], "id", None) == "self" and self.classes:
            self.whole.add(self.classes[-1])
        self.generic_visit(node)


# The calls an identifier-shaped string names an attribute in: the uses a
# string read of a stored value is counted for.  Any other string -- a dict
# key, an enum value, a label -- is data, even when it shares a field's name.
ATTRIBUTE_BY_NAME = {"getattr", "hasattr", "setattr", "delattr",
                     "attrgetter", "methodcaller"}


def _defined_names(trees):
    """The name of every ``def`` in ``trees``."""
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _reads(tree, methods):
    """The attribute names a module reads: each ``Attribute`` that is not a
    store target (``x.a += 1`` only stores) and each identifier-shaped string
    passed to a call in ``ATTRIBUTE_BY_NAME`` (``getattr(obj, "a")``).

    A call ``x.a(...)`` reads a stored ``a`` only when no ``def a`` is among
    ``methods`` (every ``def`` of the scanned code): otherwise it calls that
    method, and a stored callable read by calling it
    (``self._pending_maintenance()``) is the case with no such ``def``.  A
    constructor keyword is no read: it is a ``keyword``, not an ``Attribute``."""
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in methods}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store) \
                and id(node) not in called:
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and _callee(node) in ATTRIBUTE_BY_NAME:
            reads.update(argument.value for argument in node.args
                         if isinstance(argument, ast.Constant)
                         and isinstance(argument.value, str)
                         and _IDENTIFIER.match(argument.value))
    return reads


def _unread_values(stored, reading):
    """``"Class.name"`` of every value the ``stored`` modules store that no
    ``reading`` module reads (see ``_reads``).  Names are matched by their
    last part, as in ``_references``: a read of ``x.count`` reads every stored
    ``count``."""
    stores = _Stores()
    for tree in stored:
        stores.visit(tree)
    methods = _defined_names(reading)
    reads = set().union(*(_reads(tree, methods) for tree in reading))
    return sorted(key for key in stores.stores
                  if key.split(".")[0] not in stores.whole
                  and key.rsplit(".", 1)[1] not in reads)


def test_every_stored_value_is_read_outside_tests():
    unread = _unread_values([_parse(path) for path in sorted(SRC.rglob("*.py"))],
                            [_parse(path) for path in _sources(*CALLER_DIRECTORIES)])
    unexcused = [key for key in unread if key not in UNREAD_VALUES]
    assert unexcused == [], f"values only tests (or nothing) read: {unexcused}"
    # An exception that code outside tests/ came to read is no longer one.
    assert sorted(UNREAD_VALUES) == sorted(set(unread) & set(UNREAD_VALUES))
    assert len(UNREAD_VALUES) <= MAX_UNREAD_VALUES


def test_the_stored_value_audit_flags_what_nothing_reads():
    source = ast.parse(textwrap.dedent("""
        from dataclasses import dataclass, fields

        class Counter:
            def __init__(self):
                self.bumps = 0
                self.label = "c"

            def bump(self):
                self.bumps += 1
                return self.label

        class Slotted:
            __slots__ = ("kept", "dropped")

            def __init__(self):
                self.kept = self.dropped = 0

            def total(self):
                return self.kept

        @dataclass
        class Plan:
            nodes: int
            note: str

        @dataclass
        class Features:
            rate: float
            load: float

            def as_vector(self):
                return [getattr(self, f.name) for f in fields(self)]

        plan = Plan(nodes=Counter().bump(), note="sized")
        print(plan.nodes, Slotted().total(), Features(rate=1.0, load=2.0).as_vector())
    """))
    assert _unread_values([source], [source]) == [
        "Counter.bumps", "Plan.note", "Slotted.dropped"]


def test_the_stored_value_audit_judges_a_name_by_its_reader():
    source = ast.parse(textwrap.dedent("""
        import enum
        from dataclasses import dataclass

        class Policy(enum.Enum):
            LAST = "last_wins"

        @dataclass
        class Stats:
            total: int
            last_wins: int
            merged: int
            label: str
            hook: object

        class Cluster:
            def total(self):
                return 0

        stats = Stats(total=1, last_wins=0, merged=0, label="s", hook=print)
        print(Cluster().total(), {"merged": 1}, getattr(stats, "label"), stats.hook())
    """))
    # total: only a same-named method is called; last_wins: only an enum
    # value; merged: only a dict key.  getattr's string and the stored
    # callable that is called (no ``def hook``) are reads.
    assert _unread_values([source], [source]) == [
        "Stats.last_wins", "Stats.merged", "Stats.total"]


# ----------------------------------------------------------------- registries

# The kind registries of parallel/spec.py map the names a spec uses to what
# the harness builds from them; a kind that no scenario, benchmark, example,
# script or perfbench workload names is kept for nobody.
REGISTRIES = ("TRACE_KINDS", "MIX_KINDS", "FAULT_KINDS")


def _unnamed_registry_keys(trees, registries):
    """``{registry: [key, ...]}`` for each dict literal assigned to a name in
    ``registries``: the string keys no string constant of ``trees`` names
    outside that literal."""
    literals, strings = {}, []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and isinstance(node.value, ast.Dict):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                literals.update((target.id, node.value) for target in targets
                                if getattr(target, "id", None) in registries)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.append(node)
    unnamed = {}
    for registry, literal in literals.items():
        inside = {id(node) for node in ast.walk(literal)}
        named = {node.value for node in strings if id(node) not in inside}
        unnamed[registry] = [key.value for key in literal.keys
                             if isinstance(key, ast.Constant) and key.value not in named]
    return unnamed


def test_every_registered_kind_is_named_outside_tests():
    unnamed = _unnamed_registry_keys(
        [_parse(path) for path in sorted(_sources(*CALLER_DIRECTORIES))], REGISTRIES)
    assert unnamed == {registry: [] for registry in REGISTRIES}


def test_the_registry_audit_flags_a_kind_named_nowhere_else():
    source = ast.parse(textwrap.dedent('''
        KINDS = {"used": Used, "unused": Unused}
        MIXES: dict = {"plain": {}}
        OTHER = {"unlisted": 1}
        spec = Spec("used", note="the ``unused`` kind, spelled in prose")
    '''))
    assert _unnamed_registry_keys([source], ("KINDS", "MIXES")) == {
        "KINDS": ["unused"], "MIXES": ["plain"]}
