"""Host-time span tracer for the traced benchmark pass.

The tracer lives entirely in the benchmark: it replaces public methods of the
engine's layers with timing wrappers *at class level* before the engine is
constructed and puts the originals back afterwards, so ``src/`` needs no hooks
and an untraced run pays nothing.  Every wrapper reads only the host clock —
never an RNG or the simulated clock — so a traced run must produce the same
``sim_fingerprint`` as an untraced run (``run.py`` checks it).

Accounting.  A span's *self* time is its duration minus the durations of the
spans it directly called, taken from a stack, so self times partition the time
spent inside root spans exactly.  Root spans are the event actions: wrapping
``EventQueue.push`` wraps each scheduled action in a span named after the
event (``replicate:entity:profiles`` -> ``sim.event.replicate``).  Whatever
part of a timed segment no root span covers is the kernel itself — heap
push/pop, clock, dispatch — and is reported as ``sim.kernel``.  The wrappers'
own cost lands in the caller's self time (or in the kernel for roots), which
is what ``trace.overhead_ratio`` measures against the untraced pass.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

from repro.apps.social_network import SocialNetworkApp
from repro.cache.tier import CacheTier
from repro.cloud.pool import InstancePool
from repro.core.engine import Scads
from repro.core.index.maintenance import IndexMaintainer
from repro.core.index.updater import AsyncIndexUpdater
from repro.core.provisioning.controller import ProvisioningController
from repro.core.provisioning.monitor import SLAMonitor
from repro.core.provisioning.planner import CapacityPlanner
from repro.core.provisioning.spotfleet import SpotFleetManager
from repro.core.query.executor import QueryExecutor
from repro.sim.events import EventQueue
from repro.storage.node import StorageNode
from repro.storage.rebalancer import Rebalancer
from repro.storage.replication import ReplicationEngine
from repro.storage.router import Router
from repro.workloads.opmix import CloudStoneMix

# Span name -> the public callables it covers.  Functions that take about a
# microsecond (latency sampling, estimator appends, heap operations) are left
# to the micro run: a wrapper would cost as much as the call it times.
# ``Router.delete`` needs no entry of its own: it delegates to ``write``.
SPAN_TARGETS: Dict[str, List[Tuple[type, str]]] = {
    # request path
    "workloads.draw": [(CloudStoneMix, "next_operation")],
    "apps.execute": [(SocialNetworkApp, "execute")],
    "core.engine.get": [(Scads, "get")],
    "core.engine.put": [(Scads, "put")],
    "core.engine.query": [(Scads, "query")],
    "core.query.execute": [(QueryExecutor, "execute")],
    "cache.lookup": [(CacheTier, "lookup_entity"), (CacheTier, "lookup_range")],
    "cache.admit": [(CacheTier, "admit_entity"), (CacheTier, "admit_range")],
    "cache.invalidate": [(CacheTier, "note_entity_write"),
                         (CacheTier, "note_index_write")],
    "storage.router.read": [(Router, "read")],
    "storage.router.read_many": [(Router, "read_many")],
    "storage.router.read_range": [(Router, "read_range")],
    "storage.router.write": [(Router, "write")],
    "storage.node.serve": [(StorageNode, "get"), (StorageNode, "multi_get"),
                           (StorageNode, "get_range"), (StorageNode, "put"),
                           (StorageNode, "delete")],
    "storage.replication.propagate": [(ReplicationEngine, "propagate"),
                                      (ReplicationEngine, "synchronous_write")],
    "storage.replication.apply": [(StorageNode, "apply_replica_write")],
    "core.index.enqueue": [(AsyncIndexUpdater, "enqueue")],
    "core.index.apply": [(IndexMaintainer, "apply")],
    # control plane
    "core.provisioning.step": [(ProvisioningController, "control_step")],
    "core.provisioning.observe": [(SLAMonitor, "close_window")],
    "core.provisioning.plan": [(CapacityPlanner, "plan")],
    "core.provisioning.spotfleet": [(SpotFleetManager, "tick")],
    "storage.rebalancer.step": [(Rebalancer, "rebalance_once"),
                                (Rebalancer, "merge_cold_partitions")],
    "cloud.pool.lifecycle": [(InstancePool, "launch"), (InstancePool, "terminate"),
                             (InstancePool, "hibernate"), (InstancePool, "resume")],
}

# Event names (up to the first ':') that get a root span of their own; every
# other scheduled action is ``sim.event.other``.
ROOT_EVENTS = ("load-generator", "replicate", "replicate-retry", "index-updater",
               "provisioning-loop", "boot", "migration")

TRACE_ROOT = "apps.execute"          # each call opens a new trace id
STEP_SPAN = "core.provisioning.step"  # durations kept for step_ms_p50

SPAN_NAMES: Tuple[str, ...] = (
    tuple(f"sim.event.{name}" for name in ROOT_EVENTS + ("other",))
    + tuple(SPAN_TARGETS)
)


class SpanTracer:
    """Aggregates spans per name; optionally keeps the first raw spans.

    Args:
        keep_spans: how many raw spans ``(name, start_ns, end_ns,
            parent_start_ns, trace_id)`` to retain for the ``--spans`` dump.
            ``parent_start_ns`` is the start of the enclosing span (-1 for a
            root); ``trace_id`` is the sequence number of the enclosing
            ``apps.execute`` call (0 outside one).  Aggregates always cover
            every span, retained or not.
    """

    def __init__(self, keep_spans: int = 0) -> None:
        self._ids = {name: index for index, name in enumerate(SPAN_NAMES)}
        self.calls = [0] * len(SPAN_NAMES)
        self.self_ns = [0] * len(SPAN_NAMES)
        self.root_ns = 0
        self.ops = 0
        self.trace_id = 0
        self.step_ns: List[int] = []
        self.spans: List[Tuple[str, int, int, int, int]] = []
        self._keep = keep_spans
        self._stack: List[List[int]] = []
        self._root_ids = {name: self._ids[f"sim.event.{name}"] for name in ROOT_EVENTS}
        self._other_id = self._ids["sim.event.other"]

    def reset(self) -> None:
        """Forget everything recorded so far (called after set-up)."""
        self.calls[:] = [0] * len(SPAN_NAMES)
        self.self_ns[:] = [0] * len(SPAN_NAMES)
        self.root_ns = 0
        self.ops = 0
        self.step_ns.clear()
        self.spans.clear()

    # ---------------------------------------------------------------- wrapping

    def _span(self, name: str, fn: Callable) -> Callable:
        index = self._ids[name]
        clock = time.perf_counter_ns
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        spans = self.spans
        keep = self._keep
        opens_trace = name == TRACE_ROOT
        durations = self.step_ns if name == STEP_SPAN else None

        def wrapper(*args, **kwargs):
            if opens_trace:
                self.ops += 1
                self.trace_id = self.ops
            parent = stack[-1] if stack else None
            frame = [0, 0]  # [time covered by child spans, own start]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[index] += 1
                self_ns[index] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                else:
                    self.root_ns += duration
                if durations is not None:
                    durations.append(duration)
                if len(spans) < keep:
                    spans.append((name, start, end,
                                  parent[1] if parent is not None else -1,
                                  self.trace_id))
                if opens_trace:
                    self.trace_id = 0

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _root_action(self, event_name: str, action: Callable) -> Callable:
        prefix = event_name.partition(":")[0]
        if prefix.startswith("migration-"):
            prefix = "migration"
        index = self._root_ids.get(prefix, self._other_id)
        return self._span(SPAN_NAMES[index], action)

    # ------------------------------------------------------------ installation

    @contextmanager
    def installed(self) -> Iterator["SpanTracer"]:
        """Patch the layer classes for the duration of the ``with`` block.

        Must be entered before the engine is constructed: objects that keep a
        bound method at construction time then keep the wrapper.
        """
        originals: List[Tuple[type, str, object]] = []

        def patch(cls: type, attr: str, replacement: Callable) -> None:
            originals.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, replacement)

        try:
            for name, targets in SPAN_TARGETS.items():
                for cls, attr in targets:
                    patch(cls, attr, self._span(name, cls.__dict__[attr]))
            push = EventQueue.__dict__["push"]

            def traced_push(queue, time, action, priority=0, name=""):
                return push(queue, time, self._root_action(name, action),
                            priority, name)

            patch(EventQueue, "push", traced_push)
            yield self
        finally:
            for cls, attr, original in reversed(originals):
                setattr(cls, attr, original)

    # ----------------------------------------------------------------- results

    def layer_metrics(self, ops: int, wall_ns: int, slowdown: float = 1.0) -> Dict[str, float]:
        """Per-span ``calls_per_kop`` / ``self_us_per_op`` over ``ops`` workload
        operations whose timed segments took ``wall_ns`` in total, on a machine
        that ran ``slowdown`` times slower than the reference meanwhile."""
        us_per_op = 1.0 / 1000.0 / ops / slowdown
        metrics: Dict[str, float] = {}
        for index, name in enumerate(SPAN_NAMES):
            metrics[f"{name}.calls_per_kop"] = 1000.0 * self.calls[index] / ops
            metrics[f"{name}.self_us_per_op"] = self.self_ns[index] * us_per_op
        kernel_ns = wall_ns - self.root_ns
        metrics["sim.kernel.self_us_per_op"] = kernel_ns * us_per_op
        attributed = sum(self.self_ns) + kernel_ns
        metrics["trace.unattributed_share"] = abs(wall_ns - attributed) / wall_ns
        # 0.0 if the run was too short for a control step
        metrics["core.provisioning.step_ms_p50"] = (
            statistics.median(self.step_ns) / 1e6 / slowdown if self.step_ns else 0.0)
        return metrics
