"""Micro run: isolated calls into each layer's public functions.

The traced pass cannot time functions that take about a microsecond (a wrapper
costs as much as the call), so they are timed here in tight loops instead:
nanoseconds (or microseconds) per call, median of ``REPEATS`` batches.  An
isolated call runs 20-40 % faster than the same call in situ (warm caches, no
interleaving — see PERFORMANCE.md), which is why the traced pass exists too;
use these to see *whether a layer's own cost moved*, and the traced pass to see
what that is worth end to end.

``quick()`` is cheap enough to ride along with every traced pass; ``full()``
adds the two ratios that need whole simulation runs.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

import numpy as np

from repro.cache.tier import CacheConfig, CacheTier
from repro.core.index.maintenance import EntityWrite
from repro.core.query.plans import entity_namespace
from repro.experiments.harness import build_engine_and_app, default_spec
from repro.metrics.percentiles import PercentileEstimator
from repro.metrics.sla import WindowedComplianceTracker
from repro.parallel.executor import run_sweep
from repro.parallel.spec import ScenarioSpec, SweepGrid, TraceSpec
from repro.sim.events import EventQueue
from repro.sim.latency import LogNormalLatency, QueueingLatency
from repro.sim.simulator import Simulator
from repro.workloads.opmix import CloudStoneMix

from perfbench import workloads

REPEATS = 5
SEED = 11


@dataclass(frozen=True)
class Effort:
    """How hard the micro run works: the share of each batch's nominal call
    count, and how many batches the median is over.  The smoke test runs
    ``Effort(0.01, 1)`` to check names and plumbing, not to measure."""

    share: float = 1.0
    repeats: int = REPEATS

    def calls(self, nominal: int) -> int:
        return max(int(nominal * self.share), 10)

    def per_call(self, batch: Callable[[], int], unit_ns: float = 1.0,
                 between: Optional[Callable[[], object]] = None) -> float:
        """Median host time per call over ``repeats`` batches.

        ``batch`` makes its calls and returns how many it made; ``between``
        runs untimed after each batch (to fire the events a batch of writes
        scheduled, so the next batch does not push onto an ever-deeper heap).
        """
        samples = []
        for _ in range(self.repeats):
            started = time.perf_counter_ns()
            calls = batch()
            samples.append((time.perf_counter_ns() - started) / calls / unit_ns)
            if between is not None:
                between()
        return statistics.median(samples)


# ----------------------------------------------------------------- sim / metrics


def event_push_pop_ns(effort: Effort) -> float:
    n = effort.calls(20_000)
    times = np.random.default_rng(SEED).random(n).tolist()

    def batch() -> int:
        queue = EventQueue()
        for at in times:
            queue.push(at, None)
        while queue:
            queue.pop()
        return n

    return effort.per_call(batch)


def latency_sample_ns(effort: Effort) -> float:
    n = effort.calls(50_000)
    model = QueueingLatency(LogNormalLatency(0.004, 0.45))
    model.set_utilisation(0.5)
    rng = np.random.default_rng(SEED)

    def batch() -> int:
        sample = model.sample
        for _ in range(n):
            sample(rng)
        return n

    return effort.per_call(batch)


def estimator_add_ns(effort: Effort) -> float:
    n = effort.calls(50_000)
    values = np.random.default_rng(SEED).random(n).tolist()

    def batch() -> int:
        estimator = PercentileEstimator()
        for index, value in enumerate(values):
            estimator.add(value)
            if index % 1000 == 999:
                estimator.percentile(99.0)
        return n

    return effort.per_call(batch)


def window_observe_ns(effort: Effort) -> float:
    n = effort.calls(50_000)
    latencies = (np.random.default_rng(SEED).random(n) * 0.3).tolist()

    def batch() -> int:
        tracker = WindowedComplianceTracker(60.0, workloads.SLA_LATENCY_S)
        now = 0.0
        for latency in latencies:
            now += 0.01
            tracker.observe(now, latency)
        return n

    return effort.per_call(batch)


# ------------------------------------------------------------------ engine layers


class _Fixture:
    """One small loaded engine shared by the request-path micros."""

    def __init__(self, n_users: int) -> None:
        self.engine, self.app, self.graph = build_engine_and_app(
            seed=SEED, n_users=n_users, autoscale=False, initial_groups=4)
        self.users = self.graph.users()
        self.namespace = entity_namespace("profiles")


def draw_ns(fixture: _Fixture, effort: Effort) -> float:
    n = effort.calls(20_000)
    mix = CloudStoneMix(fixture.graph, np.random.default_rng(SEED))

    def batch() -> int:
        for _ in range(n):
            mix.next_operation()
        return n

    return effort.per_call(batch)


def router_read_ns(fixture: _Fixture, effort: Effort) -> float:
    n = effort.calls(10_000)
    router, namespace = fixture.engine.router, fixture.namespace
    keys = [(user,) for user in fixture.users]

    def batch() -> int:
        for index in range(n):
            router.read(namespace, keys[index % len(keys)])
        return n

    return effort.per_call(batch)


def router_write_ns(fixture: _Fixture, effort: Effort) -> float:
    n = effort.calls(4_000)
    engine, namespace = fixture.engine, fixture.namespace
    rows = [((user,), {"user_id": user, "name": "n", "birthday": "01-01", "hometown": "h"})
            for user in fixture.users]

    def batch() -> int:
        for index in range(n):
            key, row = rows[index % len(rows)]
            engine.router.write(namespace, key, row)
        return n

    return effort.per_call(batch, between=lambda: engine.run_for(5.0))


def _cache_tier() -> CacheTier:
    return CacheTier(CacheConfig(), spec=default_spec(), simulator=Simulator(seed=SEED))


def cache_lookup_hit_ns(effort: Effort) -> float:
    n = effort.calls(20_000)
    tier = _cache_tier()
    keys = [(f"u{index:08d}",) for index in range(1000)]
    for key in keys:
        tier.admit_entity("entity:profiles", key, object(), 0.0)

    def batch() -> int:
        for index in range(n):
            tier.lookup_entity("entity:profiles", keys[index % 1000], None)
        return n

    return effort.per_call(batch)


def cache_lookup_miss_ns(effort: Effort) -> float:
    n = effort.calls(20_000)
    tier = _cache_tier()
    keys = [(f"u{index:08d}",) for index in range(1000)]

    def batch() -> int:
        for index in range(n):
            tier.lookup_entity("entity:profiles", keys[index % 1000], None)
        return n

    return effort.per_call(batch)


def cache_range_containment_ns(effort: Effort) -> float:
    """A range lookup that misses its exact token with 128 other users' scans
    cached in the namespace — the scan ``_containment_lookup`` then walks."""
    n = effort.calls(2_000)
    tier = _cache_tier()
    namespace = "index:friends"
    for index in range(128):
        user = f"u{index:08d}"
        rows = [((user, f"f{friend:04d}"), {}) for friend in range(4)]
        tier.admit_range(namespace, (user,), (user, "￿"), 50, False, rows)
    probes = [(f"v{index:08d}",) for index in range(100)]

    def batch() -> int:
        for index in range(n):
            start = probes[index % 100]
            tier.lookup_range(namespace, start, start + ("￿",), 50, False)
        return n

    return effort.per_call(batch)


def index_apply_us(fixture: _Fixture, effort: Effort) -> float:
    n = effort.calls(2_000)
    maintainer = fixture.engine.maintainer
    users = fixture.users
    writes = [
        EntityWrite(entity="friendships", old_row=None,
                    new_row={"f1": users[index % len(users)],
                             "f2": users[(index * 7 + 1) % len(users)]})
        for index in range(n)
    ]

    def batch() -> int:
        for write in writes:
            maintainer.apply(write)
        return n

    return effort.per_call(batch, unit_ns=1000.0,
                     between=lambda: fixture.engine.run_for(5.0))


def provisioning_step_us(groups: int, effort: Effort, steps: int = 3) -> float:
    """One ``control_step`` on an idle ``groups``-group cluster.

    Each repeat builds a fresh engine: a step may act (an idle cluster is a
    scale-down candidate), and the next step would then see another size.
    """
    samples = []
    for _ in range(effort.repeats):
        engine, _, _ = build_engine_and_app(
            seed=SEED, n_users=20, autoscale=True, predictive_scaling=False,
            initial_groups=groups, control_interval=30.0)
        engine.run_for(30.0)
        started = time.perf_counter_ns()
        for _ in range(steps):
            engine.controller.control_step()
        samples.append((time.perf_counter_ns() - started) / steps / 1000.0)
    return statistics.median(samples)


def quick(effort: Effort = Effort()) -> Dict[str, float]:
    """The cheap micros (a few seconds in total at full effort)."""
    fixture = _Fixture(n_users=max(effort.calls(300), 40))
    return {
        "micro.sim.event_push_pop_ns": event_push_pop_ns(effort),
        "micro.sim.latency_sample_ns": latency_sample_ns(effort),
        "micro.workloads.draw_ns": draw_ns(fixture, effort),
        "micro.storage.router_read_ns": router_read_ns(fixture, effort),
        "micro.storage.router_write_ns": router_write_ns(fixture, effort),
        "micro.cache.lookup_hit_ns": cache_lookup_hit_ns(effort),
        "micro.cache.lookup_miss_ns": cache_lookup_miss_ns(effort),
        "micro.cache.range_containment_ns": cache_range_containment_ns(effort),
        "micro.metrics.estimator_add_ns": estimator_add_ns(effort),
        "micro.metrics.window_observe_ns": window_observe_ns(effort),
        "micro.core.index.apply_us": index_apply_us(fixture, effort),
        "micro.core.provisioning.step_us_g8": provisioning_step_us(8, effort),
        "micro.core.provisioning.step_us_g32": provisioning_step_us(32, effort),
        "micro.core.provisioning.step_us_g128": provisioning_step_us(128, effort),
    }


# --------------------------------------------------------------- whole-run ratios


def telemetry_on_ratio(sim_seconds: float = 60.0) -> float:
    """Host time with ``telemetry=True`` over host time without, on 60
    simulated seconds of ``steady-skewed``; the two fingerprints must match."""
    workload = workloads.WORKLOADS["steady-skewed"]
    scale = sim_seconds / workload.sim_seconds
    variants = {telemetry: replace(workload, engine_kwargs={**workload.engine_kwargs,
                                                            "telemetry": telemetry})
                for telemetry in (False, True)}
    walls: Dict[bool, list] = {False: [], True: []}
    prints = {}
    for _ in range(3):  # off and on alternate, so drift in host speed hits both
        for telemetry, variant in variants.items():
            run = workloads.simulate(variant, SEED, scale)
            walls[telemetry].append(sum(workloads.calibrated_segment_ns(run)))
            prints[telemetry] = workloads.fingerprint(run)
    if prints[True] != prints[False]:
        raise AssertionError("telemetry changed the simulation's fingerprint")
    return statistics.median(walls[True]) / statistics.median(walls[False])


def sweep_speedup_2w() -> float:
    """Wall-clock of four 30-simulated-second runs on one worker over the
    same four on two; the per-run results must be identical."""
    scenario = ScenarioSpec(
        name="perfbench-sweep", trace=TraceSpec("constant", {"rate": 300.0}),
        duration=30.0, n_users=300, autoscale=True, predictive_scaling=False,
        initial_groups=10, control_interval=30.0)
    grid = SweepGrid(scenario=scenario, replicates=4, base_seed=SEED)
    serial = run_sweep(grid, workers=1)
    pooled = run_sweep(grid, workers=2)
    if _portable(serial) != _portable(pooled):
        raise AssertionError("sweep results differ between 1 and 2 workers")
    return serial.wall_seconds / pooled.wall_seconds


def _portable(sweep) -> list:
    """Every deterministic field of each run's summary (wall-clock exempt)."""
    out = []
    for record in sweep.records:
        if not record.ok:
            raise AssertionError(f"sweep run {record.run_id} failed: {record.message}")
        summary = record.summary
        out.append((summary.operation_counts, summary.summary(),
                    summary.read_latency.snapshot(), summary.write_latency.snapshot()))
    return out


def full() -> Dict[str, float]:
    """Every micro, including the two that run whole simulations."""
    return {
        **quick(),
        "micro.obs.telemetry_on_ratio": telemetry_on_ratio(),
        "micro.parallel.sweep_speedup_2w": sweep_speedup_2w(),
    }
