"""The benchmark's workloads and the one code path that runs them.

Every workload goes through the same public surface a sweep or an example
uses — ``build_engine_and_app`` + ``LoadGenerator`` + ``SocialNetworkApp.execute``
with ``autoscale=True, predictive_scaling=False, control_interval=30`` and
otherwise ``Scads()`` defaults — and differs only in the generated inputs
(graph size, operation mix, popularity skew, load trace, fault plan) and, for
``elastic-faults``, the engine knobs that switch the spot/contention machinery
on at all.  ``BENCHMARK.json`` says in one line why each exists,
``perfbench/README.md`` at length.

Clocks.  The load generator is open-loop in *simulated* time (Poisson arrivals
at the trace's rate, whatever the completions do); the run is a batch job in
*host* time.  Names starting ``sim`` are simulated time or simulated dollars;
everything else is host time.
"""

from __future__ import annotations

import hashlib
import json
import operator
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import build_engine_and_app, build_mix, install_fault_plan
from repro.parallel.spec import FaultSpec
from repro.workloads.generator import LoadGenerator
from repro.workloads.traces import (
    AnimotoViralTrace,
    ConstantTrace,
    HalloweenSpikeTrace,
    LoadTrace,
)

from perfbench import calibration

# The timed section advances in segments of this many simulated seconds, so
# host time per simulated second has a distribution and not only a mean.
SEGMENT_SIM_S = 2.0

# SLA the simulated-compliance metrics are judged against (the harness's
# default spec: 99 % of reads within 150 ms).
SLA_LATENCY_S = 0.150


@dataclass(frozen=True)
class Workload:
    """One set of generated inputs.

    ``sim_seconds`` is the simulated duration at time scale 1; ``trace`` and
    ``faults`` take the time scale so that every phase (spike, ramp, outage)
    keeps its place when the whole run is shortened or stretched.
    """

    name: str
    n_users: int
    initial_groups: int
    mix: str
    sim_seconds: float
    trace: Callable[[float], LoadTrace]
    engine_kwargs: Dict[str, object] = field(default_factory=dict)
    faults: Callable[[float], Sequence[FaultSpec]] = lambda scale: ()
    # What must hold for the workload to exercise the layers it exists for:
    # (fact from ``premise_facts``, comparison, threshold).
    premises: Sequence[Tuple[str, str, float]] = ()


_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
                "==": operator.eq}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="steady-skewed",
        n_users=300, initial_groups=10, mix="cloudstone", sim_seconds=900.0,
        trace=lambda scale: ConstantTrace(rate=300.0),
        premises=(("cache_hit_ratio", ">", 0.6),),
    ),
    Workload(
        name="uniform-coldcache",
        n_users=2000, initial_groups=12, mix="uniform_read", sim_seconds=900.0,
        trace=lambda scale: ConstantTrace(rate=200.0),
        premises=(("cache_hit_ratio", "<", 0.4), ("cache_evictions_per_kop", ">", 0.0),
                  ("sim_read_sla_attainment", ">", 0.99)),
    ),
    Workload(
        name="write-storm",
        n_users=200, initial_groups=3, mix="write_heavy", sim_seconds=1800.0,
        trace=lambda scale: HalloweenSpikeTrace(
            base_rate=60.0, spike_multiplier=4.0, spike_start=300.0 * scale,
            rise_duration=60.0 * scale, hold_duration=300.0 * scale,
            decay_duration=300.0 * scale),
        premises=(("write_share", ">=", 0.4), ("scale_ups", ">=", 1)),
    ),
    Workload(
        name="elastic-faults",
        # The control interval (30 s) and boot delay (60 s) do not shrink with
        # the time scale, so the plan is laid out for the scale the benchmark
        # runs at: one group, so the ramp forces a spot surge early; the noisy
        # host first; the storm once surge replicas exist to be revoked; the
        # outage last and long enough for its retry traffic to build.
        n_users=200, initial_groups=1, mix="cloudstone", sim_seconds=2400.0,
        trace=lambda scale: AnimotoViralTrace(
            start_rate=20.0, peak_multiplier=6.0, ramp_start=40.0 * scale,
            ramp_duration=400.0 * scale),
        engine_kwargs={"spot": True, "replication_factor": 3,
                       "contention": {"tenancy": 4}, "write_audit": True},
        faults=lambda scale: (
            FaultSpec("host_degradation", at=600.0 * scale, duration=300.0 * scale,
                      params={"host_id": "host-0", "intensity": 10.0}),
            FaultSpec("interruption_storm", at=1300.0 * scale, duration=300.0 * scale),
            FaultSpec("zone_outage", at=1750.0 * scale, duration=400.0 * scale,
                      params={"zone_index": 1}),
        ),
        premises=(("evacuations", ">=", 1), ("scale_ups", ">=", 1),
                  ("events_per_op", ">", 2.5), ("faults_recorded", "==", 3),
                  ("lost_writes", "==", 0)),
    ),
)}


@dataclass
class Run:
    """One built engine and what its timed section measured."""

    workload: Workload
    engine: object
    app: object
    generator: LoadGenerator
    injector: Optional[object]
    setup_s: float
    setup_slices: List[int]     # calibration slices taken around set-up
    segment_ns: List[int]
    slices: List[Tuple[int, int]]  # (segments completed when taken, slice ns)
    baseline: Dict[str, float]  # raw counters when the load started
    checkpoint: Optional[str]   # fingerprint taken after ``checkpoint_at`` segments

    @property
    def ops(self) -> int:
        return self.generator.stats.operations_issued

    @property
    def wall_ns(self) -> int:
        return sum(self.segment_ns)


def segments_for(workload: Workload, time_scale: float) -> int:
    """Whole segments in the workload's simulated duration at ``time_scale``
    (at least two: the segment quantiles need a distribution)."""
    return max(int(round(workload.sim_seconds * time_scale / SEGMENT_SIM_S)), 2)


def simulate(workload: Workload, seed: int, time_scale: float,
             n_segments: Optional[int] = None, n_users: Optional[int] = None,
             checkpoint_at: Optional[int] = None,
             before_load: Optional[Callable[[], None]] = None) -> Run:
    """Build the engine, bulk-load the graph, then run the timed section.

    ``n_segments`` below ``segments_for(...)`` runs a *prefix* of the same
    simulation (same phases, same seed); ``checkpoint_at`` fingerprints a
    longer run at that prefix, between two segments, so the two can be
    compared.  ``before_load`` runs between set-up and the timed section (the
    traced pass forgets its set-up spans there).  Calibration slices
    (``perfbench/calibration.py``) run around set-up and between segments,
    outside every timed interval and every span.
    """
    setup_slices = [calibration.slice_ns() for _ in range(3)]
    started = time.perf_counter()
    engine, app, graph = build_engine_and_app(
        seed=seed,
        n_users=workload.n_users if n_users is None else n_users,
        autoscale=True,
        predictive_scaling=False,
        initial_groups=workload.initial_groups,
        control_interval=30.0,
        engine_kwargs=dict(workload.engine_kwargs),
    )
    setup_s = time.perf_counter() - started
    setup_slices += [calibration.slice_ns() for _ in range(3)]
    engine.start()
    mix = build_mix(workload.mix, graph, engine.sim.random.get("workload-mix"))
    generator = LoadGenerator(engine.sim, workload.trace(time_scale), mix, app.execute)
    fault_plan = workload.faults(time_scale)
    injector = install_fault_plan(engine, fault_plan) if fault_plan else None
    if before_load is not None:
        before_load()
    run = Run(workload, engine, app, generator, injector, setup_s, setup_slices,
              [], [], raw_counters(engine), None)
    generator.start()
    clock = time.perf_counter_ns
    if n_segments is None:
        n_segments = segments_for(workload, time_scale)
    calibrate_at = 0  # host time at which the next slice is due: now
    for index in range(n_segments):
        if index == checkpoint_at:
            run.checkpoint = fingerprint(run)
        if clock() >= calibrate_at:
            run.slices.append((index, calibration.slice_ns()))
            calibrate_at = clock() + calibration.EVERY_NS
        segment_started = clock()
        engine.run_for(SEGMENT_SIM_S)
        run.segment_ns.append(clock() - segment_started)
    run.slices.append((n_segments, calibration.slice_ns()))
    generator.stop()
    return run


# ------------------------------------------------------------------- observations


def raw_counters(engine) -> Dict[str, float]:
    """Cumulative counters read from public accessors (diffed over the load)."""
    cache = engine.cache.store.stats
    router = engine.router.op_counts()
    updater = engine.updater.stats()
    ops = engine.cumulative_operation_counts()
    return {
        "events": engine.sim.processed_events,
        "engine_reads": ops.get("read", 0),
        "engine_writes": ops.get("write", 0),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_containment_hits": cache.containment_hits,
        "cache_evictions": cache.lru_evictions,
        "cache_invalidations": cache.invalidations,
        "router_ops": router["read"] + router["write"] + router["range"],
        "index_tasks": updater.completed,
        "index_deadline_misses": updater.deadline_misses,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def attempted_operations(run: Run) -> int:
    """Engine operations attempted, set-up included (its writes can fail too)."""
    return sum(run.engine.cumulative_operation_counts().values())


def failed_operations(run: Run) -> int:
    """Operations that failed, were served stale, or were acknowledged and lost."""
    engine = run.engine
    return (run.app.stats.failed_operations + engine.router.op_counts()["failed"]
            + engine.stale_read_count() + (engine.lost_write_count() or 0))


def calibrated_segment_ns(run: Run) -> List[float]:
    """Each segment's host time at the reference machine speed: over the
    slowdown the calibration slices around it saw."""
    return [ns / slow for ns, slow
            in zip(run.segment_ns, calibration.segment_slowdowns(run.slices))]


def host_metrics(run: Run, calibrated: bool = True) -> Dict[str, float]:
    """Host-time end-to-end metrics of one set-up and timed section, at the
    reference machine speed unless ``calibrated`` is off (set-up over the
    slowdown seen just before and after it)."""
    segment_ns: Sequence[float] = run.segment_ns
    setup_s = run.setup_s
    if calibrated:
        segment_ns = calibrated_segment_ns(run)
        setup_s /= calibration.slowdown(run.setup_slices)
    per_sim_s = [ns / 1e6 / SEGMENT_SIM_S for ns in segment_ns]
    return {
        "ops_per_wall_s": run.ops / (sum(segment_ns) / 1e9),
        "wall_ms_per_sim_s_p50": statistics.median(per_sim_s),
        "wall_ms_per_sim_s_p75": statistics.quantiles(per_sim_s, n=4)[2],
        "setup_s": setup_s,
    }


def calibration_score(run: Run) -> float:
    """Machine speed over the run's timed section (see ``calibration.score``)."""
    return calibration.score([ns for _, ns in run.slices])


def peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def simulated_metrics(run: Run) -> Dict[str, float]:
    """Simulated end-to-end metrics: exact for a seed, whatever the host does.

    Latencies are whole-run ``engine.latencies.all_time(op)`` (the bulk load's
    writes included, which is what gives the read-only workload a write
    distribution).  SLA attainment is the share of operations inside the
    declared 150 ms.  Instance-hours are lease time as used, not rounded up to
    billing increments: the bill itself (``cloud.dollars``) jumps by whole
    started hours, which on a run of a few simulated minutes is mostly rounding.
    """
    engine = run.engine
    reads = engine.latencies.all_time("read")
    writes = engine.latencies.all_time("write")
    now = engine.now
    lease_seconds = sum((now if lease.end is None else lease.end) - lease.start
                        for lease in engine.pool.billing.leases())
    return {
        "sim_read_p50_ms": reads.percentile(50) * 1000.0,
        "sim_read_sla_attainment": reads.fraction_at_or_below(SLA_LATENCY_S),
        "sim_write_sla_attainment": writes.fraction_at_or_below(SLA_LATENCY_S),
        "sim_instance_hours": lease_seconds / 3600.0,
        "sim_max_repl_lag_s": engine.cluster.replication.max_observed_lag(),
    }


def _sla_windows_ok(engine) -> float:
    """Share of 60-s read windows with >= 100 ops that met 99 % within 150 ms."""
    windows = [w for w in engine.sla_compliance_windows("read") if w.total >= 100]
    return _ratio(sum(w.compliant(99.0) for w in windows), len(windows)) if windows else 1.0


def layer_counts(run: Run) -> Dict[str, float]:
    """Per-layer counts over the timed section, exact for a seed."""
    engine = run.engine
    now = raw_counters(engine)
    delta = {name: now[name] - run.baseline[name] for name in now}
    ops = run.ops
    controller = engine.controller
    lookups = delta["cache_hits"] + delta["cache_misses"]
    engine_ops = delta["engine_reads"] + delta["engine_writes"]
    return {
        "sim.events_per_op": _ratio(delta["events"], ops),
        "cache.hit_ratio": _ratio(delta["cache_hits"], lookups),
        "cache.containment_hit_ratio": _ratio(delta["cache_containment_hits"], lookups),
        "cache.evictions_per_kop": _ratio(1000.0 * delta["cache_evictions"], ops),
        "cache.invalidations_per_kop": _ratio(1000.0 * delta["cache_invalidations"], ops),
        "storage.router.ops_per_op": _ratio(delta["router_ops"], ops),
        "storage.rebalancer.keys_moved": float(
            engine.rebalancer.keys_moved() if engine.rebalancer is not None else 0),
        "core.engine.write_share": _ratio(delta["engine_writes"], engine_ops),
        "core.engine.read_p99_ms":
            engine.latencies.all_time("read").percentile(99) * 1000.0,
        "core.engine.write_p99_ms":
            engine.latencies.all_time("write").percentile(99) * 1000.0,
        "core.engine.sla_windows_ok": _sla_windows_ok(engine),
        "core.index.tasks_per_write": _ratio(delta["index_tasks"], delta["engine_writes"]),
        "core.index.deadline_miss_ratio": _ratio(delta["index_deadline_misses"],
                                                 delta["index_tasks"]),
        "core.provisioning.steps": float(len(controller.actions())),
        "core.provisioning.scale_ups": float(controller.scale_up_count()),
        "core.provisioning.scale_downs": float(controller.scale_down_count()),
        "core.provisioning.repartitions": float(controller.repartition_count()),
        "core.provisioning.evacuations": float(controller.evacuation_count()),
        "cloud.instances_peak": float(engine.pool.count_series().max()),
        "cloud.spot_notices": float(
            len(engine.spot_fleet.records()) if engine.spot_fleet is not None else 0),
        "cloud.dollars": engine.pool.total_cost(),
    }


def broken_premises(run: Run) -> List[str]:
    """The workload's premises that this run does not meet.

    A workload that stops exercising the layer it exists for must fail loudly
    instead of silently measuring something else.
    """
    counts = layer_counts(run)
    lost = run.engine.lost_write_count()
    facts = {
        "cache_hit_ratio": counts["cache.hit_ratio"],
        "cache_evictions_per_kop": counts["cache.evictions_per_kop"],
        "sim_read_sla_attainment": simulated_metrics(run)["sim_read_sla_attainment"],
        "write_share": counts["core.engine.write_share"],
        "scale_ups": counts["core.provisioning.scale_ups"],
        "evacuations": counts["core.provisioning.evacuations"],
        "events_per_op": counts["sim.events_per_op"],
        "faults_recorded": float(len(run.injector.faults()) if run.injector else 0),
        "lost_writes": float(lost or 0),
    }
    return [f"{run.workload.name}: {fact} {comparison} {threshold} does not hold "
            f"(measured {facts[fact]:.4g})"
            for fact, comparison, threshold in run.workload.premises
            if not _COMPARISONS[comparison](facts[fact], threshold)]


def fingerprint(run: Run) -> str:
    """sha256 over every deterministic observable of the run.

    Op and event counts, the full per-op latency summaries, the compliance
    windows, the scaling counts and the bill: a host-only optimisation must
    leave it unchanged, and parent-vs-change behaviour drift is a one-line diff.
    """
    engine = run.engine
    controller = engine.controller
    latencies = engine.latencies
    observed = {
        "ops": run.ops,
        "engine_ops": engine.cumulative_operation_counts(),
        "events": engine.sim.processed_events,
        "latencies": {op: latencies.all_time(op).snapshot()
                      for op in sorted(latencies.op_types())},
        "windows": {op: [(w.start, w.total, w.within)
                         for w in engine.sla_compliance_windows(op)]
                    for op in ("read", "write")},
        "scaling": [controller.scale_up_count(), controller.scale_down_count(),
                    controller.surge_up_count(), controller.surge_down_count(),
                    controller.repartition_count(), controller.evacuation_count()],
        "dollars": engine.pool.total_cost(),
    }
    encoded = json.dumps(observed, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()
