"""Closed-loop experiment harness.

Simulated experiments run at a reduced absolute scale so that a full
benchmark suite finishes in minutes on a laptop: the harness uses a
scaled-down instance type (low per-node capacity) and request rates in the
tens-to-hundreds of operations per second.  Because every claim the paper
makes is about *relative* behaviour — latency percentiles vs. load, cost of
autoscaled vs. static provisioning, who wins and by how much — the scale-down
preserves the phenomena while keeping wall-clock time reasonable.  The knobs
are all exposed so a larger run only needs different arguments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.apps.social_network import SocialNetworkApp
from repro.cloud.instances import InstanceType
from repro.core.consistency.spec import (
    ConsistencySpec,
    PerformanceSLA,
    ReadConsistency,
    SessionGuarantee,
)
from repro.core.engine import Scads
from repro.metrics.cost import CostReport
from repro.metrics.percentiles import PercentileEstimator
from repro.metrics.sla import SLAReport
from repro.obs.timeline import DecisionTimeline
from repro.storage.failure import FailureInjector
from repro.workloads.generator import LoadGenerator
from repro.workloads.opmix import (
    UNIFORM_READ_MIX,
    WRITE_HEAVY_MIX,
    CloudStoneMix,
    )
from repro.workloads.social_graph import SocialGraph
from repro.workloads.traces import LoadTrace

# A deliberately small machine class: 60 storage ops/sec per node and a
# one-minute boot delay.  Low capacity means interesting scaling dynamics
# appear at simulated request rates the test suite can afford to run.
SCALED_DOWN_INSTANCE = InstanceType(
    name="sim.small",
    hourly_cost=0.10,
    boot_delay=60.0,
    capacity_ops_per_sec=60.0,
)


def smoke_mode() -> bool:
    """True when ``BENCH_SMOKE=1``: benchmarks run shortened workloads.

    ``make bench-smoke`` sets this to sweep every ``bench_*.py`` quickly as a
    crash/regression check.  The paper's *relative* claims (who wins and by
    how much) need the full durations to manifest, so benchmarks skip their
    economics assertions in smoke mode — the run still exercises the whole
    closed loop end to end.
    """
    return os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def smoke_scaled(full: float, smoke: float) -> float:
    """``full`` normally, ``smoke`` under ``BENCH_SMOKE=1`` (durations, rates)."""
    return smoke if smoke_mode() else full


def _result_summary(result) -> Dict[str, object]:
    """Flat dictionary used by the benchmark harnesses' printed tables.

    Shared by :class:`ClosedLoopResult` (in-process, carries the live engine)
    and :class:`ClosedLoopSummary` (the picklable subset a sweep worker ships
    back), so both render identically.
    """
    return {
        "duration_s": round(result.duration, 1),
        "operations": result.operations,
        "read_p_latency_ms": round(result.read_report.observed_percentile_latency * 1000, 2),
        "read_sla_met": result.read_report.satisfied,
        "write_p_latency_ms": round(result.write_report.observed_percentile_latency * 1000, 2),
        "peak_nodes": result.peak_nodes,
        "final_nodes": result.final_nodes,
        "scale_ups": result.scale_ups,
        "scale_downs": result.scale_downs,
        "dollars": round(result.cost.dollars, 3),
        "machine_hours": round(result.cost.machine_hours, 1),
        "max_replication_lag_s": round(result.max_replication_lag, 3),
        "deadline_miss_rate": round(result.deadline_miss_rate, 4),
    }


@dataclass(slots=True)
class ClosedLoopSummary:
    """The cross-process-portable summary of one closed-loop run.

    Everything here is plain data (dataclasses, numpy arrays, dicts of
    primitives) so a sweep worker can pickle it back to the parent process —
    no engine, app, or simulator references.  The latency estimators carry
    the run's full sample distributions, which is what makes grid cells and
    replicates *mergeable* (exact combined percentiles via
    :meth:`~repro.metrics.percentiles.PercentileEstimator.merge`) without
    shipping or re-sorting raw sample streams per query.
    """

    duration: float
    operations: int
    read_report: SLAReport
    write_report: SLAReport
    cost: CostReport
    peak_nodes: int
    final_nodes: int
    scale_ups: int
    scale_downs: int
    max_replication_lag: float
    deadline_miss_rate: float
    operation_counts: Dict[str, int]
    read_latency: Optional[PercentileEstimator]
    write_latency: Optional[PercentileEstimator]
    # The run's provisioning decision log (always kept; see repro.obs).
    decision_timeline: DecisionTimeline
    cache_hit_rate: float = 0.0
    # Reads served stale under arbitration (staleness bound unverifiable).
    # The validation grid's staleness check gates on this staying 0 in
    # fault-free cells.
    stale_reads: int = 0
    # Fixed-clock windowed SLA compliance series (see
    # metrics.sla.WindowedComplianceTracker) — the substrate the grid's
    # declared SLA policy (violation budget + re-attainment) gates on.
    read_windows: list = field(default_factory=list)
    write_windows: list = field(default_factory=list)
    # Observability payloads (populated only when the run's engine had
    # ``telemetry=`` on; all picklable and exactly mergeable, see repro.obs).
    telemetry: Optional[object] = None  # obs.Telemetry
    traces: Optional[list] = None  # List[obs.TraceRecord]
    # Acknowledged writes no alive owner still held at run end (None when the
    # engine's write audit was off — see Scads ``write_audit``).  The
    # interruption-storm grid scenario gates on this staying 0.
    lost_acked_writes: Optional[int] = None
    # Dollars split by purchase option ({"on_demand": ..., "spot": ...}).
    cost_by_purchase_option: Dict[str, float] = field(default_factory=dict)
    # Interruption drain outcomes ({"hibernated": 3, "aborted": 1, ...});
    # empty without a spot fleet.
    interruption_outcomes: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        return _result_summary(self)


@dataclass(slots=True)
class ClosedLoopResult:
    """Everything a benchmark needs to report about one closed-loop run."""

    engine: Scads
    app: SocialNetworkApp
    duration: float
    operations: int
    read_report: SLAReport
    write_report: SLAReport
    cost: CostReport
    peak_nodes: int
    final_nodes: int
    scale_ups: int
    scale_downs: int
    max_replication_lag: float
    deadline_miss_rate: float

    def summary(self) -> Dict[str, object]:
        """Flat dictionary used by the benchmark harnesses' printed tables."""
        return _result_summary(self)

    def portable(self) -> ClosedLoopSummary:
        """Extract the picklable summary (drops the engine/app references)."""

        def estimator(op_type: str) -> Optional[PercentileEstimator]:
            recorder = self.engine.latencies
            return (recorder.all_time(op_type)
                    if op_type in recorder.op_types() else None)

        return ClosedLoopSummary(
            duration=self.duration,
            operations=self.operations,
            read_report=self.read_report,
            write_report=self.write_report,
            cost=self.cost,
            peak_nodes=self.peak_nodes,
            final_nodes=self.final_nodes,
            scale_ups=self.scale_ups,
            scale_downs=self.scale_downs,
            max_replication_lag=self.max_replication_lag,
            deadline_miss_rate=self.deadline_miss_rate,
            operation_counts=dict(self.engine.cumulative_operation_counts()),
            read_latency=estimator("read"),
            write_latency=estimator("write"),
            cache_hit_rate=self.engine.cache_hit_rate(),
            stale_reads=self.engine.stale_read_count(),
            read_windows=self.engine.sla_compliance_windows("read"),
            write_windows=self.engine.sla_compliance_windows("write"),
            telemetry=self.engine.collect_telemetry(),
            traces=self.engine.traces() if self.engine.tracer is not None else None,
            decision_timeline=self.engine.timeline,
            lost_acked_writes=self.engine.lost_write_count(),
            cost_by_purchase_option=self.engine.pool.cost_by_purchase_option(),
            interruption_outcomes=_interruption_outcomes(self.engine),
        )


def _interruption_outcomes(engine: Scads) -> Dict[str, int]:
    """Histogram of drain outcomes across the run's interruption notices."""
    if engine.spot_fleet is None:
        return {}
    outcomes: Dict[str, int] = {}
    for record in engine.spot_fleet.records():
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
    return outcomes


def default_spec(
    latency: float = 0.150,
    percentile: float = 99.0,
    staleness_bound: float = 120.0,
    read_your_writes: bool = False,
) -> ConsistencySpec:
    """The consistency spec the harness uses unless an experiment overrides it."""
    return ConsistencySpec(
        performance=PerformanceSLA(percentile=percentile, latency=latency),
        read=ReadConsistency(staleness_bound=staleness_bound),
        session=SessionGuarantee(read_your_writes=read_your_writes),
    )


def build_engine_and_app(
    seed: int = 0,
    n_users: int = 200,
    friend_cap: int = 20,
    mean_friends: float = 4.0,
    spec: Optional[ConsistencySpec] = None,
    autoscale: bool = True,
    predictive_scaling: bool = True,
    initial_groups: int = 1,
    control_interval: float = 30.0,
    instance_type: InstanceType = SCALED_DOWN_INSTANCE,
    updates_per_second_per_node: float = 100.0,
    fifo_updates: bool = False,
    engine_kwargs: Optional[Dict[str, object]] = None,
) -> Tuple[Scads, SocialNetworkApp, SocialGraph]:
    """Build an engine + social app and bulk-load a synthetic graph.

    ``engine_kwargs`` are forwarded verbatim to :class:`Scads` — this is how
    declarative sweep specs reach knobs the harness does not name explicitly
    (``cache=...``, ``repartition=...``, ``partitioner_kind=...``).
    """
    engine = Scads(
        seed=seed,
        consistency=spec or default_spec(),
        instance_type=instance_type,
        initial_groups=initial_groups,
        autoscale=autoscale,
        predictive_scaling=predictive_scaling,
        control_interval=control_interval,
        updates_per_second_per_node=updates_per_second_per_node,
        fifo_updates=fifo_updates,
        **(engine_kwargs or {}),
    )
    app = SocialNetworkApp(
        engine,
        friend_cap=friend_cap,
        page_size=10,
        register_friends_of_friends=False,
    )
    graph = SocialGraph(
        n_users,
        np.random.default_rng(seed),
        max_friends=friend_cap,
        mean_friends=mean_friends,
    )
    app.load_graph(graph)
    return engine, app, graph


def build_mix(kind: str, graph: SocialGraph,
              rng: np.random.Generator) -> CloudStoneMix:
    """The registered operation mixes, by name.

    ``cloudstone`` is the default interactive mix, ``write_heavy`` the
    Halloween-style upload mix, and ``uniform_read`` the cache-hostile
    read-only mix with *uniform* user popularity (no skew for a front tier
    to exploit).  RNG consumption is identical across kinds up to the first
    draw, so swapping the mix never perturbs other streams.
    """
    if kind == "uniform_read":
        return CloudStoneMix(graph, rng, mix=UNIFORM_READ_MIX, zipf_theta=0.0)
    mix = CloudStoneMix(graph, rng)
    if kind == "write_heavy":
        mix.set_mix(WRITE_HEAVY_MIX)
    elif kind != "cloudstone":
        raise ValueError(
            f"unknown mix kind {kind!r} "
            "(registered: cloudstone, write_heavy, uniform_read)")
    return mix


def install_fault_plan(engine: Scads, plan: Sequence,
                       start_time: Optional[float] = None) -> FailureInjector:
    """Schedule a declarative fault plan against a running engine.

    ``plan`` items carry ``kind`` / ``at`` / ``duration`` / ``params`` (see
    :class:`repro.parallel.spec.FaultSpec`); ``at`` is relative to
    ``start_time`` (default: the engine's current simulated time, i.e. the
    moment the closed loop starts).  Four kinds are registered:

    * ``zone_outage`` — the ``zone_index``-th member of every replica group
      crashes simultaneously and recovers after ``duration`` (regional
      failover: read capacity drains, replicas fail over, primaries live);
    * ``crash_random`` — ``count`` random alive nodes crash for ``duration``;
    * ``interruption_storm`` — correlated spot revocations: every registered
      spot instance gets its two-minute notice at ``at`` and new spot
      launches are refused for ``duration`` (needs an engine built with
      ``spot=True``);
    * ``host_degradation`` — a noisy-neighbor episode: co-tenant load on one
      physical host inflates every colocated node's *service* times by
      ``intensity`` for ``duration`` (needs an engine built with
      ``contention=...``).
    """
    injector = FailureInjector(engine.cluster, market=engine.market,
                               contention=engine.contention)
    offset = engine.now if start_time is None else start_time
    for fault in plan:
        params = dict(getattr(fault, "params", {}) or {})
        if fault.kind == "zone_outage":
            injector.zone_outage(at=offset + fault.at, duration=fault.duration,
                                 **params)
        elif fault.kind == "crash_random":
            injector.crash_random_nodes(count=int(params.pop("count", 1)),
                                        at=offset + fault.at,
                                        duration=fault.duration)
        elif fault.kind == "interruption_storm":
            injector.interruption_storm(at=offset + fault.at,
                                        duration=fault.duration)
        elif fault.kind == "host_degradation":
            injector.host_degradation(at=offset + fault.at,
                                      duration=fault.duration, **params)
        else:
            raise ValueError(
                f"unknown fault kind {fault.kind!r} "
                "(registered: zone_outage, crash_random, interruption_storm, "
                "host_degradation)")
    return injector


def run_closed_loop(
    trace: LoadTrace,
    duration: float,
    seed: int = 0,
    n_users: int = 200,
    friend_cap: int = 20,
    spec: Optional[ConsistencySpec] = None,
    autoscale: bool = True,
    predictive_scaling: bool = True,
    initial_groups: int = 1,
    control_interval: float = 30.0,
    sampling_fraction: float = 1.0,
    instance_type: InstanceType = SCALED_DOWN_INSTANCE,
    engine_kwargs: Optional[Dict[str, object]] = None,
    mix_kind: str = "cloudstone",
    faults: Sequence = (),
) -> ClosedLoopResult:
    """Run one complete closed-loop experiment and collect its results.

    ``mix_kind`` names a registered operation mix (see :func:`build_mix`);
    ``faults`` is a declarative fault plan installed via
    :func:`install_fault_plan` before the load starts.
    """
    engine, app, graph = build_engine_and_app(
        seed=seed,
        n_users=n_users,
        friend_cap=friend_cap,
        spec=spec,
        autoscale=autoscale,
        predictive_scaling=predictive_scaling,
        initial_groups=initial_groups,
        control_interval=control_interval,
        instance_type=instance_type,
        engine_kwargs=engine_kwargs,
    )
    engine.start()
    mix = build_mix(mix_kind, graph, engine.sim.random.get("workload-mix"))
    generator = LoadGenerator(
        engine.sim, trace, mix, app.execute, sampling_fraction=sampling_fraction
    )
    start_time = engine.now
    if faults:
        install_fault_plan(engine, faults, start_time=start_time)
    generator.start()
    engine.run_for(duration)
    generator.stop()

    node_series = engine.controller.series()
    peak_nodes = int(node_series.get("nodes").max()) if "nodes" in node_series \
        else engine.cluster.node_count()
    instance_series = engine.pool.count_series()
    mean_instances = (
        instance_series.integrate() / max(engine.now - start_time, 1.0)
        if len(instance_series) > 1 else float(engine.pool.active_count())
    )
    cost = CostReport(
        machine_hours=engine.pool.total_machine_hours(),
        dollars=engine.pool.total_cost(),
        requests_served=sum(engine.cumulative_operation_counts().values()),
        peak_instances=int(instance_series.max()) if len(instance_series) else 0,
        mean_instances=mean_instances,
    )
    updater_stats = engine.updater.stats()
    return ClosedLoopResult(
        engine=engine,
        app=app,
        duration=duration,
        operations=generator.stats.operations_issued,
        read_report=engine.sla_report("read"),
        write_report=engine.sla_report("write"),
        cost=cost,
        peak_nodes=peak_nodes,
        final_nodes=engine.cluster.node_count(),
        scale_ups=engine.controller.scale_up_count(),
        scale_downs=engine.controller.scale_down_count(),
        max_replication_lag=engine.cluster.replication.max_observed_lag(),
        deadline_miss_rate=updater_stats.miss_rate,
    )
