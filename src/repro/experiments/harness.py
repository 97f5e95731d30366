"""Closed-loop experiment harness.

Simulated experiments run at a reduced absolute scale so that a full
benchmark suite finishes in minutes on a laptop: the harness uses a
scaled-down instance type (low per-node capacity) and request rates in the
tens-to-hundreds of operations per second.  Because every claim the paper
makes is about *relative* behaviour — latency percentiles vs. load, cost of
autoscaled vs. static provisioning, who wins and by how much — the scale-down
preserves the phenomena while keeping wall-clock time reasonable.  A run is
declared as a :class:`~repro.parallel.spec.ScenarioSpec`, so a larger one
only needs a different spec.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.metrics.sla import ComplianceWindow, SLAReport
from repro.obs.timeline import DecisionTimeline
from repro.obs.tracing import TraceRecord
from repro.parallel.spec import FAULT_KINDS, MIX_KINDS, FaultSpec, ScenarioSpec
from repro.storage.failure import FailureInjector
from repro.workloads.generator import LoadGenerator
from repro.workloads.opmix import CloudStoneMix
from repro.workloads.social_graph import SocialGraph

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


@dataclass(slots=True)
class ClosedLoopSummary:
    """Everything a benchmark, sweep or grid reports about one closed-loop run.

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
    # Reads served stale under arbitration (staleness bound unverifiable).
    # The validation grid's staleness check gates on this staying 0 in
    # fault-free cells.
    stale_reads: int
    # Fixed-clock windowed SLA compliance series (see
    # metrics.sla.WindowedComplianceTracker) — the substrate the grid's
    # declared SLA policy (violation budget + re-attainment) gates on.
    read_windows: List[ComplianceWindow]
    write_windows: List[ComplianceWindow]
    # Observability payloads (None unless the run's engine had
    # ``telemetry=`` on; picklable, and a sweep returns each run's own, see
    # repro.obs).  ``telemetry`` is Scads.collect_telemetry()'s snapshot.
    telemetry: Optional[Dict[str, Dict[str, object]]]
    traces: Optional[List[TraceRecord]]
    # Acknowledged writes no alive owner still held at run end (None when the
    # engine's write audit was off — see Scads ``write_audit``).  The
    # interruption-storm grid scenario gates on this staying 0.
    lost_acked_writes: Optional[int]

    def summary(self) -> Dict[str, object]:
        """Flat dictionary used by the benchmark harnesses' printed tables."""
        return {
            "duration_s": round(self.duration, 1),
            "operations": self.operations,
            "read_p_latency_ms": round(self.read_report.observed_percentile_latency * 1000, 2),
            "read_sla_met": self.read_report.satisfied,
            "write_p_latency_ms": round(self.write_report.observed_percentile_latency * 1000, 2),
            "peak_nodes": self.peak_nodes,
            "final_nodes": self.final_nodes,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "dollars": round(self.cost.dollars, 3),
            "machine_hours": round(self.cost.machine_hours, 1),
            "max_replication_lag_s": round(self.max_replication_lag, 3),
            "deadline_miss_rate": round(self.deadline_miss_rate, 4),
        }


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
    updates_per_second_per_node: float = 100.0,
    fifo_updates: bool = False,
    engine_kwargs: Optional[Dict[str, object]] = None,
) -> Tuple[Scads, SocialNetworkApp, SocialGraph]:
    """Build an engine + social app and bulk-load a synthetic graph.

    ``engine_kwargs`` are forwarded verbatim to :class:`Scads` — this is how
    declarative scenario specs reach knobs the harness does not name
    explicitly (``cache=...``, ``repartition=...``, ``partitioner_kind=...``,
    or an ``instance_type`` other than :data:`SCALED_DOWN_INSTANCE`).
    """
    engine = Scads(
        seed=seed,
        consistency=spec or default_spec(),
        initial_groups=initial_groups,
        autoscale=autoscale,
        predictive_scaling=predictive_scaling,
        control_interval=control_interval,
        updates_per_second_per_node=updates_per_second_per_node,
        fifo_updates=fifo_updates,
        **{"instance_type": SCALED_DOWN_INSTANCE, **(engine_kwargs or {})},
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
    """The operation mix registered as ``kind`` in ``MIX_KINDS``.

    RNG consumption is identical across kinds up to the first draw, so
    swapping the mix never perturbs other streams.
    """
    if kind not in MIX_KINDS:
        raise ValueError(f"unknown mix kind {kind!r}; registered: {sorted(MIX_KINDS)}")
    return CloudStoneMix(graph, rng, **MIX_KINDS[kind])


def install_fault_plan(engine: Scads, plan: Sequence[FaultSpec]) -> FailureInjector:
    """Schedule a declarative fault plan against a running engine.

    Each fault's ``at`` is relative to the engine's current simulated time
    (the moment the closed loop starts), and its ``kind`` names the
    :class:`~repro.storage.failure.FailureInjector` entry point in
    ``FAULT_KINDS`` that ``params`` are passed to:

    * ``zone_outage`` — the ``zone_index``-th member of every replica group
      crashes simultaneously and recovers after ``duration`` (regional
      failover: read capacity drains, replicas fail over, primaries live);
    * ``interruption_storm`` — correlated spot revocations: every registered
      spot instance gets its two-minute notice at ``at`` and new spot
      launches are refused for ``duration`` (needs an engine built with
      ``spot=True``);
    * ``host_degradation`` — a noisy-neighbor episode: co-tenant load on host
      ``host_id`` inflates every colocated node's *service* times by
      ``intensity`` for ``duration`` (needs an engine built with
      ``contention=...``).
    """
    injector = FailureInjector(engine.cluster, market=engine.market,
                               contention=engine.contention)
    for fault in plan:
        if fault.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {fault.kind!r}; registered: {sorted(FAULT_KINDS)}")
        FAULT_KINDS[fault.kind](injector, at=engine.now + fault.at,
                                duration=fault.duration, **fault.params)
    return injector


def run_closed_loop(scenario: ScenarioSpec, seed: int
                    ) -> Tuple[ClosedLoopSummary, Scads, SocialNetworkApp]:
    """Run one scenario with one seed and summarise it.

    The only place a :class:`~repro.parallel.spec.ScenarioSpec` is unpacked:
    sweep workers, benchmarks, examples and scripts all come through here,
    so a run is configured by the spec it names and by nothing else.
    Everything is built fresh from the spec — this must stay a pure function
    of ``(scenario, seed)`` or parallel sweeps lose their serial-equivalence
    guarantee.  The live engine and app are returned *beside* the picklable
    summary, never inside it, so a sweep that keeps only summaries keeps no
    engine alive.
    """
    trace = scenario.trace.build()
    engine, app, graph = build_engine_and_app(
        seed=seed,
        n_users=scenario.n_users,
        friend_cap=scenario.friend_cap,
        spec=default_spec(
            latency=scenario.sla_latency,
            percentile=scenario.sla_percentile,
            staleness_bound=scenario.staleness_bound,
            read_your_writes=scenario.read_your_writes,
        ),
        autoscale=scenario.autoscale,
        predictive_scaling=scenario.predictive_scaling,
        initial_groups=scenario.initial_groups,
        control_interval=scenario.control_interval,
        engine_kwargs=scenario.engine_knobs,
    )
    engine.start()
    mix = build_mix(scenario.mix, graph, engine.sim.random.get("workload-mix"))
    generator = LoadGenerator(engine.sim, trace, mix, app.execute)
    start_time = engine.now
    if scenario.faults:
        install_fault_plan(engine, scenario.faults)
    generator.start()
    engine.run_for(scenario.duration)
    generator.stop()

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
    recorder = engine.latencies

    def estimator(op_type: str) -> Optional[PercentileEstimator]:
        return recorder.all_time(op_type) if op_type in recorder.op_types() else None

    summary = ClosedLoopSummary(
        duration=scenario.duration,
        operations=generator.stats.operations_issued,
        read_report=engine.sla_report("read"),
        write_report=engine.sla_report("write"),
        cost=cost,
        peak_nodes=engine.peak_node_count(),
        final_nodes=engine.cluster.node_count(),
        scale_ups=engine.controller.scale_up_count(),
        scale_downs=engine.controller.scale_down_count(),
        max_replication_lag=engine.cluster.replication.max_observed_lag(),
        deadline_miss_rate=engine.updater.stats().miss_rate,
        operation_counts=dict(engine.cumulative_operation_counts()),
        read_latency=estimator("read"),
        write_latency=estimator("write"),
        decision_timeline=engine.timeline,
        stale_reads=engine.stale_read_count(),
        read_windows=engine.sla_compliance_windows("read"),
        write_windows=engine.sla_compliance_windows("write"),
        telemetry=engine.collect_telemetry(),
        traces=engine.traces() if engine.tracer is not None else None,
        lost_acked_writes=engine.lost_write_count(),
    )
    return summary, engine, app
