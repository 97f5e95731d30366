"""The public SCADS engine.

:class:`Scads` is what an application developer sees: declare entities and
their cardinality bounds, register query templates (which are admitted or
rejected at declaration time), read and write entities, run queries, and let
the system worry about indexes, consistency, and capacity.

Internally the engine wires together every substrate in the repository:

* entity and index data live on the simulated elastic cluster
  (:mod:`repro.storage`) behind the request router,
* admitted query templates are compiled to pre-computed indexes whose
  maintenance is performed asynchronously in deadline order
  (:mod:`repro.core.index`),
* the declarative :class:`~repro.core.consistency.ConsistencySpec` governs
  write quorums, staleness checks, session guarantees, and partition
  arbitration on every operation, and
* the provisioning feedback loop (:mod:`repro.core.provisioning`) watches SLA
  attainment and rents/releases utility-computing instances
  (:mod:`repro.cloud`) to keep the SLAs met at minimum cost.

Staleness-budget cache tier
---------------------------

The declarative :class:`~repro.core.consistency.spec.ReadConsistency` bound
is not just something reads are *checked* against — it is slack the
application has explicitly granted, and ``Scads(cache=...)`` exploits it with
a front-tier read-through cache (:mod:`repro.cache`).  Entity gets and
compiled-query range reads that hit the cache bypass the cluster entirely and
pay a sub-millisecond front-tier service time; entries are admitted with a
TTL derived from the bound ("stale data gone within B seconds" → servable for
``B`` minus propagation headroom, minus any staleness the value already
carried when it was read), entity writes invalidate the written key and any
cached scan covering it, and the asynchronous index updater invalidates the
cached query scans its maintenance touches.  Session guarantees outrank the
budget: a read-your-writes session that wrote a key bypasses the cache for it
until the cached copy has caught up.  The provisioning loop sees the cache:
the :class:`~repro.core.provisioning.monitor.SLAMonitor` measures the window
hit rate and the :class:`~repro.core.provisioning.planner.CapacityPlanner`
discounts forecast demand by the absorbed fraction, so the controller does
not rent replica groups for load the cache is already serving.  The tier is
**on by default** (validated as safe across the full scenario grid — see
``make grid`` and the "Validation grid" section of PERFORMANCE.md); pass
``cache=False`` to opt out and reproduce the uncached seed behaviour E14
compares against.

Elasticity & repartitioning
---------------------------

Capacity scales in whole replica groups, but *placement* scales in key
ranges.  By default (``repartition=False`` opts out) the engine attaches a
hot-partition :class:`~repro.storage.rebalancer.Rebalancer`: the router feeds a decayed
per-partition load sketch, and when a control window shows one hot replica
group while the cluster mean has headroom (a Zipf hotspot, not an overload),
the provisioning loop prefers a sub-group action over renting a group:
splitting the hot range at its load median and migrating only the hot keys
to a cold group (range partitioner only; under hash a hotspot rents a group).
Migrations are *live*: affected keys are dual-routed while the transfer's
simulated duration elapses, writes are mirrored to the source, and source
copies are reclaimed only at completion, so no request is dropped mid-move.
Splits are free (they only create a migratable unit) and cold adjacent
ranges are re-merged in quiet windows.

Operation accounting
--------------------

Every client operation is recorded exactly once — :meth:`Scads._record_op`
makes one call into the engine's :class:`~repro.metrics.sla.OpRecorder`.  The
provisioning monitor's SLA window, the all-time percentiles
(``engine.latencies``), the fixed-clock compliance series, the operation
counts and the miss-path latency label are all views of that one log; the
monitor holds the recorder and closes its window every control step.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cache.tier import CacheConfig, CacheTier
from repro.cloud.instances import INSTANCE_TYPES, InstanceType
from repro.cloud.market import SpotMarket
from repro.cloud.pool import InstancePool
from repro.core.consistency.arbitration import Arbitrator
from repro.core.consistency.sessions import Session, SessionManager
from repro.core.consistency.spec import ConsistencySpec, PerformanceSLA
from repro.core.consistency.writes import ConflictResolver
from repro.core.index.maintenance import EntityWrite, IndexMaintainer
from repro.core.index.updater import AsyncIndexUpdater
from repro.core.provisioning.analytic import AnalyticSizingModel
from repro.core.provisioning.controller import ProvisioningController
from repro.core.provisioning.monitor import SLAMonitor
from repro.core.provisioning.planner import CapacityPlanner
from repro.core.provisioning.spotfleet import SpotFleetManager
from repro.core.query.analyzer import QueryAnalyzer
from repro.core.query.compiler import QueryCompiler
from repro.core.query.executor import QueryExecutor, QueryResult
from repro.core.query.parser import parse_query
from repro.core.query.plans import (
    CompiledQuery,
    MaintenanceRule,
    entity_namespace,
    reverse_index_namespace,
)
from repro.core.schema import EntitySchema, SchemaRegistry
from repro.metrics.percentiles import PercentileEstimator
from repro.metrics.sla import ComplianceWindow, OpRecorder, SLAReport
from repro.ml.forecaster import WorkloadForecaster
from repro.obs.timeline import DecisionTimeline
from repro.obs.tracing import Tracer
from repro.ml.performance_model import LatencyPercentileModel, PropagationLagModel
from repro.sim.hosts import ContentionProcess, HostMap, resolve_contention_config
from repro.sim.simulator import Simulator
from repro.storage.cluster import Cluster
from repro.storage.durability import DurabilityModel
from repro.storage.node import BASE_SERVICE_TIME
from repro.storage.rebalancer import Rebalancer
from repro.storage.records import Key, KeyRange, VersionedValue, prefix_range
from repro.storage.router import ReadOutcome, Router


@dataclass(slots=True)
class OperationOutcome:
    """What one engine-level operation returned and what it cost.

    ``rows`` defaults to a shared empty tuple — one outcome is allocated per
    client operation, and only multi-row reads carry rows.
    """

    success: bool
    latency: float
    row: Optional[Mapping[str, Any]] = None
    rows: Sequence[Mapping[str, Any]] = ()
    stale: bool = False
    error: Optional[str] = None


class _RouterStorageAdapter:
    """StorageAdapter implementation backed by the request router.

    Index maintenance traffic flows through the same router (and therefore the
    same simulated nodes) as client traffic, so maintenance genuinely competes
    for capacity — which is what makes write-heavy spikes hard, per the paper.
    """

    def __init__(self, engine: "Scads") -> None:
        self._engine = engine

    def entity_rows_by_prefix(self, entity: str, prefix: Key) -> List[Mapping[str, Any]]:
        namespace = entity_namespace(entity)
        result = self._engine.router.read_range(prefix_range(namespace, prefix),
                                                from_primary=True)
        if not result.success:
            return []
        return [value.value for _, value in result.rows]

    def entity_row(self, entity: str, key: Key) -> Optional[Mapping[str, Any]]:
        namespace = entity_namespace(entity)
        result = self._engine.router.read(namespace, key, from_primary=True)
        if not result.success or result.value is None:
            return None
        return result.value.value

    def reverse_keys(self, reverse_index: str, value: Any) -> List[Key]:
        namespace = reverse_index_namespace(reverse_index)
        result = self._engine.router.read_range(prefix_range(namespace, (value,)),
                                                from_primary=True)
        if not result.success:
            return []
        return [key[1:] for key, _ in result.rows]

    def adjust_index_support(self, namespace: str, key: Key, delta: int) -> None:
        current = self._engine.router.read(namespace, key, from_primary=True)
        support = current.value.value if current.success and current.value is not None else 0
        new_support = support + delta
        if new_support <= 0:
            self._engine.router.delete(namespace, key, writer="index-maintenance")
        else:
            self._engine.router.write(namespace, key, new_support,
                                      writer="index-maintenance")
        self._engine._note_index_write(namespace, key)

    def put_reverse_entry(self, namespace: str, key: Key) -> None:
        self._engine.router.write(namespace, key, 1, writer="index-maintenance")
        self._engine._note_index_write(namespace, key)

    def delete_reverse_entry(self, namespace: str, key: Key) -> None:
        self._engine.router.delete(namespace, key, writer="index-maintenance")
        self._engine._note_index_write(namespace, key)


class _QueryReader:
    """The storage one ``Scads.query`` call reads through, and what the call
    learns on the way (:class:`~repro.core.query.executor.QueryReader`).

    ``tracer`` is the engine's tracer when this query is traced, else None.
    """

    __slots__ = ("_engine", "_session", "_tracer", "touched_cluster",
                 "deref_mark", "range_latency_total")

    def __init__(self, engine: "Scads", session: Optional[Session],
                 tracer: Optional[Tracer]) -> None:
        self._engine = engine
        self._session = session
        self._tracer = tracer
        # A query is one client read op, but several cache lookups; the op
        # counts as cluster-served (for the miss-path latency label) when any
        # of its sub-reads actually reached the cluster — its latency is then
        # dominated by cluster service, not front-tier memory.
        self.touched_cluster = engine.cache is None
        # The executor composes parallel dereferences by max, so their raw
        # spans cannot stay on-path: everything recorded after this mark is
        # demoted when the query completes and replaced with one aggregate
        # ``index_deref`` span whose duration is the winning dereference.
        self.deref_mark = -1
        self.range_latency_total = 0.0

    def range_read(self, namespace: str, start: Key, end: Key,
                   limit: Optional[int], reverse: bool,
                   ) -> Tuple[List[Tuple[Key, VersionedValue]], float]:
        engine = self._engine
        cache = engine.cache
        tracer = self._tracer
        will_admit = False
        if cache is not None:
            cached = cache.lookup_range(namespace, start, end, limit, reverse)
            if cached is not None:
                hit_latency = cache.sample_hit_latency()
                if tracer is not None:
                    tracer.add("cache_hit", hit_latency, detail="range scan")
                self.range_latency_total += hit_latency
                return cached, hit_latency
            if tracer is not None:
                tracer.add("cache_miss", 0.0, detail="range scan")
            # A scan that will be *cached* reads the primary: a lagging
            # replica could hand us rows missing an index write that was
            # already applied — and whose apply-time invalidation therefore
            # already fired — leaving stale rows cached for a full TTL with
            # nothing left to evict them.  Primary fills close that race;
            # with the cache off, reads keep their replica load-balancing.
            will_admit = True
        self.touched_cluster = True
        key_range = KeyRange(namespace, start, end)
        result = engine.router.read_range(
            key_range, limit=limit, reverse=reverse, from_primary=will_admit)
        self.range_latency_total += result.latency
        if not result.success:
            return [], result.latency
        # The list the serving node built for this call, not a copy: the
        # executor reads only its keys, and the cache keeps this same list
        # (and the same KeyRange), so nobody mutates it.
        if will_admit:
            cache.admit_range(namespace, start, end, limit, reverse, result.rows, key_range)
        return result.rows, result.latency

    def entity_get_many(
        self, entity_name: str, keys: List[Key],
    ) -> Tuple[Dict[Key, Optional[Mapping[str, Any]]], float]:
        if self._tracer is not None:
            self.deref_mark = self._tracer.mark()
        engine = self._engine
        cache = engine.cache
        session = self._session
        namespace = entity_namespace(entity_name)
        if cache is not None:
            rows, slowest, misses = cache.lookup_entities(namespace, keys, session)
        else:
            rows, slowest, misses = {}, 0.0, list(dict.fromkeys(keys))
        if misses:
            self.touched_cluster = True
            fetched, slowest_miss, _, _ = engine._verify_replica_read(
                namespace, misses, engine.router.read_many(namespace, misses), session)
            rows.update(fetched)
            slowest = max(slowest, slowest_miss)
        return rows, slowest


class Scads:
    """Scale-independent storage for social computing applications.

    Args:
        seed: seed for every random stream in the simulation.
        consistency: the declarative consistency/performance specification.
        instance_type: utility-computing machine class used for storage nodes.
        replication_factor: nodes per replica group; if None it is derived
            from the durability SLA and the node failure model.
        initial_groups: replica groups provisioned before any load arrives.
        autoscale: whether the provisioning feedback loop runs.
        predictive_scaling: use the ML forecast (True) or only the current
            observation (False — the reactive-scaler ablation).
        control_interval: seconds between provisioning-loop iterations.
        max_instances: hard cap on rented instances.
        partitioner_kind: ``"hash"`` (consistent hashing, default) or
            ``"range"`` (explicit split points; required for range-level
            split/merge actions).
        repartition: the hot-partition rebalancer, letting the provisioning
            loop repair load skew with targeted split/migrate actions
            instead of renting whole replica groups (see the module
            docstring's "Elasticity & repartitioning" section).  **Default
            on**; pass ``False`` to opt out and scale in whole replica
            groups only.
        repartition_hot_utilisation / repartition_cold_utilisation: group
            utilisation thresholds that define a migratable imbalance.
        cache: the staleness-budget cache tier (see the module docstring's
            "Staleness-budget cache tier" section).  **Default on** with
            :class:`~repro.cache.tier.CacheConfig` defaults; pass a config
            to size the cache, or ``False`` to opt out so every read pays
            full cluster latency.
        planner_backend: how the planner answers the latency sizing question —
            ``"analytical"`` (closed-form M/G/k model), ``"ml"`` (learned
            latency model, the pre-clamp behaviour), or ``"hybrid"``
            (default: analytical backbone, ML admitted as a bounded
            residual).  See :mod:`repro.core.provisioning.planner`.
        telemetry: attach the observability layer (:mod:`repro.obs`) —
            deterministic span tracing of sampled requests and the
            replication-lag samples :meth:`collect_telemetry` reads beside
            the engine's own records.  The provisioning decision timeline
            (``engine.timeline``) is kept either way.  Every
            :data:`~repro.obs.tracing.TRACE_SAMPLE_INTERVAL`-th op per stream
            is traced.  Trace sampling is a per-stream modulo, never an RNG
            draw, so a telemetry-on run produces byte-identical operation
            results to a telemetry-off run with the same seed.  Defaults to
            off, where the remaining cost is one tracer check at each
            traced call site.
        spot: attach a :class:`~repro.cloud.market.SpotMarket` and a
            :class:`~repro.core.provisioning.spotfleet.SpotFleetManager`:
            the controller covers read-dominated capacity deficits with
            surge read replicas bought spot-first (on-demand fallback when
            the market refuses), and interruption notices trigger the
            graceful drain/hibernate/resume machinery.  The market's price
            trace lives on its own RNG stream, so ``spot=False`` runs are
            byte-identical to builds that predate the market.  Default off.
        write_audit: track every acknowledged write's promised version and
            expose :meth:`lost_write_count` (the zero-data-loss check the
            interruption-storm grid scenario gates on).  ``None`` resolves
            to the ``spot`` flag; the audit dict grows with the distinct
            key count, hence opt-in for plain runs.
        contention: model shared physical hosts and co-tenant interference
            (:mod:`repro.sim.hosts`).  ``True`` uses
            :class:`~repro.sim.hosts.ContentionConfig` defaults; a dict
            (picklable scenario knob) or a config sets the tenancy and
            whether the controller remediates.  Nodes are placed on hosts
            with replica-group anti-affinity, scripted ``host_degradation``
            episodes inflate colocated nodes' *service* times, and the
            controller live-migrates replicas off hosts diagnosed noisy
            instead of renting into the violation (``placement_aware=False``
            in the config keeps the diagnosis but disables the remediation —
            the capacity-only ablation).  Default off; off runs are
            byte-identical to builds that predate the contention layer.
    """

    def __init__(
        self,
        seed: int = 0,
        consistency: Optional[ConsistencySpec] = None,
        instance_type: InstanceType = INSTANCE_TYPES["m1.small"],
        replication_factor: Optional[int] = None,
        initial_groups: int = 2,
        autoscale: bool = True,
        predictive_scaling: bool = True,
        control_interval: float = 60.0,
        max_instances: int = 10_000,
        updates_per_second_per_node: float = 200.0,
        fifo_updates: bool = False,
        min_groups: int = 1,
        partitioner_kind: str = "hash",
        repartition: bool = True,
        repartition_hot_utilisation: float = 0.75,
        repartition_cold_utilisation: float = 0.5,
        cache: Union[bool, CacheConfig] = True,
        planner_backend: str = "hybrid",
        telemetry: bool = False,
        spot: bool = False,
        write_audit: Optional[bool] = None,
        contention=None,
    ) -> None:
        self.spec = consistency or ConsistencySpec()
        self.sim = Simulator(seed=seed)
        self.durability_model = DurabilityModel()
        if replication_factor is None:
            replication_factor = self.durability_model.required_replication_factor(
                self.spec.durability.probability,
                self.spec.durability.horizon_hours,
            )
        self.replication_factor = replication_factor
        self.contention_config = resolve_contention_config(contention)
        self.host_map: Optional[HostMap] = None
        self.contention: Optional[ContentionProcess] = None
        if self.contention_config is not None:
            self.host_map = HostMap(tenancy=self.contention_config.tenancy)
            self.contention = ContentionProcess(self.sim, self.host_map)
        self.cluster = Cluster(
            simulator=self.sim,
            replication_factor=replication_factor,
            initial_groups=initial_groups,
            node_capacity_ops=instance_type.capacity_ops_per_sec,
            partitioner_kind=partitioner_kind,
            host_map=self.host_map,
        )
        # Both big subsystems default ON (the validation grid's green verdict
        # is the receipt — see PERFORMANCE.md "Validation grid").
        self.repartition = repartition
        self.rebalancer: Optional[Rebalancer] = None
        if repartition:
            self.rebalancer = Rebalancer(
                self.cluster,
                hot_utilisation=repartition_hot_utilisation,
                cold_utilisation=repartition_cold_utilisation,
                # Let a migration's load shift register in the utilisation
                # EWMAs before acting again, or the hot range ping-pongs.
                cooldown=2.0 * control_interval,
            )
        self.router = Router(self.cluster)
        self.cache: Optional[CacheTier] = None
        if cache:
            cache_config = cache if isinstance(cache, CacheConfig) else CacheConfig()
            self.cache = CacheTier(cache_config, spec=self.spec, simulator=self.sim)
        self.tracer: Optional[Tracer] = None
        # The control plane's decision log (always on; see repro.obs.timeline).
        self.timeline = DecisionTimeline()
        # Applied-propagation lags (telemetry on): no other record keeps them.
        self._replication_lag = PercentileEstimator()
        if telemetry:
            self.tracer = Tracer()
            self.router.attach_tracer(self.tracer)
            self.cluster.replication.add_lag_listener(self._on_replication_lag)
        self.pool = InstancePool(self.sim, instance_type=instance_type,
                                 max_instances=max_instances)
        self.market: Optional[SpotMarket] = None
        self.spot_fleet: Optional[SpotFleetManager] = None
        if spot:
            self.market = SpotMarket(self.sim)
            self.pool.attach_market(self.market)
            self.spot_fleet = SpotFleetManager(self.sim, self.cluster, self.pool, self.timeline)
        # Acknowledged-write audit: (namespace, key) -> the promised version.
        self._write_audit: Optional[Dict[Tuple[str, Any], Any]] = (
            {} if (spot if write_audit is None else write_audit) else None
        )
        self.registry = SchemaRegistry()
        self.analyzer = QueryAnalyzer(self.registry)
        self.compiler = QueryCompiler()
        self._executor = QueryExecutor()
        self._adapter = _RouterStorageAdapter(self)
        self.maintainer = IndexMaintainer(self.registry, self._adapter)
        self.updater = AsyncIndexUpdater(
            simulator=self.sim,
            maintainer=self.maintainer,
            node_count_fn=lambda: self.cluster.node_count(),
            updates_per_second_per_node=updates_per_second_per_node,
            default_staleness_bound=self.spec.read.staleness_bound,
            fifo=fifo_updates,
        )
        self.sessions = SessionManager(default_guarantee=self.spec.session)
        self.resolver = ConflictResolver(self.spec.write, replication_factor)
        self.arbitrator = Arbitrator(self.spec)
        self.slas: Dict[str, PerformanceSLA] = {
            "read": PerformanceSLA(
                percentile=self.spec.performance.percentile,
                latency=self.spec.performance.latency,
                availability=self.spec.performance.availability,
                op_type="read",
            ),
            "write": PerformanceSLA(
                percentile=self.spec.performance.percentile,
                latency=self.spec.performance.latency,
                availability=self.spec.performance.availability,
                op_type="write",
            ),
        }
        # The one op log (see _record_op); the SLA window, all-time
        # percentiles, compliance series and op counts are views of it.
        # ``latencies`` is the name its percentile views are read under.
        self.recorder = self.latencies = OpRecorder(self.slas)
        # Reads served under arbitration with an *unverifiable* staleness
        # bound (primary unreachable / failed mid-check).  The validation
        # grid requires this to stay 0 in fault-free cells: the declared
        # bound must hold by verification, not by luck.
        self._stale_served = 0
        self._queries: Dict[str, CompiledQuery] = {}

        # The learned and the closed-form model describe the same node.
        node_model = dict(
            base_service_time=BASE_SERVICE_TIME,
            node_capacity_ops=instance_type.capacity_ops_per_sec,
            percentile=self.spec.performance.percentile,
        )
        self.latency_model = LatencyPercentileModel(**node_model)
        # Closed-form M/G/k sizing backbone; calibrated per window by the
        # monitor and consulted by the analytical/hybrid planner backends.
        self.sizing_model = AnalyticSizingModel(**node_model)
        self.lag_model = PropagationLagModel()
        self.forecaster = WorkloadForecaster()
        self.monitor = SLAMonitor(
            cluster=self.cluster,
            recorder=self.recorder,
            pending_maintenance=self.updater.pending_count,
            cache_hit_counts=self.cache_hit_counts,
            latency_model=self.latency_model,
            lag_model=self.lag_model,
            slas=self.slas,
            # With the rebalancer active, hotspot windows must not teach the
            # capacity model that nodes never help (see SLAMonitor._train).
            exclude_hotspot_training=repartition,
            # The rebalancer's decayed token sketch is a steadier rate signal
            # than per-node interarrival EWMAs (see rate_estimate()); use it
            # for the mean-utilisation feature when it is being fed.
            rate_tracker=self.rebalancer.tracker if self.rebalancer is not None else None,
            sizing_model=self.sizing_model,
            contention_config=self.contention_config,
            tracer=self.tracer,
        )
        self.planner = CapacityPlanner(
            latency_model=self.latency_model,
            lag_model=self.lag_model,
            node_capacity_ops=instance_type.capacity_ops_per_sec,
            min_nodes=max(min_groups, 1) * replication_factor,
            max_nodes=max_instances,
            repartition_hot_utilisation=repartition_hot_utilisation,
            backend=planner_backend,
            sizing_model=self.sizing_model,
        )
        self.autoscale = autoscale
        self.controller = ProvisioningController(
            simulator=self.sim,
            cluster=self.cluster,
            pool=self.pool,
            monitor=self.monitor,
            planner=self.planner,
            forecaster=self.forecaster,
            updater=self.updater,
            slas=self.slas,
            spec=self.spec,
            control_interval=control_interval,
            predictive=predictive_scaling,
            rebalancer=self.rebalancer,
            timeline=self.timeline,
            spot_fleet=self.spot_fleet,
            contention_config=self.contention_config,
        )
        self._started = False

    # ----------------------------------------------------------------- lifecycle

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.sim.now

    def start(self) -> None:
        """Start background activity: index maintenance and (optionally) autoscaling."""
        if self._started:
            return
        self.updater.start()
        if self.contention is not None:
            self.contention.install(self.cluster)
        if self.autoscale:
            self.controller.start()
        self._started = True

    def run_for(self, seconds: float) -> float:
        """Advance simulated time by ``seconds``, processing all scheduled events."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        return self.sim.run_until(self.sim.now + seconds)

    def flush_indexes(self) -> int:
        """Synchronously drain the index-maintenance queue (tests and examples)."""
        return self.updater.drain_now()

    def settle(self, seconds: float = 2.0) -> None:
        """Let in-flight replication and index maintenance finish.

        Convenience for examples and tests that drive the API directly (rather
        than through a load generator): advances simulated time so scheduled
        replication applies, drains the maintenance queue, then advances time
        again so the index writes themselves replicate.
        """
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        self.run_for(seconds)
        self.flush_indexes()
        self.run_for(seconds)
        self.cluster.decay_load()

    # -------------------------------------------------------------------- schema

    def register_entity(self, schema: EntitySchema) -> EntitySchema:
        """Declare an entity set."""
        return self.registry.register_entity(schema)

    # ------------------------------------------------------------------- queries

    def register_query(self, name: str, sql: str) -> CompiledQuery:
        """Declare a query template; admitted templates get a maintained index.

        Raises :class:`~repro.core.query.analyzer.QueryRejected` when the
        template cannot be executed scale-independently, with the reason.
        """
        template = parse_query(sql)
        analyzed = self.analyzer.analyze(template)
        compiled = self.compiler.compile(name, analyzed)
        self.maintainer.register(compiled)
        self._queries[name] = compiled
        return compiled

    def compiled_query(self, name: str) -> CompiledQuery:
        if name not in self._queries:
            raise KeyError(f"no query template registered under {name!r}")
        return self._queries[name]

    def maintenance_table(self) -> List[MaintenanceRule]:
        """The Figure-3 table: every maintenance rule across registered queries."""
        rules: List[MaintenanceRule] = []
        for compiled in self._queries.values():
            rules.extend(compiled.maintenance_rules)
        return rules

    # -------------------------------------------------------------------- writes

    def put(self, entity: str, row: Mapping[str, Any],
            session_id: Optional[str] = None) -> OperationOutcome:
        """Insert or update one entity row, honouring the write-consistency axis."""
        schema = self.registry.entity(entity)
        key = schema.validate_row(row)
        namespace = entity_namespace(entity)
        old_row = self._adapter.entity_row(entity, key)
        resolved = self.resolver.resolve(old_row, row)
        # Trace scope opens after the adapter pre-read: its latency is not
        # part of the outcome the client is charged, so its spans must not
        # land on this trace.
        tracer = self.tracer
        traced = tracer is not None and tracer.maybe_begin("write", self.sim.now)
        result = self.router.write(
            namespace, key, resolved,
            writer=session_id or "",
            write_quorum=self.resolver.write_quorum(),
        )
        if traced:
            tracer.end(result.latency, result.success)
        self._record_op("write", result.latency, result.success)
        if not result.success:
            return OperationOutcome(success=False, latency=result.latency, error=result.error)
        self._note_acked_write(namespace, key, result.value, session_id)
        self.updater.enqueue(
            EntityWrite(entity=entity, old_row=old_row, new_row=resolved),
            staleness_bound=self.spec.read.staleness_bound,
        )
        return OperationOutcome(success=True, latency=result.latency, row=resolved)

    def delete(self, entity: str, key: Tuple,
               session_id: Optional[str] = None) -> OperationOutcome:
        """Delete one entity row (and queue the index maintenance it implies)."""
        schema = self.registry.entity(entity)
        namespace = entity_namespace(entity)
        old_row = self._adapter.entity_row(entity, key)
        tracer = self.tracer
        traced = tracer is not None and tracer.maybe_begin("write", self.sim.now)
        result = self.router.delete(namespace, key, writer=session_id or "")
        if traced:
            tracer.end(result.latency, result.success)
        self._record_op("write", result.latency, result.success)
        if not result.success:
            return OperationOutcome(success=False, latency=result.latency, error=result.error)
        self._note_acked_write(namespace, key, result.value, session_id)
        if old_row is not None:
            self.updater.enqueue(
                EntityWrite(entity=entity, old_row=old_row, new_row=None),
                staleness_bound=self.spec.read.staleness_bound,
            )
        return OperationOutcome(success=True, latency=result.latency, row=old_row)

    def _note_acked_write(self, namespace: str, key: Key, version,
                          session_id: Optional[str]) -> None:
        """What every acknowledged entity write owes, a tombstone included:
        invalidate cached copies, record the promised version for the audit,
        and note it in the writing session so read-your-writes holds against
        lagging replicas."""
        if self.cache is not None:
            self.cache.note_entity_write(namespace, key)
        if version is None:
            return
        if self._write_audit is not None:
            self._write_audit[(namespace, key)] = version
        session = self.sessions.for_write(session_id)
        if session is not None:
            session.note_write(namespace, key, version)

    # --------------------------------------------------------------------- reads

    def get(self, entity: str, key: Tuple,
            session_id: Optional[str] = None) -> OperationOutcome:
        """Read one entity row under the declared read-consistency and session axes.

        With the cache tier attached, a hit serves the cached version without
        touching the cluster; the TTLs and the session bypass of
        :class:`~repro.cache.tier.CacheTier` keep that shortcut inside the
        declared staleness bound and session guarantees.
        """
        namespace = entity_namespace(entity)
        session = self.sessions.get(session_id)
        tracer = self.tracer
        traced = tracer is not None and tracer.maybe_begin("read", self.sim.now)
        if self.cache is not None:
            hit = self.cache.lookup_entity(namespace, key, session)
            if hit is not None:
                value, latency = hit
                if traced:
                    tracer.add("cache_hit", latency)
                    tracer.end(latency, True)
                self._record_op("read", latency, True, cluster_served=False)
                return OperationOutcome(success=True, latency=latency,
                                        row=value.value if value is not None else None)
            if traced:
                tracer.add("cache_miss", 0.0)
        rows, latency, error, stale = self._verify_replica_read(
            namespace, (key,), {key: self.router.read_one(namespace, key)}, session)
        success = error is None
        if traced:
            tracer.end(latency, success)
        self._record_op("read", latency, success)
        if not success:
            return OperationOutcome(success=False, latency=latency, error=error)
        return OperationOutcome(success=True, latency=latency, row=rows[key], stale=stale)

    def query(self, name: str, params: Dict[str, Any],
              session_id: Optional[str] = None) -> QueryResult:
        """Execute a registered query template with bound parameters."""
        compiled = self.compiled_query(name)
        session = self.sessions.get(session_id)
        tracer = self.tracer
        traced = tracer is not None and tracer.maybe_begin("query", self.sim.now)
        reader = _QueryReader(self, session, tracer if traced else None)
        result = self._executor.execute(compiled.plan, params, reader)
        if traced:
            if reader.deref_mark >= 0:
                tracer.demote_since(reader.deref_mark)
                # The executor charges the slowest dereference (parallel
                # fetches); one aggregate span carries exactly that time.
                deref_total = result.latency - reader.range_latency_total
                if deref_total > 0.0:
                    tracer.add("index_deref", deref_total,
                               detail=f"{result.dereferences} parallel dereference(s)")
            tracer.end(result.latency, True)
        self._record_op("read", result.latency, True,
                        cluster_served=reader.touched_cluster)
        return result

    # ------------------------------------------------------- consistency-aware read

    def _verify_replica_read(self, namespace: str, keys: Sequence[Key],
                             routed: Dict[Key, ReadOutcome],
                             session: Optional[Session]):
        """The staleness-bound and session-guarantee rule for cluster reads —
        the only copy of it: ``Scads.get`` passes one key and its one-key
        outcome, a query's dereference list its cache misses and what
        ``Router.read_many`` returned for them.

        Resolved once per :class:`~repro.storage.router.ReadOutcome` (one per
        multiget, shared by the keys it served): the owning group's primary,
        whether it served the request itself — then every value is current by
        construction, unless a session guarantee still has to be checked (a
        migration-window write can leave a session ahead of the owner's
        primary; the re-read below dual-routes to catch that) — whether the
        client can reach it, and whether it is alive to be asked.

        Per key, in the order of ``keys``: the primary's version against the
        served one (newer and committed for longer than the declared bound:
        too stale to serve), the session's verdict, the re-read from the
        primary (its latency is added to that key's) or the arbitrator's
        availability-vs-consistency decision when the primary cannot answer,
        ``session.note_read`` and the cache admission.
        Admissions must happen in ``keys`` order — the query path's
        first-occurrence order of its misses — and not outcome by outcome:
        the LRU eviction sequence follows it.

        Returns ``(rows, slowest, error, stale)``: under every key the stored
        row itself — the read-only mapping the write resolved, never a copy —
        or None when there is no row or the read failed; the largest
        per-key latency (the fetches ran in parallel), the error of the last
        failed key (None when every read succeeded) and whether any key was
        served without its bound verified.  How far behind the primary a
        served value was known to be (0.0 verified current, an age when the
        primary holds a newer in-bound version, None unverifiable) goes to
        :meth:`CacheTier.admit_entity`, which subtracts it from the TTL and
        never admits an unverified read.
        """
        cache = self.cache
        now = self.sim.now
        staleness_bound = self.spec.read.staleness_bound
        resolved: Dict[ReadOutcome, tuple] = {}
        outcome = None
        rows: Dict[Key, Optional[Mapping[str, Any]]] = {}
        slowest = 0.0
        error = None
        any_stale = False
        for key in keys:
            if routed[key] is not outcome:
                outcome = routed[key]
                values = outcome.values
                served_latency = outcome.latency
                unserved = None if outcome.success else (outcome.error or "read failed")
                context = resolved.get(outcome)
                if context is not None:
                    served_by_primary, primary_reachable, peek = context
                elif unserved is None:
                    cluster = self.cluster
                    primary_id = outcome.group.primary
                    served_by_primary = outcome.node_id == primary_id
                    primary_reachable = served_by_primary or cluster.network.is_reachable(
                        "client", primary_id)
                    peek = None
                    if primary_reachable and not served_by_primary:
                        primary_node = cluster.nodes.get(primary_id)
                        if primary_node is not None and primary_node.alive:
                            peek = primary_node.peek
                    resolved[outcome] = (served_by_primary, primary_reachable, peek)
            latency = served_latency
            failure = unserved
            stale = False
            if failure is None:
                value = values[key]
                known_staleness: Optional[float] = None
                needs_primary = False
                if served_by_primary:
                    known_staleness = 0.0
                elif peek is not None:
                    primary_value = peek(namespace, key)
                    if primary_value is not None:
                        replica_version = value.version if value is not None else 0
                        age = now - primary_value.timestamp
                        if primary_value.version <= replica_version:
                            known_staleness = 0.0
                        elif age > staleness_bound:
                            needs_primary = True
                        elif primary_value.version == replica_version + 1:
                            # Exactly one version behind: the primary value's age is
                            # precisely when the replica value was superseded.
                            known_staleness = age
                        # Two or more versions behind: the served value was
                        # superseded by an *older* intermediate write whose
                        # commit time the primary no longer holds, so its true
                        # staleness is unknown — serve it (the paper's bound
                        # is enforced against the newest version) but never
                        # admit it to the cache.
                    elif value is None:
                        # Verified negative: the primary has nothing newer either.
                        known_staleness = 0.0
                elif not primary_reachable:
                    # Cannot verify the bound at all: availability vs. read consistency.
                    stale = True
                    if self.arbitrator.resolve_read_conflict():
                        failure = "read consistency prioritised over availability"
            # Session guarantees: the replica value must be at least as new as
            # what this session wrote / has already seen.
            if failure is None and ((session is not None and not session.acceptable(
                    namespace, key, value)) or needs_primary):
                if primary_reachable:
                    primary_result = self.router.read(namespace, key, from_primary=True)
                    latency += primary_result.latency
                    if primary_result.success:
                        value = primary_result.value
                        known_staleness = 0.0
                    else:
                        stale = True
                        known_staleness = None
                        if self.arbitrator.resolve_read_conflict():
                            failure = primary_result.error
                else:
                    stale = True
                    known_staleness = None
                    if self.arbitrator.resolve_session_conflict():
                        failure = "session guarantee unsatisfiable"
            if latency > slowest:
                slowest = latency
            if failure is not None:
                error = failure
                rows[key] = None
                continue
            if session is not None:
                session.note_read(namespace, key, value)
            if stale:
                self._stale_served += 1
                any_stale = True
            elif cache is not None:
                cache.admit_entity(namespace, key, value, known_staleness)
            rows[key] = value.value if value is not None else None
        return rows, slowest, error, any_stale

    # ---------------------------------------------------------------- accounting

    def cumulative_operation_counts(self) -> Dict[str, int]:
        """Cumulative read/write attempt counts."""
        return self.recorder.counts()

    def cache_hit_counts(self) -> Tuple[int, int]:
        """Cumulative cache (hits, misses); (0, 0) without a cache tier
        (the monitor diffs these per window)."""
        if self.cache is None:
            return (0, 0)
        return self.cache.hit_counts()

    def _note_index_write(self, namespace: str, key: Key) -> None:
        """Adapter hook: an index/reverse-index entry was written; invalidate
        the cached query scans covering it."""
        if self.cache is not None:
            self.cache.note_index_write(namespace, key)

    def _on_replication_lag(self, record) -> None:
        # Registered with telemetry on only; fires per applied propagation
        # (so applied_time is set), replication-factor times per write.
        self._replication_lag.add(record.applied_time - record.write_time)

    def _record_op(self, op_type: str, latency: float, success: bool,
                   cluster_served: bool = True) -> None:
        # There is a miss path only behind a cache tier: an uncached
        # window's report already IS the cluster label.
        self.recorder.record(op_type, self.sim.now, latency, success,
                             miss_path=cluster_served and self.cache is not None)

    # ----------------------------------------------------------------- reporting

    def sla_report(self, op_type: str = "read") -> SLAReport:
        """Overall SLA attainment for one operation type."""
        return self.recorder.report(op_type)

    def sla_compliance_windows(self, op_type: str = "read") -> List[ComplianceWindow]:
        """Fixed-clock windowed compliance series (validation-grid substrate)."""
        return self.recorder.compliance_windows(op_type)

    def cost_so_far(self) -> float:
        """Dollars spent on instances so far."""
        return self.pool.total_cost()

    def cache_hit_rate(self) -> float:
        """All-time cache hit rate (0.0 without a cache tier)."""
        return self.cache.hit_rate() if self.cache is not None else 0.0

    def stale_read_count(self) -> int:
        """Reads served stale under arbitration (bound unverifiable)."""
        return self._stale_served

    def lost_write_count(self) -> Optional[int]:
        """Acknowledged writes no alive owner still holds (None = audit off).

        The audit records the version each acknowledged write promised the
        client; this sweep asks the owning group whether any alive member
        still holds a version at least that new in last-writer-wins order
        (a later acknowledged overwrite counts — the audit itself advanced).
        The interruption-storm grid scenario gates on this staying 0: a
        drain or hibernation must never take the only copy of an
        acknowledged write with it.
        """
        if self._write_audit is None:
            return None
        lost = 0
        for (namespace, key), acked in self._write_audit.items():
            group_id = self.cluster.partitioner.group_for_token(str(key[0]))
            group = self.cluster.groups.get(group_id)
            held = False
            if group is not None:
                for node_id in group.node_ids:
                    node = self.cluster.nodes.get(node_id)
                    if node is None or not node.alive:
                        continue
                    stored = node.peek(namespace, key, include_tombstones=True)
                    # wins_over returns True on exact ties, so this accepts
                    # the promised version itself or anything newer.
                    if stored is not None and stored.wins_over(acked):
                        held = True
                        break
            if not held:
                lost += 1
        return lost

    def peak_node_count(self) -> int:
        """Most nodes attached after any control step; before the first, the current count."""
        return max((d.node_count for d in self.timeline.decisions),
                   default=self.cluster.node_count())

    # ------------------------------------------------------------- observability

    def traces(self) -> List:
        """Completed traces (empty without ``telemetry=``)."""
        return [] if self.tracer is None else list(self.tracer.traces)

    def collect_telemetry(self) -> Optional[Dict[str, Dict[str, Any]]]:
        """The run's telemetry snapshot (None without ``telemetry=``): a
        JSON-able view, names sorted, built at each call from the records
        that own the numbers — router op counts, the op recorder, the cache's
        hit counts, the decision log's observations, the tracer's traces and
        the replication-lag estimator.  Nothing is copied during the run."""
        tracer = self.tracer
        if tracer is None:
            return None
        recorder = self.recorder
        observations = [d.observation for d in self.timeline.decisions]
        counters = {f"router.{name}": n for name, n in self.router.op_counts().items()}
        counters.update((f"engine.{op}.ops", n) for op, n in recorder.counts().items())
        counters["replication.propagations"] = len(self._replication_lag)
        # Tallies of events are listed once they have happened.
        tallies = {f"engine.{op}.failures": n for op, n in recorder.failure_counts().items()}
        if self.cache is not None:
            counters["cache.hits"], counters["cache.misses"] = self.cache.hit_counts()
            tallies["engine.read.cache_served"] = recorder.off_miss_path_count("read")
        tallies["monitor.windows"] = len(observations)
        tallies["monitor.violation_windows"] = sum(o.any_sla_violated() for o in observations)
        tallies["monitor.contention_windows"] = sum(o.contention_suspected for o in observations)
        counters.update((name, n) for name, n in tallies.items() if n)
        gauges = {"cluster.peak_nodes": float(self.peak_node_count())}
        if observations:
            gauges["monitor.peak_request_rate"] = max(o.request_rate for o in observations)
            gauges["monitor.peak_utilisation"] = max(
                o.features.max_utilisation for o in observations)
        histograms: Dict[str, PercentileEstimator] = defaultdict(PercentileEstimator)
        for o in observations:
            if o.duration > 0:
                histograms["monitor.window_rate"].add(o.request_rate)
                histograms["monitor.window_cache_hit_rate"].add(o.cache_hit_rate)
        for trace in tracer.traces:
            histograms[f"trace.{trace.op}.latency"].add(trace.latency)
            for span in trace.spans:
                if not span.off_path:  # off-path spans are context, not attribution
                    histograms[f"span.{span.kind}"].add(span.duration)
        histograms["replication.lag"] = self._replication_lag
        histograms.update((f"engine.{op}.latency", recorder.all_time(op))
                          for op in recorder.op_types())
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": {name: h.snapshot() for name, h in sorted(histograms.items())},
        }
