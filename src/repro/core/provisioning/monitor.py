"""Workload and SLA monitoring: the observation half of the feedback loop.

Every control interval the monitor closes a window: it measures the request
rate and write fraction, the cluster's load statistics, the pending
maintenance backlog, and each SLA's attainment over the window, then feeds
those observations into the ML performance models.  The resulting
:class:`WindowObservation` is what the planner and controller act on; the
controller's decision for the window holds it on the decision timeline,
the only record of past windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.consistency.spec import PerformanceSLA
from repro.metrics.sla import OpRecorder, SLAReport
from repro.ml.features import FeatureExtractor, WorkloadFeatures
from repro.ml.performance_model import LatencyPercentileModel, PropagationLagModel
from repro.sim.hosts import QUIET_UTILISATION, RESIDUAL_THRESHOLD
from repro.storage.cluster import Cluster


@dataclass
class WindowObservation:
    """Everything measured over one closed control window."""

    time: float
    duration: float
    request_rate: float
    write_fraction: float
    features: WorkloadFeatures
    sla_reports: Dict[str, SLAReport] = field(default_factory=dict)
    pending_maintenance: int = 0
    max_propagation_lag: float = 0.0
    # Fraction of this window's client demand the cache tier absorbed.
    # ``request_rate`` is the *client* rate (what the forecaster should learn);
    # the cluster saw only ``request_rate * (1 - cache_hit_rate)`` of it, and
    # ``features`` are built from that cluster-side rate.
    cache_hit_rate: float = 0.0
    # SLA-percentile latency over only the reads the cluster served past the
    # cache tier this window (None when none happened, or with no cache).
    # On blended windows this replaces the poisoned blended label.
    cluster_read_percentile: Optional[float] = None
    # Contention diagnosis (inert defaults when the contention layer is off).
    # A violated window is *contention-classified* when the worst host's mean
    # service residual clears the configured threshold while cluster mean
    # utilisation sits below the quiet bound — service-dominated latency at
    # low queueing, the signature renting capacity cannot fix.
    contention_suspected: bool = False
    noisy_host: str = ""
    noisy_host_residual: float = 0.0
    # Worst-decile span-kind fractions for this window (telemetry-on only;
    # evidence attached to timeline records, never consulted by decisions —
    # telemetry-on runs must stay byte-identical to telemetry-off runs).
    span_kind_fractions: Optional[Dict[str, float]] = None

    def any_sla_violated(self) -> bool:
        return any(not report.satisfied for report in self.sla_reports.values())


class SLAMonitor:
    """Closes observation windows and trains the performance models."""

    # Above this window absorption, the observed latency percentile is a
    # cache/cluster blend and is not used as a latency-model label.
    CACHE_BLEND_TRAINING_CUTOFF = 0.05
    # A window whose hottest node runs at this multiple of the mean
    # utilisation (with hotspot exclusion on) is a placement problem and is
    # not used as a latency-model label.
    HOTSPOT_SKEW_RATIO = 1.6

    def __init__(
        self,
        cluster: Cluster,
        recorder: OpRecorder,
        pending_maintenance: Callable[[], int],
        cache_hit_counts: Callable[[], Tuple[int, int]],
        latency_model: LatencyPercentileModel,
        lag_model: PropagationLagModel,
        slas: Dict[str, PerformanceSLA],
        exclude_hotspot_training: bool = False,
        rate_tracker=None,
        sizing_model=None,
        contention_config=None,
        tracer=None,
    ) -> None:
        """``recorder`` is the engine's op log; each :meth:`close_window`
        closes its window too.  ``pending_maintenance`` returns the queued
        index-maintenance tasks right now and ``cache_hit_counts`` the
        cumulative cache-tier (hits, misses) — (0, 0) without a cache.

        ``sizing_model`` is an optional
        :class:`~repro.core.provisioning.analytic.AnalyticSizingModel`; when
        supplied, each clean training window also calibrates its percentile
        service time and demand amplification (bounded EWMAs — see
        ``observe_window``), so the analytical planner backends track the
        measured workload without inheriting the ML model's failure modes.

        ``rate_tracker`` is an optional
        :class:`~repro.storage.rebalancer.PartitionLoadTracker` (any object
        with ``rate_estimate()``/``total_load()``/``prunes_total``).  When supplied — the
        engine passes the rebalancer's tracker — the mean-utilisation feature
        is computed from its decayed-count rate inversion instead of the mean
        of per-node interarrival EWMAs, whose reciprocal is systematically
        high (Jensen) and noisy over short windows.  The max-utilisation
        feature keeps using node EWMAs: it exists to capture single-node
        hotspots, which an aggregate rate cannot see.
        """
        self._cluster = cluster
        self._recorder = recorder
        self._pending_maintenance = pending_maintenance
        self._cache_hit_counts = cache_hit_counts
        self._latency_model = latency_model
        self._lag_model = lag_model
        self._slas = dict(slas)
        self._exclude_hotspot_training = exclude_hotspot_training
        self._rate_tracker = rate_tracker
        self._sizing_model = sizing_model
        # Optional repro.sim.hosts.ContentionConfig: arms the per-host health
        # estimator and contention-vs-capacity window classification.
        self._contention_config = contention_config
        # Optional obs.Tracer: span-kind attribution *evidence* for
        # contention-classified windows (never part of the decision).
        self._tracer = tracer
        self._extractor = FeatureExtractor()
        self._last_time: Optional[float] = None
        self._last_cache_counts: Tuple[int, int] = (0, 0)
        # Largest replication lag applied since the previous window close.
        self._window_lag_max = 0.0
        cluster.replication.add_lag_listener(self._on_replication_lag)

    # ------------------------------------------------------------------ windows

    def close_window(self, now: float) -> WindowObservation:
        """Measure everything since the previous window close and train models."""
        reports, cluster_read_percentile = self._recorder.close_window()
        duration = now - self._last_time if self._last_time is not None else 0.0
        self._last_time = now

        total_ops = sum(report.request_count for report in reports.values())
        writes = reports["write"].request_count
        request_rate = total_ops / duration if duration > 0 else 0.0
        write_fraction = writes / total_ops if total_ops > 0 else 0.0
        cache_hit_rate = self._window_cache_hit_rate(write_fraction)

        self._cluster.decay_load()
        stats = self._cluster.stats()
        pending = self._pending_maintenance()
        # The cluster never saw the reads the cache absorbed; feed the models
        # the rate that actually reached the nodes, or a well-cached workload
        # would teach the latency model that enormous rates are harmless.
        # Absorption also shifts the *mix* that reaches the nodes toward
        # writes (only reads are absorbed), so the feature write fraction is
        # writes over cluster-served operations, not over client operations.
        cluster_rate = request_rate * (1.0 - cache_hit_rate)
        cluster_write_fraction = write_fraction
        if cache_hit_rate > 0.0:
            cluster_write_fraction = min(
                write_fraction / max(1.0 - cache_hit_rate, 1e-9), 1.0)
        mean_utilisation = stats.mean_utilisation
        if self._rate_tracker is not None and self._rate_tracker.total_load() > 0 \
                and stats.total_capacity_ops > 0 \
                and self._rate_tracker.prunes_total == 0:
            # Decayed-count rate inversion: steadier than per-node
            # interarrival EWMAs (see PartitionLoadTracker.rate_estimate).
            # Once the sketch has pruned, its totals under-count the cold
            # tail and the inverted rate is biased low — a deflated mean
            # would misclassify busy windows as hotspots (and suppress
            # latency-model training), so fall back to the EWMAs then.
            mean_utilisation = (self._rate_tracker.rate_estimate()
                                / stats.total_capacity_ops)
        features = self._extractor.extract(
            request_rate=cluster_rate,
            write_fraction=cluster_write_fraction,
            node_count=max(stats.node_count, 1),
            mean_utilisation=mean_utilisation,
            max_utilisation=stats.max_utilisation,
            pending_updates=pending,
        )

        max_lag = self._window_lag_max
        self._window_lag_max = 0.0
        observation = WindowObservation(
            time=now,
            duration=duration,
            request_rate=request_rate,
            write_fraction=write_fraction,
            features=features,
            sla_reports=reports,
            pending_maintenance=pending,
            max_propagation_lag=max_lag,
            cache_hit_rate=cache_hit_rate,
            cluster_read_percentile=cluster_read_percentile,
        )
        if self._contention_config is not None:
            self._diagnose(observation)
        self._train(observation)
        return observation

    def host_residuals(self) -> Dict[str, float]:
        """Per-host health: mean service residual over alive colocated nodes.

        Built from each node's EWMA of observed base service time relative to
        its model's analytic mean (:meth:`StorageNode.service_residual`) —
        an estimator, not the injected ground-truth factor.  Correlated
        elevation across one host's tenants is the noisy-neighbor signature.
        """
        residuals: Dict[str, float] = {}
        host_map = self._cluster.host_map
        if host_map is None:
            return residuals
        for host in host_map.hosts():
            values = []
            for node_id in host_map.nodes_on(host):
                node = self._cluster.nodes.get(node_id)
                if node is not None and node.alive:
                    values.append(node.service_residual())
            if values:
                residuals[host] = sum(values) / len(values)
        return residuals

    def _diagnose(self, observation: WindowObservation) -> None:
        """Classify a violated window: capacity shortfall vs contention.

        Contention = the worst host's residual clears
        :data:`~repro.sim.hosts.RESIDUAL_THRESHOLD` while mean utilisation is
        at or below :data:`~repro.sim.hosts.QUIET_UTILISATION`:
        service-dominated latency at low queueing.  Renting nodes cannot fix
        that — the controller's remediation is to evacuate the named host.
        When a tracer is attached, the window's worst-decile span-kind split
        is recorded as *evidence* only; the classification never reads it,
        so telemetry-on runs stay byte-identical to telemetry-off runs.
        """
        residuals = self.host_residuals()
        if not residuals:
            return
        noisy = max(residuals, key=residuals.get)
        observation.noisy_host_residual = residuals[noisy]
        if residuals[noisy] >= RESIDUAL_THRESHOLD:
            observation.noisy_host = noisy
        observation.contention_suspected = (
            observation.any_sla_violated()
            and observation.noisy_host != ""
            and observation.features.mean_utilisation <= QUIET_UTILISATION
        )
        if self._tracer is not None and observation.contention_suspected \
                and observation.duration > 0:
            from repro.obs.attribution import attribute_windows
            start = observation.time - observation.duration
            in_window = [t for t in self._tracer.traces
                         if start <= t.start <= observation.time]
            windows = attribute_windows(in_window, window=observation.duration)
            if windows:
                observation.span_kind_fractions = windows[-1].kind_fractions()

    def _on_replication_lag(self, record) -> None:
        # Listeners fire only for applied propagations, so applied_time is set.
        lag = record.applied_time - record.write_time
        if lag > self._window_lag_max:
            self._window_lag_max = lag

    def _window_cache_hit_rate(self, write_fraction: float) -> float:
        """Fraction of this window's client demand the cache tier absorbed.

        Measured in *lookup* units, not operations: a compiled query is one
        operation but several cache lookups (its range scan plus each
        dereference), and every lookup that misses is cluster work the
        discount must not hide.  The lookup-level hit rate — hits over
        (hits + misses) — is therefore the fraction of an average read's
        cluster cost that was absorbed; scaling by the read share
        ``1 - write_fraction`` converts it to a fraction of total demand
        (writes never consult the cache).
        """
        hits, misses = self._cache_hit_counts()
        last_hits, last_misses = self._last_cache_counts
        self._last_cache_counts = (hits, misses)
        window_hits = max(hits - last_hits, 0)
        window_misses = max(misses - last_misses, 0)
        lookups = window_hits + window_misses
        if lookups <= 0:
            return 0.0
        read_share = min(max(1.0 - write_fraction, 0.0), 1.0)
        return (window_hits / lookups) * read_share

    def _train(self, observation: WindowObservation) -> None:
        """Feed the window into the latency and propagation models."""
        if observation.request_rate <= 0:
            return
        # Train the latency model on the op type the primary SLA cares about
        # (reads by default), falling back to any op type with traffic.
        # Hotspot windows (one node far hotter than the cluster mean) are
        # optionally excluded: their tail latency reflects *placement*, not
        # capacity, and training on them teaches the capacity model that
        # adding nodes never helps.  The repartition branch owns that regime.
        # Windows with material cache absorption used to be excluded outright
        # for the dual reason: the observed *read* percentile blends
        # sub-millisecond cache hits with cluster reads, so the label says
        # "this cluster rate is harmless" when it is the *cache* that made it
        # harmless — a model trained on that under-provisions the moment the
        # hit rate drops.  The recorder flags the miss path, so the blend is
        # repaired instead of skipped: the read label becomes the
        # cluster-served-reads-only percentile (which matches the
        # cluster-side features by construction), so the model keeps
        # learning while the cache is hot.
        hotspot_window = (
            self._exclude_hotspot_training
            and observation.features.max_utilisation
            >= self.HOTSPOT_SKEW_RATIO * max(observation.features.mean_utilisation, 1e-9)
            and observation.features.max_utilisation >= 0.3
        )
        blended_window = observation.cache_hit_rate >= self.CACHE_BLEND_TRAINING_CUTOFF
        for op_type, sla in self._slas.items():
            report = observation.sla_reports.get(op_type)
            if report is None or report.request_count == 0:
                continue
            if hotspot_window:
                continue
            if observation.contention_suspected \
                    and self._contention_config.placement_aware:
                # Contention-classified windows have the same label pathology
                # as hotspot windows: the tail reflects a noisy *host*, not
                # capacity, and training on it teaches the sizing models that
                # nodes never help.  The evacuation branch owns this regime.
                # The capacity-only ablation (placement_aware=False) keeps
                # training on the poisoned labels on purpose: conflating
                # contention with capacity — and renting nodes that do not
                # help — is exactly the pathology it exists to demonstrate.
                continue
            label = report.observed_percentile_latency
            if blended_window and op_type == "read":
                if observation.cluster_read_percentile is None:
                    continue  # no clean label available: keep the old skip
                label = observation.cluster_read_percentile
            self._latency_model.observe(observation.features, label)
            if self._sizing_model is not None and op_type == "read":
                # Same label hygiene as the ML model: hotspot windows are
                # already skipped above, blended read labels are repaired.
                self._sizing_model.observe_window(observation.features, label)
        self._lag_model.observe(
            pending_updates=observation.pending_maintenance,
            per_node_rate=observation.features.per_node_rate,
            observed_lag=observation.max_propagation_lag,
        )
