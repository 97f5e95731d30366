"""Noisy neighbors as a first-class fault: the contention layer end to end.

Covers the substrate (host placement with replica-group anti-affinity, the
scripted per-host co-tenant episodes, service-side latency
inflation and the residual estimator), the diagnosis (per-host health
aggregation and the monitor's contention-vs-capacity window classification,
which never consults the tracer), the remediation plumbing (host
quarantine after evacuation, the controller's fractional scale-down
hysteresis), the ``host_degradation`` fault's bookkeeping and fabric
wiring, worst-decile span attribution on contention-shaped traces, and the
sweep fabric's byte-identity over the ``noisy-neighbor-episode`` scenario.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.core.engine import Scads
from repro.core.provisioning.monitor import SLAMonitor, WindowObservation
from repro.metrics.sla import OpRecorder, SLAReport
from repro.ml.features import WorkloadFeatures
from repro.ml.performance_model import LatencyPercentileModel, PropagationLagModel
from repro.obs.attribution import attribute_windows
from repro.obs.tracing import Span, TraceRecord
from repro.parallel.executor import run_sweep
from repro.parallel.scenarios import STANDARD_SUITE, smoke_variant
from repro.parallel.spec import FAULT_KINDS, SweepGrid
from repro.sim.hosts import (
    QUIET_UTILISATION,
    RESIDUAL_THRESHOLD,
    ContentionConfig,
    ContentionProcess,
    HostMap,
    resolve_contention_config,
)
from repro.sim.latency import ConstantLatency, QueueingLatency
from repro.sim.simulator import Simulator
from repro.storage.cluster import Cluster
from repro.storage.failure import FailureInjector

pytestmark = pytest.mark.tier1


# ---------------------------------------------------------------- host map


class TestHostMap:
    def test_least_occupied_with_tie_by_creation_order(self):
        hm = HostMap(tenancy=2)
        assert hm.assign("a") == "host-0"
        assert hm.assign("b") == "host-0"  # host-0 has room, no new host
        assert hm.assign("c") == "host-1"  # host-0 full
        assert hm.assign("d") == "host-1"
        assert hm.hosts() == ("host-0", "host-1")
        assert hm.nodes_on("host-0") == ("a", "b")

    def test_avoid_set_opens_a_new_host(self):
        hm = HostMap(tenancy=4)
        hm.assign("a")
        assert hm.assign("b", avoid=("host-0",)) == "host-1"
        assert hm.host_of("b") == "host-1"

    def test_release_frees_the_slot(self):
        hm = HostMap(tenancy=1)
        hm.assign("a")
        hm.release("a")
        assert hm.host_of("a") is None
        # The freed slot is reused before a new host is opened.
        assert hm.assign("b") == "host-0"
        hm.release("never-placed")  # no-op, never raises

    def test_double_assignment_and_bad_tenancy_raise(self):
        hm = HostMap(tenancy=2)
        hm.assign("a")
        with pytest.raises(ValueError):
            hm.assign("a")
        with pytest.raises(ValueError):
            HostMap(tenancy=0)

    def test_resolve_contention_config_forms(self):
        assert resolve_contention_config(None) is None
        assert resolve_contention_config(False) is None
        assert resolve_contention_config(True).tenancy == 4
        assert resolve_contention_config({"tenancy": 2}).tenancy == 2
        cfg = ContentionConfig(tenancy=8)
        assert resolve_contention_config(cfg) is cfg
        with pytest.raises(TypeError):
            resolve_contention_config("hosts")


# ------------------------------------------------------ contention process


def make_process(seed):
    return ContentionProcess(Simulator(seed=seed), HostMap())


def contention_streams(sim):
    return [name for name in sim.random._streams if name.startswith("contention:")]


class TestContentionProcess:
    def test_forced_episode_consumes_no_rng(self):
        proc = make_process(5)
        proc.force_episode("host-0", start=300.0, duration=120.0,
                           intensity=9.0)
        assert proc._forced == {"host-0": [(300.0, 420.0, 9.0)]}  # noqa: SLF001
        for t in range(200):
            at = t * 60.0
            expected = 9.0 if 300.0 <= at < 420.0 else 1.0
            assert proc.factor_at("host-0", at) == expected
            assert proc.factor_at("host-1", at) == 1.0
        assert contention_streams(proc._sim) == []

    def test_forced_episode_validation(self):
        proc = make_process(0)
        with pytest.raises(ValueError):
            proc.force_episode("host-0", start=0.0, duration=0.0, intensity=2.0)
        with pytest.raises(ValueError):
            proc.force_episode("host-0", start=0.0, duration=10.0, intensity=0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ContentionConfig(tenancy=0)


# ------------------------------------------------- latency model physics


class TestContentionLatency:
    def test_factor_inflates_service_side(self):
        sim = Simulator(seed=0)
        rng = sim.random.get("x")
        model = QueueingLatency(ConstantLatency(0.010))
        model.set_utilisation(0.5)
        assert model.sample(rng) == pytest.approx(0.020)
        model.set_contention(3.0)
        # The factor multiplies the base draw, then queueing inflates it.
        assert model.sample(rng) == pytest.approx(0.010 * 3.0 / 0.5)

    def test_quiet_factor_is_an_exact_noop(self):
        sim = Simulator(seed=0)
        rng = sim.random.get("x")
        contended = QueueingLatency(ConstantLatency(0.0137))
        plain = QueueingLatency(ConstantLatency(0.0137))
        contended.set_contention(1.0)  # pushed to every node on a quiet host
        for rho in (0.0, 0.3, 0.9):
            contended.set_utilisation(rho)
            plain.set_utilisation(rho)
            # x * 1.0 == x under IEEE-754: quiet hosts leave the sample
            # path bit-identical, which is what keeps contention-enabled
            # runs without episodes byte-identical to contention-off runs.
            assert contended.sample(rng) == plain.sample(rng)

    def test_residual_tracks_the_factor_without_ground_truth(self):
        sim = Simulator(seed=0)
        rng = sim.random.get("x")
        model = QueueingLatency(ConstantLatency(0.004))
        assert model.service_residual() == 1.0
        model.set_contention(4.0)
        for _ in range(200):
            model.sample(rng)
        assert model.service_residual() == pytest.approx(4.0, rel=1e-3)
        model.set_contention(1.0)
        for _ in range(200):
            model.sample(rng)
        assert model.service_residual() == pytest.approx(1.0, rel=1e-3)

    def test_node_residual_estimator_converges_under_noise(self):
        sim = Simulator(seed=4)
        cluster = Cluster(simulator=sim, replication_factor=1, initial_groups=2,
                          host_map=HostMap(tenancy=1))
        noisy, quiet = sorted(cluster.nodes)
        cluster.nodes[noisy].set_contention(5.0)
        cluster.nodes[quiet].set_contention(1.0)
        for _ in range(400):
            cluster.nodes[noisy].service_time()
            cluster.nodes[quiet].service_time()
        # Log-normal noise, so the EWMA hovers around the factor.
        assert cluster.nodes[noisy].service_residual() > 3.5
        assert cluster.nodes[quiet].service_residual() < 1.5


# -------------------------------------- placement audit (satellite: anti-affinity)


def make_placed_cluster(seed=0, groups=3, rf=3, tenancy=4):
    sim = Simulator(seed=seed)
    cluster = Cluster(simulator=sim, replication_factor=rf,
                      initial_groups=groups, host_map=HostMap(tenancy=tenancy))
    return sim, cluster


class TestPlacementAudit:
    def test_fresh_cluster_satisfies_anti_affinity(self):
        _, cluster = make_placed_cluster(groups=4, rf=3)
        assert cluster.anti_affinity_violations() == []
        for group_id in cluster.groups:
            spread = cluster.hosts_of_group(group_id)
            # rf=3 has quorum 2, so the cap is one member per host: every
            # replica of a group lands on a distinct physical host.
            assert len(spread) == 3
            assert all(count == 1 for count in spread.values())

    def test_audit_detects_a_manufactured_violation(self):
        _, cluster = make_placed_cluster(groups=1, rf=3, tenancy=4)
        group = cluster.groups["group-0"]
        anchor = cluster.host_map.host_of(group.node_ids[0])
        # Force a second member onto the anchor host behind the placement
        # path's back; the audit must name the group and host.
        victim = group.node_ids[1]
        cluster.host_map.release(victim)
        others = [h for h in cluster.host_map.hosts() if h != anchor]
        cluster.host_map.assign(victim, avoid=others)
        assert cluster.host_map.host_of(victim) == anchor
        assert cluster.anti_affinity_violations() == [("group-0", anchor, 2)]

    def test_hostless_cluster_reports_empty(self):
        sim = Simulator(seed=0)
        cluster = Cluster(simulator=sim, replication_factor=3, initial_groups=2)
        assert cluster.hosts_of_group("group-0") == {}
        assert cluster.anti_affinity_violations() == []
        with pytest.raises(KeyError):
            cluster.hosts_of_group("no-such-group")

    def test_zone_outage_leaves_placement_invariant_intact(self):
        # Crash-and-recover churn (the zone outage downs one member of
        # every group at once) must never concentrate a group's quorum on
        # one host.
        engine = Scads(seed=9, contention=True, autoscale=False,
                       initial_groups=3, replication_factor=3, cache=False)
        injector = FailureInjector(engine.cluster, contention=engine.contention)
        injector.zone_outage(at=10.0, duration=30.0, zone_index=1)
        engine.start()
        engine.sim.run_until(80.0)
        assert engine.cluster.anti_affinity_violations() == []
        for group_id in engine.cluster.groups:
            assert len(engine.cluster.hosts_of_group(group_id)) == 3

    def test_evacuation_respects_anti_affinity_and_the_noisy_host(self):
        _, cluster = make_placed_cluster(groups=3, rf=3)
        moves = cluster.evacuate_host("host-0")
        assert moves  # host-0 held replicas on a 3x3 cluster
        assert cluster.host_map.nodes_on("host-0") == ()
        for _, new_id in moves:
            assert cluster.host_map.host_of(new_id) != "host-0"
        assert cluster.anti_affinity_violations() == []
        # Data rode along: every group's members agree on their key sets.
        for group in cluster.groups.values():
            counts = {cluster.nodes[nid].key_count() for nid in group.node_ids}
            assert len(counts) == 1


class TestQuarantine:
    def test_quarantined_host_is_avoided_until_lifted(self):
        sim, cluster = make_placed_cluster(groups=1, rf=3, tenancy=8)
        cluster.quarantine_host("host-0", until=500.0)
        assert cluster.quarantined_hosts() == ("host-0",)
        group = cluster.add_replica_group()
        for node_id in group.node_ids:
            assert cluster.host_map.host_of(node_id) != "host-0"
        sim.run_until(501.0)
        assert cluster.quarantined_hosts() == ()
        group = cluster.add_replica_group()
        hosts = {cluster.host_map.host_of(n) for n in group.node_ids}
        assert "host-0" in hosts  # the lifted host is placeable again

    def test_quarantine_extends_never_shrinks(self):
        _, cluster = make_placed_cluster(groups=1)
        cluster.quarantine_host("host-0", until=300.0)
        cluster.quarantine_host("host-0", until=100.0)
        assert cluster._quarantined_hosts["host-0"] == 300.0
        cluster.quarantine_host("host-0", until=900.0)
        assert cluster._quarantined_hosts["host-0"] == 900.0


# ------------------------------------------- diagnosis (monitor classification)


def make_monitor(cluster, cfg):
    return SLAMonitor(
        cluster=cluster,
        # The three window sources are unused by host_residuals/_diagnose.
        recorder=OpRecorder({}),
        pending_maintenance=lambda: 0,
        cache_hit_counts=lambda: (0, 0),
        latency_model=LatencyPercentileModel(),
        lag_model=PropagationLagModel(),
        slas={},
        contention_config=cfg,
    )


def read_report(satisfied):
    return SLAReport(op_type="read", target_percentile=99.0,
                     target_latency=0.1, observed_fraction_within=0.9,
                     observed_percentile_latency=0.05 if satisfied else 0.25,
                     request_count=500, satisfied=satisfied)


def observation(violated, mean_utilisation):
    features = WorkloadFeatures(
        request_rate=100.0, write_fraction=0.1, node_count=6.0,
        per_node_rate=100.0 / 6.0, mean_utilisation=mean_utilisation,
        max_utilisation=mean_utilisation + 0.05)
    return WindowObservation(
        time=60.0, duration=60.0, request_rate=100.0, write_fraction=0.1,
        features=features, sla_reports={"read": read_report(not violated)})


class TestContentionDiagnosis:
    def _contended_cluster(self):
        sim = Simulator(seed=2)
        cfg = ContentionConfig(tenancy=4)
        cluster = Cluster(simulator=sim, replication_factor=3, initial_groups=2,
                          host_map=HostMap(tenancy=cfg.tenancy))
        # Drive the estimator the way a real episode would: inflate the
        # base draws of every node colocated on host-0 and let them serve.
        for host in cluster.host_map.hosts():
            factor = 6.0 if host == "host-0" else 1.0
            for node_id in cluster.host_map.nodes_on(host):
                cluster.nodes[node_id].set_contention(factor)
        for node in cluster.nodes.values():
            for _ in range(300):
                node.service_time()
        return cluster, cfg

    def test_host_residuals_name_the_noisy_host(self):
        cluster, cfg = self._contended_cluster()
        residuals = make_monitor(cluster, cfg).host_residuals()
        assert set(residuals) == set(cluster.host_map.hosts())
        assert residuals["host-0"] > RESIDUAL_THRESHOLD
        for host, value in residuals.items():
            if host != "host-0":
                assert value < RESIDUAL_THRESHOLD

    def test_violated_quiet_window_is_classified_contention(self):
        cluster, cfg = self._contended_cluster()
        monitor = make_monitor(cluster, cfg)
        obs = observation(violated=True, mean_utilisation=0.2)
        monitor._diagnose(obs)
        assert obs.contention_suspected
        assert obs.noisy_host == "host-0"
        assert obs.noisy_host_residual > RESIDUAL_THRESHOLD
        # No tracer attached: the classification is tracer-independent and
        # simply leaves the evidence field empty.
        assert obs.span_kind_fractions is None

    def test_busy_window_is_capacity_not_contention(self):
        # Same residual signature, but the cluster is genuinely loaded:
        # queueing can explain the tail, so renting stays on the table.
        cluster, cfg = self._contended_cluster()
        obs = observation(violated=True,
                          mean_utilisation=QUIET_UTILISATION + 0.1)
        make_monitor(cluster, cfg)._diagnose(obs)
        assert not obs.contention_suspected
        assert obs.noisy_host == "host-0"  # still named, for the record

    def test_compliant_window_is_never_suspected(self):
        cluster, cfg = self._contended_cluster()
        obs = observation(violated=False, mean_utilisation=0.2)
        make_monitor(cluster, cfg)._diagnose(obs)
        assert not obs.contention_suspected

    def test_quiet_fleet_clears_the_threshold_nowhere(self):
        sim = Simulator(seed=6)
        cfg = ContentionConfig()
        cluster = Cluster(simulator=sim, replication_factor=3, initial_groups=2,
                          host_map=HostMap(tenancy=cfg.tenancy))
        for node in cluster.nodes.values():
            node.set_contention(1.0)
            for _ in range(100):
                node.service_time()
        obs = observation(violated=True, mean_utilisation=0.2)
        make_monitor(cluster, cfg)._diagnose(obs)
        assert not obs.contention_suspected
        assert obs.noisy_host == ""


# -------------------------------------- host_degradation fault (satellite)


class TestHostDegradationFault:
    def test_fault_record_mirrors_storm_bookkeeping(self):
        engine = Scads(seed=3, contention=True, autoscale=False,
                       initial_groups=2, replication_factor=3, cache=False)
        injector = FailureInjector(engine.cluster, contention=engine.contention)
        record = injector.host_degradation(at=10.0, duration=20.0,
                                           intensity=5.0, host_id="host-0")
        assert record.kind == "host-degradation"
        assert record.target == "host-0 x5"
        assert record.start == 10.0
        assert record.end == 30.0
        assert record in injector.faults()
        assert engine.contention._forced == {"host-0": [(10.0, 30.0, 5.0)]}  # noqa: SLF001

    def test_requires_an_attached_contention_process(self):
        sim = Simulator(seed=0)
        cluster = Cluster(simulator=sim, replication_factor=2, initial_groups=1)
        injector = FailureInjector(cluster)
        with pytest.raises(RuntimeError):
            injector.host_degradation(at=0.0, duration=10.0, intensity=4.0,
                                      host_id="host-0")
        injector = FailureInjector(cluster, contention=ContentionProcess(sim, HostMap()))
        injector.host_degradation(at=0.0, duration=10.0, intensity=4.0,
                                  host_id="host-0")  # now fine

    def test_episode_reaches_colocated_nodes_and_ends(self):
        engine = Scads(seed=11, contention={"tenancy": 4}, autoscale=False,
                       initial_groups=2, replication_factor=3, cache=False)
        injector = FailureInjector(engine.cluster, contention=engine.contention)
        injector.host_degradation(at=30.0, duration=180.0, intensity=8.0,
                                  host_id="host-0")
        engine.start()
        engine.sim.run_until(120.0)
        on_host = engine.host_map.nodes_on("host-0")
        assert on_host
        for node_id, node in engine.cluster.nodes.items():
            expected = 8.0 if node_id in on_host else 1.0
            assert node.contention() == expected
        engine.sim.run_until(300.0)  # past the episode + one tick
        assert all(node.contention() == 1.0
                   for node in engine.cluster.nodes.values())

    def test_fault_kind_is_wired_into_the_fabric(self):
        assert "host_degradation" in FAULT_KINDS
        spec = next(s for s in STANDARD_SUITE
                    if s.name == "noisy-neighbor-episode")
        (fault,) = spec.faults
        assert fault.kind == "host_degradation"
        assert fault.params["host_id"] == "host-0"


# ----------------------- attribution on contention-shaped traces (satellite)


def make_trace(trace_id, start, queue, service, off_legs=()):
    spans = [Span("network", 0.0005), Span("queue", queue),
             Span("service", service)]
    for leg in off_legs:
        # Losing legs of a max-composed parallel read: recorded for
        # context, demoted off-path so reconciliation survives fan-out.
        spans.append(Span("service", leg, detail="parallel-leg",
                          off_path=True))
    return TraceRecord(trace_id=trace_id, op="read", start=start,
                       latency=0.0005 + queue + service, success=True,
                       spans=spans)


class TestContentionShapedAttribution:
    def test_worst_decile_is_service_dominated_at_low_queue_share(self):
        # 63 healthy traces and 7 contended ones in a single 60s window:
        # the contended tail is pure service inflation (a noisy host), not
        # queueing, and the worst-decile split must say so.
        traces = [make_trace(i, start=i * 0.5, queue=0.0008, service=0.002)
                  for i in range(63)]
        traces += [make_trace(100 + i, start=30.0 + i, queue=0.0012,
                              service=0.060) for i in range(7)]
        (window,) = attribute_windows(traces, window=60.0)
        assert window.trace_count == 70
        assert window.worst_count == 7
        fractions = window.kind_fractions()
        assert fractions["service"] > 0.9
        assert fractions["queue"] < 0.05
        assert window.percentile_latency > 0.05  # the tail is the episode

    def test_max_composed_parallel_legs_stay_off_path(self):
        # Each contended trace carries huge losing-leg spans; if attribution
        # counted off-path spans the service seconds would triple.
        slow = [make_trace(i, start=float(i), queue=0.001, service=0.050,
                           off_legs=(0.048, 0.049)) for i in range(10)]
        (window,) = attribute_windows(slow, window=60.0)
        # Worst decile of 10 traces is 1 trace; its on-path service is
        # 0.050s — were the losing legs counted it would read 0.147s.
        assert window.worst_count == 1
        assert window.kind_seconds["service"] == pytest.approx(0.050)
        assert all(t.reconciles() for t in slow)

    def test_capacity_shaped_tail_reads_queue_dominated(self):
        # The contrast case: same latencies, but the milliseconds sit in
        # queue spans — an under-provisioned fleet, not a noisy host.
        traces = [make_trace(i, start=i * 0.5, queue=0.002, service=0.0008)
                  for i in range(60)]
        traces += [make_trace(100 + i, start=30.0 + i, queue=0.060,
                              service=0.0012) for i in range(6)]
        (window,) = attribute_windows(traces, window=60.0)
        fractions = window.kind_fractions()
        assert fractions["queue"] > 0.9
        assert fractions["service"] < 0.05


# ------------------------------------ controller scale-down hysteresis


class TestScaleDownHysteresis:
    """The planner's target is self-referential (features are measured on
    the current fleet), so a release can push the next target up by the
    hybrid clamp band and re-rent what it just freed — each flap billing a
    whole instance-hour per node.  Release only when the target fits the
    shrunk fleet with the hysteresis margin to spare."""

    @staticmethod
    def _controller(groups=4):
        return Scads(seed=3, autoscale=True, initial_groups=groups,
                     cache=False, repartition=False).controller

    @staticmethod
    def _plan(target_nodes):
        return SimpleNamespace(target_nodes=target_nodes, forecast_rate=10.0,
                               reason="unit", repartition_candidate=False)

    @staticmethod
    def _observation():
        return SimpleNamespace(any_sla_violated=lambda: False)

    def test_marginal_target_does_not_release(self):
        controller = self._controller(groups=4)
        shrunk = 3 * controller._cluster.replication_factor
        # Smallest target whose hysteresis-inflated demand exceeds the
        # shrunk fleet — pre-hysteresis logic would have released here.
        marginal = math.floor(shrunk / (1.0 + controller.scale_down_hysteresis)) + 1
        assert marginal <= shrunk
        controller._low_demand_windows = controller.scale_down_patience
        action = controller._act(self._plan(marginal), self._observation())
        assert action.kind == "hold"
        assert controller._cluster.group_count() == 4

    def test_comfortable_target_still_releases(self):
        controller = self._controller(groups=4)
        shrunk = 3 * controller._cluster.replication_factor
        comfortable = math.floor(shrunk / (1.0 + controller.scale_down_hysteresis))
        controller._low_demand_windows = controller.scale_down_patience - 1
        action = controller._act(self._plan(comfortable), self._observation())
        assert action.kind == "scale_down"
        assert controller._cluster.group_count() == 3


# --------------------------------------------- invariance and determinism


class TestContentionOffInvariance:
    def test_no_fault_plan_means_no_contention(self):
        # Contention is scripted only: with no fault plan the layer never
        # opens a random stream and every node serves at factor exactly 1.0.
        engine = Scads(seed=7, contention=True, autoscale=False,
                       initial_groups=2, replication_factor=3, cache=False)
        engine.start()
        engine.sim.run_until(900.0)
        assert engine.host_map.hosts()
        assert all(node.contention() == 1.0
                   for node in engine.cluster.nodes.values())
        assert contention_streams(engine.sim) == []

    def test_quiet_contention_run_matches_contention_off(self):
        # With the layer on but no episodes every pushed factor is 1.0 — an
        # IEEE-exact no-op — and the layer consumes no randomness, so the
        # served latencies are byte-identical to a contention-off run of the
        # same seed.
        from repro.apps.social_network import SocialNetworkApp

        reports = []
        for contention in (None, {"tenancy": 4}):
            engine = Scads(seed=21, autoscale=False, initial_groups=2,
                           contention=contention)
            engine.start()
            app = SocialNetworkApp(engine, friend_cap=100, page_size=10)
            for i in range(12):
                app.create_user(f"u{i}", f"User {i}", f"0{i % 9 + 1}-15")
            for i in range(11):
                app.add_friendship(f"u{i}", f"u{i + 1}")
            engine.settle()
            for i in range(12):
                app.friends_page(f"u{i}")
                app.birthdays_page(f"u{i}")
            reports.append(engine.sla_report("read"))
        off, quiet = reports
        assert off.request_count == quiet.request_count
        assert off.observed_percentile_latency == quiet.observed_percentile_latency
        assert off.observed_fraction_within == quiet.observed_fraction_within


class TestNoisyNeighborSweepDeterminism:
    def test_scenario_identical_workers_1_vs_4(self):
        """The episode rides the per-host contention streams and a forced
        (RNG-free) fault window, so process-pool scheduling cannot perturb
        the scenario: workers=1 and workers=4 sweeps are byte-identical."""
        spec = smoke_variant(next(
            s for s in STANDARD_SUITE if s.name == "noisy-neighbor-episode"))
        grid = SweepGrid(scenario=spec, replicates=2, base_seed=13)
        serial = run_sweep(grid.expand(), workers=1)
        pooled = run_sweep(grid.expand(), workers=4)
        assert len(serial.records) == len(pooled.records) == 2
        for a, b in zip(serial.records, pooled.records):
            assert a.summary.operations == b.summary.operations
            assert a.summary.operation_counts == b.summary.operation_counts
            assert a.summary.read_latency.snapshot() == b.summary.read_latency.snapshot()
            assert a.summary.cost.dollars == b.summary.cost.dollars
            assert a.summary.lost_acked_writes == b.summary.lost_acked_writes == 0
