"""Tests for the provisioning feedback loop: monitor, planner, controller."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.consistency.spec import ConsistencySpec, PerformanceSLA
from repro.core.engine import Scads
from repro.core.provisioning.planner import CapacityPlanner
from repro.experiments.harness import run_closed_loop
from repro.ml.performance_model import LatencyPercentileModel, PropagationLagModel
from repro.parallel.spec import ScenarioSpec, TraceSpec
from repro.storage.failure import FailureInjector

pytestmark = pytest.mark.tier1


def make_planner(**kwargs):
    latency_model = LatencyPercentileModel(node_capacity_ops=1000.0)
    lag_model = PropagationLagModel()
    defaults = dict(node_capacity_ops=1000.0, min_nodes=2, max_nodes=500)
    defaults.update(kwargs)
    return CapacityPlanner(latency_model, lag_model, **defaults)


SLAS = {"read": PerformanceSLA(percentile=99.0, latency=0.1)}
SPEC = ConsistencySpec()


class TestCapacityPlanner:
    def test_target_grows_with_forecast_rate(self):
        planner = make_planner()
        small = planner.plan(1_000.0, 0.1, SLAS, SPEC)
        large = planner.plan(20_000.0, 0.1, SLAS, SPEC)
        assert large.target_nodes > small.target_nodes

    def test_minimum_nodes_respected_at_zero_load(self):
        planner = make_planner(min_nodes=4)
        plan = planner.plan(0.0, 0.0, SLAS, SPEC)
        assert plan.target_nodes == 4

    def test_maximum_nodes_cap(self):
        planner = make_planner(max_nodes=10)
        plan = planner.plan(1_000_000.0, 0.1, SLAS, SPEC)
        assert plan.target_nodes == 10

    def test_utilisation_ceiling_provides_headroom(self):
        planner = make_planner()
        planner.target_utilisation = 0.5
        plan = planner.plan(10_000.0, 0.1, SLAS, SPEC)
        # 10k ops at 1000 ops/node and 50% ceiling needs at least 20 nodes.
        assert plan.target_nodes >= 20

    def test_staleness_pressure_adds_capacity(self):
        planner = make_planner()
        calm = planner.plan(5_000.0, 0.3, SLAS, SPEC, pending_maintenance=0,
                            behind_schedule=False)
        pressured = planner.plan(5_000.0, 0.3, SLAS, SPEC, pending_maintenance=0,
                                 behind_schedule=True)
        assert pressured.target_nodes > calm.target_nodes
        assert pressured.staleness_pressure

    def test_stricter_sla_needs_no_fewer_nodes(self):
        planner = make_planner()
        loose = planner.plan(8_000.0, 0.1, {"read": PerformanceSLA(latency=0.5)}, SPEC)
        strict = planner.plan(8_000.0, 0.1, {"read": PerformanceSLA(latency=0.05)}, SPEC)
        assert strict.target_nodes >= loose.target_nodes

    def test_plan_describe_mentions_reason(self):
        plan = make_planner().plan(1_000.0, 0.1, SLAS, SPEC)
        assert "target=" in plan.describe()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_planner(min_nodes=0)
        planner = make_planner()
        with pytest.raises(ValueError):
            planner.plan(-1.0, 0.1, SLAS, SPEC)


class TestClosedLoopAutoscaling:
    """Integration tests of the controller through the full engine.

    These run the same harness the benchmarks use, at a small scale (low
    per-node capacity, tens of ops/sec) so the whole class stays fast.
    """

    def _run(self, trace, duration):
        return run_closed_loop(ScenarioSpec(name="autoscaling", trace=trace,
                                            duration=duration, n_users=60,
                                            friend_cap=10), 11)

    def test_scale_up_under_growing_load(self):
        growing = TraceSpec("viral", {"start_rate": 20.0, "peak_multiplier": 8.0,
                                      "ramp_start": 60.0, "ramp_duration": 500.0})
        result, _, _ = self._run(growing, duration=700.0)
        assert result.scale_ups >= 1
        assert result.peak_nodes > 3

    def test_scale_down_after_load_drops(self):
        trace = TraceSpec("spike", {"base_rate": 10.0, "spike_multiplier": 15.0,
                                    "spike_start": 0.0, "rise_duration": 1.0,
                                    "hold_duration": 399.0, "decay_duration": 1.0})
        result, _, _ = self._run(trace, duration=1800.0)
        assert result.scale_downs >= 1
        assert result.final_nodes < result.peak_nodes

    def test_controller_records_time_series(self):
        _, engine, _ = self._run(TraceSpec("constant", {"rate": 30.0}), duration=300.0)
        series = engine.controller.series()
        assert "observed_rate" in series
        assert "nodes" in series
        assert len(engine.controller.actions()) >= 5

    def test_billing_tracks_rented_instances(self):
        _, engine, _ = self._run(TraceSpec("constant", {"rate": 30.0}), duration=300.0)
        assert engine.cost_so_far() > 0.0
        assert engine.pool.active_count() == engine.cluster.node_count()


class TestScaleDownGuard:
    """Never shrink the fleet while the current window violates its SLA.

    A saturated window corrupts the service-time features the planner sizes
    from, so a low target during a violation is a model artifact — acting on
    it removes capacity exactly when it is most needed (seen live as a 4->3
    scale-down at the foot of a ramp the fleet was already missing).
    """

    def test_holds_and_resets_patience_while_violated(self):
        controller = _engine(4).controller
        controller._low_demand_windows = controller.scale_down_patience
        action = controller._act(_plan(2), _observation(violated=True))
        assert action.kind == "hold"
        assert controller._cluster.group_count() == 4
        # The violated window does not count toward scale-down patience.
        assert controller._low_demand_windows == 0

    def test_scales_down_once_compliant_again(self):
        controller = _engine(4).controller
        controller._low_demand_windows = controller.scale_down_patience - 1
        action = controller._act(_plan(2), _observation(violated=False))
        assert action.kind == "scale_down"
        assert controller._cluster.group_count() == 3


class TestTopologyChangesDuringOutages:
    """The control plane keeps running when a fleet change meets an outage."""

    def _loaded(self, groups):
        engine = _engine(groups)
        keys = [(f"user{i:03d}",) for i in range(120)]
        for key in keys:
            assert engine.router.write("ns", key, {"v": key[0]}).success
        engine.run_for(5.0)
        return engine, keys

    def test_group_boot_completes_while_a_primary_is_down(self):
        engine, keys = self._loaded(2)
        cluster = engine.cluster
        boot = engine.pool.instance_type.boot_delay
        down = cluster.groups["group-1"].primary
        FailureInjector(cluster).crash_node(down, at=engine.sim.now + 1.0, duration=boot + 60.0)
        assert engine.controller._launch_group()
        # At the parent the ``boot`` event's rebalance scanned the crashed
        # primary and the NodeDownError ended the run here.
        engine.run_for(boot + 30.0)
        assert not cluster.nodes[down].alive and cluster.group_count() == 3
        engine.run_for(300.0)  # outage over: the injector recovers and reconciles
        assert cluster.nodes[down].alive
        for key in keys:
            result = engine.router.read("ns", key, from_primary=True)
            assert result.success and result.value is not None, key
        assert cluster.total_keys() == len(keys)

    def test_shrink_holds_while_the_group_to_release_is_entirely_down(self):
        engine, keys = self._loaded(4)
        controller, cluster = engine.controller, engine.cluster
        for node_id in cluster.groups["group-3"].node_ids:
            cluster.nodes[node_id].crash()
        controller._low_demand_windows = controller.scale_down_patience - 1
        action = controller._act(_plan(2), _observation(violated=False))
        assert action.kind == "hold" and cluster.group_count() == 4
        # The streak is kept, so the release happens once a member is back.
        cluster.nodes[cluster.groups["group-3"].primary].recover()
        action = controller._act(_plan(2), _observation(violated=False))
        assert action.kind == "scale_down" and cluster.group_count() == 3
        for key in keys:
            assert engine.router.read("ns", key, from_primary=True).value is not None, key


# ------------------------------------------- the controller's decision table


def _plan(target_nodes, candidate=False):
    return SimpleNamespace(target_nodes=target_nodes, forecast_rate=10.0,
                           reason="unit", repartition_candidate=candidate)


def _observation(violated=False, **measured):
    return SimpleNamespace(any_sla_violated=lambda: violated, **measured)


def _engine(groups, **knobs):
    """A small fleetless engine whose control loop never starts."""
    defaults = dict(seed=3, autoscale=True, initial_groups=groups,
                    replication_factor=3, cache=False, repartition=False)
    return Scads(**{**defaults, **knobs})


def _fleet_engine(surge=0, **knobs):
    """One rf-3 group with a surge fleet and ``surge`` attached replicas."""
    engine = _engine(1, spot=True, **knobs)
    if surge:
        assert engine.spot_fleet.add_surge(surge) == surge
        engine.run_for(200.0)  # boot and attach
        assert engine.spot_fleet.pending_surge() == 0
    return engine


def _hotspot_engine(in_cooldown=False, moves=True):
    """Two range-partitioned groups whose rebalancer is scripted."""
    from repro.storage.rebalancer import RebalanceAction

    engine = _engine(2, partitioner_kind="range", repartition=True)
    engine.rebalancer.find_imbalance = lambda: ("group-0", "group-1")
    engine.rebalancer.in_cooldown = lambda: in_cooldown
    engine.rebalancer.rebalance_once = lambda: RebalanceAction(
        time=0.0, kind="split_migrate", detail="stub", keys_moved=3) if moves else None
    return engine


_NOISY = dict(contention_suspected=True, noisy_host="host-0",
              noisy_host_residual=2.0, span_kind_fractions=None,
              features=SimpleNamespace(mean_utilisation=0.2))
_READS = dict(write_fraction=0.1)

# One row per action shape.  Streaks are (consecutive repartitions, low-demand
# windows) before and after the step.
# id: (engine, plan, observation, streaks before,
#      kind, groups before, groups after, reason, streaks after)
DECISION_TABLE = {
    "evacuate": (
        lambda: _engine(2, contention={"tenancy": 4}), _plan(6),
        _observation(True, **_NOISY), (1, 3),
        "evacuate", 2, 2,
        "contention, not capacity — noisy host host-0: residual 2.00 at mean "
        "utilisation 0.20; migrated 2 replicas off host-0 instead of renting", (0, 0)),
    "repartition": (
        _hotspot_engine, _plan(6, candidate=True), _observation(True), (1, 3),
        "repartition", 2, 2,
        "unit; split_migrate moved 3 keys instead of renting a group", (2, 0)),
    "hold-migration-settling": (
        lambda: _hotspot_engine(in_cooldown=True), _plan(6, candidate=True),
        _observation(True), (1, 3),
        "hold", 2, 2, "unit; waiting for migration to settle", (1, 3)),
    "scale_up-hotspot-unresolved": (
        lambda: _hotspot_engine(moves=False), _plan(6, candidate=True),
        _observation(True), (1, 3),
        "scale_up", 2, 3, "unit; hotspot unresolved by repartitioning", (0, 0)),
    "scale_up-repartition-streak-spent": (
        _hotspot_engine, _plan(6, candidate=True), _observation(True), (2, 3),
        "scale_up", 2, 3, "unit; hotspot unresolved by repartitioning", (0, 0)),
    "scale_up": (
        lambda: _engine(1), _plan(6), _observation(), (1, 3),
        "scale_up", 1, 2, "unit", (0, 0)),
    "scale_up-with-surge": (
        _fleet_engine, _plan(9), _observation(**_READS), (1, 3),
        "scale_up", 1, 3,
        "unit; +2 surge read replicas (spot-first) alongside group growth", (0, 0)),
    "surge_up": (
        _fleet_engine, _plan(5), _observation(**_READS), (1, 3),
        "surge_up", 1, 1, "unit; +2 surge read replicas (spot-first)", (0, 0)),
    "surge_up-pool-capped-for-groups": (
        lambda: _fleet_engine(max_instances=5), _plan(9), _observation(**_READS), (1, 3),
        "surge_up", 1, 1,
        "unit; +2 surge read replicas (spot-first); pool capped for groups", (0, 0)),
    "hold-surge-covers-target": (
        lambda: _fleet_engine(surge=1), _plan(4), _observation(**_READS), (1, 3),
        "hold", 1, 1, "unit; surge capacity covers target", (0, 0)),
    # Regression: a write-heavy window skips the surge step; with supply
    # already at the target this used to be logged as surge_up "+0 surge
    # read replicas", bumping surge_up_count() with nothing bought.
    "hold-surge-covers-target-write-heavy": (
        lambda: _fleet_engine(surge=1), _plan(4), _observation(write_fraction=0.6), (1, 3),
        "hold", 1, 1, "unit; surge capacity covers target", (0, 0)),
    "hold-pool-at-capacity": (
        lambda: _engine(1, max_instances=3), _plan(6), _observation(), (1, 3),
        "hold", 1, 1, "unit; pool at capacity", (0, 0)),
    "surge_down": (
        lambda: _fleet_engine(surge=2), _plan(3), _observation(), (1, 4),
        "surge_down", 1, 1, "unit; released 2 surge replicas after 5 low windows", (0, 0)),
    # Regression: the reason used to read the streak after its reset and
    # always said "(0 windows)".
    "scale_down": (
        lambda: _engine(4), _plan(2), _observation(), (1, 4),
        "scale_down", 4, 3, "unit; sustained low demand (5 windows)", (0, 0)),
    "hold-low-window-counted": (
        lambda: _engine(4), _plan(2), _observation(), (1, 3),
        "hold", 4, 4, "unit", (0, 4)),
    "hold": (
        lambda: _engine(2), _plan(6), _observation(), (1, 3),
        "hold", 2, 2, "unit", (0, 0)),
}


@pytest.mark.parametrize("row", DECISION_TABLE.values(), ids=DECISION_TABLE.keys())
def test_decision_table(row):
    build, plan, observation, before, kind, groups_before, groups_after, reason, after = row
    controller = build().controller
    assert controller.scale_down_patience == 5
    controller._consecutive_repartitions, controller._low_demand_windows = before
    action = controller._act(plan, observation)
    assert (action.kind, action.groups_before, action.groups_after, action.reason) \
        == (kind, groups_before, groups_after, reason)
    assert (controller._consecutive_repartitions,
            controller._low_demand_windows) == after


def test_without_a_fleet_every_node_belongs_to_a_group():
    # The premise of sizing growth in nodes on one path: with no surge fleet,
    # nodes == groups x replication factor whatever the cluster has been through.
    engine = _engine(2, contention={"tenancy": 4})
    controller, cluster = engine.controller, engine.cluster

    def holds():
        return cluster.node_count() == cluster.group_count() * cluster.replication_factor

    quiet = _observation(contention_suspected=False)
    assert controller._act(_plan(12), quiet).kind == "scale_up"
    engine.run_for(200.0)  # boot and attach
    assert cluster.group_count() == 4 and holds()
    controller._low_demand_windows = controller.scale_down_patience
    assert controller._act(_plan(2), quiet).kind == "scale_down"
    assert cluster.group_count() == 3 and holds()
    assert cluster.evacuate_host("host-0") and holds()
    node = next(iter(cluster.nodes.values()))
    node.crash()
    assert holds()
    node.recover()
    assert holds()


@pytest.mark.property
@given(target=st.integers(0, 10**6), groups=st.integers(1, 10**5),
       replication=st.integers(1, 7))
def test_group_deficit_in_nodes_is_the_group_count_deficit(target, groups, replication):
    # ceil((T - (g + p) rf) / rf) == ceil(T / rf) - (g + p): why a fleetless
    # controller needs no group-count formula of its own.
    assert math.ceil((target - groups * replication) / replication) \
        == math.ceil(target / replication) - groups
