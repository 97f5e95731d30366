"""Spot market, market-rate billing, and the surge fleet's graceful drain.

Covers the interruptible-capacity layer end to end at unit scale: the
deterministic price/drought trace, purchase options and per-minute market
billing on the pool, the SpotFleetManager's notice -> drain -> hibernate ->
resume state machine (including the hypothesis property that a drain always
completes or cleanly aborts strictly before its revocation deadline), and
the sweep fabric's byte-identity over the interruption-storm scenario.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instances import ON_DEMAND, SPOT, InstanceState, InstanceType
from repro.cloud.market import NOTICE_SECONDS, SPOT_BILLING_INCREMENT, SpotMarket
from repro.cloud.pool import InstancePool, SpotUnavailableError
from repro.core.provisioning.spotfleet import DRAIN_DEADLINE_MARGIN, SpotFleetManager
from repro.obs.timeline import DecisionTimeline
from repro.parallel.executor import run_sweep
from repro.parallel.scenarios import STANDARD_SUITE, smoke_variant
from repro.parallel.spec import SweepGrid
from repro.sim.simulator import Simulator
from repro.storage.cluster import Cluster

pytestmark = pytest.mark.tier1

FAST_TYPE = InstanceType("t.fast", hourly_cost=0.10, boot_delay=5.0,
                         capacity_ops_per_sec=100)


def make_market(seed=0, instance_type=FAST_TYPE):
    sim = Simulator(seed=seed)
    market = SpotMarket(sim)
    market.add_instance_type(instance_type)
    return sim, market


def make_pool(sim):
    pool = InstancePool(sim, instance_type=FAST_TYPE)
    pool.attach_market(SpotMarket(sim))
    return pool


def has_open_lease(billing, instance_id):
    return any(lease.instance_id == instance_id and lease.end is None
               for lease in billing.leases())


def make_fleet(seed=0, groups=1, replication=2):
    sim = Simulator(seed=seed)
    cluster = Cluster(simulator=sim, replication_factor=replication,
                      initial_groups=groups)
    pool = make_pool(sim)
    fleet = SpotFleetManager(sim, cluster, pool, DecisionTimeline())
    return sim, cluster, pool, fleet


# ------------------------------------------------------------------- market


class TestSpotMarket:
    def test_price_trace_is_deterministic_per_seed(self):
        _, a = make_market(seed=7)
        _, b = make_market(seed=7)
        _, c = make_market(seed=8)
        trace_a = [a.price(FAST_TYPE.name, at=t * 60.0) for t in range(200)]
        trace_b = [b.price(FAST_TYPE.name, at=t * 60.0) for t in range(200)]
        trace_c = [c.price(FAST_TYPE.name, at=t * 60.0) for t in range(200)]
        assert trace_a == trace_b
        assert trace_a != trace_c

    def test_trace_independent_of_query_order(self):
        # Lazily extending the trace draws fixed variates per step, so the
        # price at step k never depends on which steps were asked first.
        _, a = make_market(seed=3)
        _, b = make_market(seed=3)
        far_first = a.price(FAST_TYPE.name, at=9000.0)
        for t in range(0, 9060, 60):
            b.price(FAST_TYPE.name, at=float(t))
        assert far_first == b.price(FAST_TYPE.name, at=9000.0)

    def test_spot_trades_at_a_discount_on_average(self):
        _, market = make_market(seed=11)
        prices = [market.price(FAST_TYPE.name, at=t * 60.0) for t in range(500)]
        mean = sum(prices) / len(prices)
        assert mean < FAST_TYPE.hourly_cost

    def test_storm_forces_unavailability(self):
        # seed 1: no random drought in the first few steps, so any
        # unavailability below is the storm's doing.
        calm_sim, calm = make_market(seed=1)
        calm_sim.run_until(120.0)
        assert not calm.in_drought(FAST_TYPE.name)  # calm trace
        sim, market = make_market(seed=1)
        market.interruption_storm(at=100.0, duration=50.0)
        sim.run_until(120.0)
        assert market.in_drought(FAST_TYPE.name)
        assert not market.available(FAST_TYPE.name)
        sim.run_until(160.0)
        assert not market.in_drought(FAST_TYPE.name)  # storm passed

    def test_storm_notifies_registered_instances(self):
        sim, market = make_market()
        seen = []
        market.register("i-0", FAST_TYPE.name,
                        lambda iid, deadline, reason: seen.append((iid, deadline, reason)))
        market.interruption_storm(at=30.0, duration=60.0)
        sim.run_until(31.0)
        assert seen == [("i-0", 30.0 + NOTICE_SECONDS, "storm")]

    def test_deadline_revokes_undrained_instance(self):
        sim, market = make_market()
        revoked = []
        market.set_revoke_hook(revoked.append)
        market.register("i-0", FAST_TYPE.name, lambda *a: None)
        market.interruption_storm(at=10.0, duration=30.0)
        sim.run_until(10.0 + NOTICE_SECONDS + 1.0)
        assert revoked == ["i-0"]

    def test_deregistering_before_deadline_avoids_revocation(self):
        sim, market = make_market()
        revoked = []
        market.set_revoke_hook(revoked.append)
        market.register("i-0", FAST_TYPE.name, lambda *a: None)
        market.interruption_storm(at=10.0, duration=30.0)
        sim.run_until(20.0)
        market.unregister("i-0")  # drained in time
        sim.run_until(10.0 + NOTICE_SECONDS + 1.0)
        assert revoked == []


# ------------------------------------------------------------ pool + billing


class TestPoolPurchaseOptions:
    def test_spot_launch_requires_market(self):
        pool = InstancePool(Simulator(seed=0), instance_type=FAST_TYPE)
        with pytest.raises(SpotUnavailableError):
            pool.launch(purchase_option=SPOT)

    def test_spot_refused_during_storm_falls_to_caller(self):
        sim = Simulator(seed=0)
        pool = make_pool(sim)
        pool.market.interruption_storm(at=0.0, duration=100.0)
        sim.run_until(10.0)
        assert not pool.spot_available()
        with pytest.raises(SpotUnavailableError):
            pool.launch(purchase_option=SPOT)
        # On-demand is always sellable.
        assert pool.launch(purchase_option=ON_DEMAND)

    def test_spot_lease_bills_per_started_minute_at_market_rate(self):
        sim = Simulator(seed=0)
        pool = make_pool(sim)
        market = pool.market
        instance = pool.launch(purchase_option=SPOT)[0]
        sim.run_until(150.0)  # 3 started minutes
        pool.terminate(instance.instance_id)
        lease = pool.billing.leases()[0]
        assert lease.machine_hours(sim.now) == pytest.approx(
            3 * SPOT_BILLING_INCREMENT / 3600.0)
        expected = sum(
            market.price(FAST_TYPE.name, at=t) * SPOT_BILLING_INCREMENT / 3600.0
            for t in (0.0, 60.0, 120.0))
        assert lease.cost(sim.now) == pytest.approx(expected)
        split = pool.cost_by_purchase_option()
        assert split[SPOT] == pytest.approx(expected)
        assert ON_DEMAND not in split or split[ON_DEMAND] == 0.0

    def test_hibernate_resume_is_two_leases(self):
        sim = Simulator(seed=0)
        pool = make_pool(sim)
        instance = pool.launch(purchase_option=SPOT)[0]
        sim.run_until(70.0)
        pool.hibernate(instance.instance_id)
        assert instance.state is InstanceState.HIBERNATED
        assert not has_open_lease(pool.billing, instance.instance_id)
        # Resume only goes through when the market will sell spot again.
        sim.run_until(200.0)
        while not pool.spot_available():
            sim.run_until(sim.now + 60.0)
        resumed_at = sim.now
        pool.resume(instance.instance_id)
        assert has_open_lease(pool.billing, instance.instance_id)
        leases = [lease for lease in pool.billing.leases()
                  if lease.instance_id == instance.instance_id]
        assert len(leases) == 2
        # The hibernated gap is never billed.
        assert leases[0].end == 70.0
        assert leases[1].start == resumed_at


# ------------------------------------------------------------------- fleet


class TestSpotFleet:
    def test_surge_attaches_spot_first(self):
        sim, cluster, pool, fleet = make_fleet()
        before = cluster.node_count()
        assert fleet.add_surge(2) == 2
        sim.run_until(FAST_TYPE.boot_delay + 1.0)
        assert cluster.node_count() == before + 2
        assert fleet.pending_surge() == 0
        assert all(inst.purchase_option == SPOT
                   for inst in pool.instances(InstanceState.RUNNING))

    def test_per_group_cap_bounds_surge(self):
        sim, cluster, pool, fleet = make_fleet(groups=2)
        fleet.max_surge_per_group = 1
        assert fleet.add_surge(5) == 2  # one per group, the rest refused
        assert fleet.add_surge(1) == 0

    def test_storm_drains_to_hibernation_before_deadline(self):
        sim, cluster, pool, fleet = make_fleet()
        fleet.add_surge(1)
        sim.run_until(FAST_TYPE.boot_delay + 1.0)
        storm_at = sim.now + 10.0
        pool.market.interruption_storm(at=storm_at, duration=60.0)
        # Resolved inside the drain margin, strictly before the deadline.
        sim.run_until(storm_at + NOTICE_SECONDS - DRAIN_DEADLINE_MARGIN / 2)
        (record,) = fleet.records()
        assert record.outcome == "hibernated" and sim.now < record.deadline
        assert len(fleet._hibernated) == 1  # noqa: SLF001
        # Hibernated, not revoked: a revoked instance is terminated.
        assert len(pool.instances(InstanceState.HIBERNATED)) == 1

    def test_drained_node_leaves_group_and_resume_rejoins(self):
        sim, cluster, pool, fleet = make_fleet()
        fleet.add_surge(1)
        sim.run_until(FAST_TYPE.boot_delay + 1.0)
        group = next(iter(cluster.groups.values()))
        members_with_surge = len(group.node_ids)
        pool.market.interruption_storm(at=sim.now + 5.0, duration=120.0)
        sim.run_until(sim.now + NOTICE_SECONDS + 10.0)
        assert len(group.node_ids) == members_with_surge - 1
        # Market recovered and capacity is needed again: resume, not re-copy.
        sim.run_until(sim.now + 120.0)
        assert pool.spot_available()
        fleet.tick(node_deficit=1)
        sim.run_until(sim.now + 30.0)
        assert not fleet._hibernated  # noqa: SLF001
        assert len(group.node_ids) == members_with_surge

    def test_interrupted_while_booting_aborts_cleanly(self):
        sim, cluster, pool, fleet = make_fleet()
        pool.market.interruption_storm(at=2.0, duration=30.0)
        fleet.add_surge(1)  # spot still available at t=0
        sim.run_until(3.0)  # storm lands mid-boot
        (record,) = fleet.records()
        assert record.outcome == "aborted" and sim.now < record.deadline
        assert fleet.surge_count() == 0

    def test_fallback_to_on_demand_when_spot_refused(self):
        sim, cluster, pool, fleet = make_fleet()
        pool.market.interruption_storm(at=0.0, duration=100.0)
        sim.run_until(10.0)
        assert fleet.add_surge(1) == 1
        sim.run_until(FAST_TYPE.boot_delay + 11.0)
        assert all(inst.purchase_option == ON_DEMAND
                   for inst in pool.instances(InstanceState.RUNNING))

    @pytest.mark.property
    @given(drain_seconds=st.floats(min_value=1.0, max_value=400.0),
           notice_offset=st.floats(min_value=0.0, max_value=200.0))
    @settings(max_examples=25, deadline=None)
    def test_drain_completes_or_aborts_strictly_before_deadline(
            self, drain_seconds, notice_offset):
        """The drain state machine's safety property: whatever the drain
        window and whenever the notice lands (mid-boot included), every
        interruption resolves -- hibernated, aborted, or terminated --
        strictly before the market's revocation deadline, so the market
        never force-revokes an attached replica."""
        sim, cluster, pool, fleet = make_fleet()
        fleet.drain_seconds = drain_seconds
        fleet.add_surge(1)
        revoked = []
        revoke = pool.market._on_revoke  # noqa: SLF001
        pool.market.set_revoke_hook(lambda iid: (revoked.append(iid), revoke(iid)))
        pool.market.interruption_storm(at=notice_offset, duration=30.0)
        sim.run_until(notice_offset)  # the notice has landed (a drought may come first)
        (record,) = fleet.records()
        # Inside the drain margin the interruption is already resolved.
        sim.run_until(record.deadline - DRAIN_DEADLINE_MARGIN / 2)
        assert record.outcome in ("hibernated", "aborted", "terminated")
        sim.run_until(notice_offset + NOTICE_SECONDS + drain_seconds + 10.0)
        assert fleet.records() == [record]
        assert revoked == []


# ------------------------------------------------------- sweep determinism


class TestStormSweepDeterminism:
    def test_interruption_storm_identical_workers_1_vs_4(self):
        """The storm scenario stays byte-identical across worker counts:
        the market draws from its own RNG streams, so process-pool
        scheduling cannot perturb it."""
        spec = smoke_variant(next(
            s for s in STANDARD_SUITE if s.name == "spot-interruption-storm"))
        grid = SweepGrid(scenario=spec, replicates=2, base_seed=9)
        serial = run_sweep(grid.expand(), workers=1)
        pooled = run_sweep(grid.expand(), workers=4)
        assert len(serial.records) == len(pooled.records) == 2
        for a, b in zip(serial.records, pooled.records):
            assert a.summary.operations == b.summary.operations
            assert a.summary.operation_counts == b.summary.operation_counts
            assert a.summary.read_latency.snapshot() == b.summary.read_latency.snapshot()
            assert a.summary.cost.dollars == b.summary.cost.dollars
            assert a.summary.cost_by_purchase_option == b.summary.cost_by_purchase_option
            assert a.summary.lost_acked_writes == b.summary.lost_acked_writes == 0
