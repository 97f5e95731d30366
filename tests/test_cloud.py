"""Unit tests for the utility-computing substrate (repro.cloud)."""

from __future__ import annotations

import pytest

from repro.cloud.billing import BillingMeter
from repro.cloud.instances import INSTANCE_TYPES, Instance, InstanceState, InstanceType
from repro.cloud.pool import InstancePool
from repro.sim.simulator import Simulator

pytestmark = pytest.mark.tier1


class TestInstanceType:
    def test_catalog_contains_small_instances(self):
        assert "m1.small" in INSTANCE_TYPES
        small = INSTANCE_TYPES["m1.small"]
        assert small.hourly_cost == pytest.approx(0.10)
        assert small.boot_delay > 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            InstanceType("bad", hourly_cost=-1.0, boot_delay=10.0, capacity_ops_per_sec=100)
        with pytest.raises(ValueError):
            InstanceType("bad", hourly_cost=0.1, boot_delay=-1.0, capacity_ops_per_sec=100)
        with pytest.raises(ValueError):
            InstanceType("bad", hourly_cost=0.1, boot_delay=1.0, capacity_ops_per_sec=0)


class TestInstanceLifecycle:
    def test_boot_then_terminate(self):
        instance = Instance("i-1", INSTANCE_TYPES["m1.small"])
        assert instance.state is InstanceState.BOOTING
        assert not instance.is_usable()
        instance.mark_running()
        assert instance.is_usable()
        instance.terminate()
        assert instance.state is InstanceState.TERMINATED

    def test_lease_hours_round_up_to_billing_increment(self):
        # The lease is the single source of billing truth (instances carry
        # no cost logic): on-demand bills per started hour.
        meter = BillingMeter()
        lease = meter.open_lease("i-1", INSTANCE_TYPES["m1.small"], now=0.0)
        assert lease.machine_hours(now=1.0) == 1.0
        assert lease.machine_hours(now=3599.0) == 1.0
        assert lease.machine_hours(now=3601.0) == 2.0

    def test_sub_hour_increment_bills_per_started_minute(self):
        per_minute = InstanceType(
            "m1.small.minutely", hourly_cost=0.10, boot_delay=120.0,
            capacity_ops_per_sec=1000, billing_increment=60.0)
        meter = BillingMeter()
        lease = meter.open_lease("i-1", per_minute, now=0.0)
        assert lease.machine_hours(now=1.0) == pytest.approx(60.0 / 3600.0)
        assert lease.machine_hours(now=61.0) == pytest.approx(120.0 / 3600.0)
        meter.close_lease("i-1", now=90.0)
        # The started increment is still charged after close.
        assert lease.cost(now=10_000.0) == pytest.approx(0.10 * 120.0 / 3600.0)

    def test_terminated_instance_cannot_restart(self):
        instance = Instance("i-1", INSTANCE_TYPES["m1.small"])
        instance.terminate()
        with pytest.raises(ValueError):
            instance.mark_running()

    def test_double_terminate_is_idempotent(self):
        instance = Instance("i-1", INSTANCE_TYPES["m1.small"])
        instance.terminate()
        instance.terminate()
        assert instance.state is InstanceState.TERMINATED


class TestBillingMeter:
    def test_open_and_close_lease(self):
        meter = BillingMeter()
        meter.open_lease("i-1", INSTANCE_TYPES["m1.small"], now=0.0)
        meter.close_lease("i-1", now=7200.0)
        assert meter.total_machine_hours(now=10_000.0) == pytest.approx(2.0)
        assert meter.total_cost(now=10_000.0) == pytest.approx(0.20)

    def test_open_lease_billed_up_to_now(self):
        meter = BillingMeter()
        meter.open_lease("i-1", INSTANCE_TYPES["m1.small"], now=0.0)
        assert meter.total_machine_hours(now=1800.0) == pytest.approx(1.0)
        assert [lease.instance_id for lease in meter.leases()
                if lease.end is None] == ["i-1"]

    def test_duplicate_open_lease_rejected(self):
        meter = BillingMeter()
        meter.open_lease("i-1", INSTANCE_TYPES["m1.small"], now=0.0)
        with pytest.raises(ValueError):
            meter.open_lease("i-1", INSTANCE_TYPES["m1.small"], now=10.0)

    def test_close_unknown_lease_rejected(self):
        with pytest.raises(KeyError):
            BillingMeter().close_lease("nope", now=1.0)


class TestInstancePool:
    def _pool(self, max_instances=100):
        sim = Simulator(seed=0)
        return sim, InstancePool(sim, max_instances=max_instances)

    def test_launch_becomes_active_after_boot_delay(self):
        sim, pool = self._pool()
        pool.launch(2)
        assert pool.active_count() == 0
        assert pool.booting_count() == 2
        sim.run_until(INSTANCE_TYPES["m1.small"].boot_delay + 1)
        assert pool.active_count() == 2
        assert pool.booting_count() == 0

    def test_on_ready_callback_runs(self):
        sim, pool = self._pool()
        ready = []
        pool.launch(1, on_ready=lambda instance: ready.append(instance.instance_id))
        sim.run_until(500.0)
        assert len(ready) == 1

    def test_boot_delay_override_zero_is_immediately_active(self):
        _, pool = self._pool()
        pool.launch(3, boot_delay_override=0.0)
        assert pool.active_count() == 3

    def test_terminate_stops_instance(self):
        sim, pool = self._pool()
        instances = pool.launch(1, boot_delay_override=0.0)
        pool.terminate(instances[0].instance_id)
        assert pool.active_count() == 0

    def test_terminate_unknown_raises(self):
        _, pool = self._pool()
        with pytest.raises(KeyError):
            pool.terminate("i-999")

    def test_terminated_while_booting_never_activates(self):
        sim, pool = self._pool()
        instances = pool.launch(1)
        pool.terminate(instances[0].instance_id)
        sim.run_until(1000.0)
        assert pool.active_count() == 0

    def test_pool_cap_enforced(self):
        _, pool = self._pool(max_instances=2)
        pool.launch(2)
        with pytest.raises(ValueError):
            pool.launch(1)

    def test_count_series_records_scaling(self):
        sim, pool = self._pool()
        pool.launch(2, boot_delay_override=0.0)
        sim.run_until(3600.0)
        instances = pool.launch(1, boot_delay_override=0.0)
        sim.run_until(7200.0)
        pool.terminate(instances[0].instance_id)
        series = pool.count_series()
        assert series.max() == 3
        assert series.values[-1] == 2

    def test_cost_accumulates_with_time(self):
        sim, pool = self._pool()
        pool.launch(2, boot_delay_override=0.0)
        sim.run_until(3.5 * 3600)
        # 2 instances x 4 started hours x $0.10.
        assert pool.total_cost() == pytest.approx(0.80)
        assert pool.total_machine_hours() == pytest.approx(8.0)

    def test_scale_down_costs_less_than_keeping_instances(self):
        sim_a, pool_a = self._pool()
        kept = pool_a.launch(4, boot_delay_override=0.0)
        sim_a.run_until(10 * 3600)

        sim_b, pool_b = self._pool()
        released = pool_b.launch(4, boot_delay_override=0.0)
        sim_b.run_until(2 * 3600)
        for instance in released[2:]:
            pool_b.terminate(instance.instance_id)
        sim_b.run_until(10 * 3600)

        assert pool_b.total_cost() < pool_a.total_cost()
