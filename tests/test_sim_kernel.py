"""Unit tests for the discrete-event simulation kernel (repro.sim)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import ClockError, VirtualClock
from repro.sim.events import EventQueue
from repro.sim.latency import ConstantLatency, LogNormalLatency, QueueingLatency
from repro.sim.network import NetworkModel, NetworkPartitionError
from repro.sim.randomness import RandomStreams, ZipfGenerator
from repro.sim.simulator import Simulator

pytestmark = pytest.mark.tier1


# ---------------------------------------------------------------------- clock


class TestVirtualClock:
    def test_starts_at_zero_by_default(self):
        assert VirtualClock().now == 0.0

    def test_advance_to_moves_forward(self):
        clock = VirtualClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_advance_to_same_time_is_noop(self):
        clock = VirtualClock()
        clock.advance_to(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_advance_to_rejects_backwards(self):
        clock = VirtualClock()
        clock.advance_to(2.0)
        with pytest.raises(ClockError):
            clock.advance_to(1.0)

# ---------------------------------------------------------------- event queue


def _fire_all(queue):
    """Pop every entry and run its action."""
    while queue:
        _, _, _, action, _ = queue.pop()
        action()


class TestEventQueue:
    def test_pop_returns_events_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, lambda: fired.append("c"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(2.0, lambda: fired.append("b"))
        _fire_all(queue)
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_insertion_order(self):
        queue = EventQueue()
        fired = []
        first = queue.push(1.0, lambda: fired.append("first"))
        second = queue.push(1.0, lambda: fired.append("second"))
        assert first[2] < second[2]  # the entry's seq is the insertion order
        _fire_all(queue)
        assert fired == ["first", "second"]

    def test_priority_breaks_ties(self):
        queue = EventQueue()
        fired = []
        queue.push(1.0, lambda: fired.append("low"), priority=5)
        queue.push(1.0, lambda: fired.append("high"), priority=0)
        _fire_all(queue)
        assert fired == ["high", "low"]

    def test_len_counts_live_events(self):
        queue = EventQueue()
        entry = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        queue.cancel(entry)
        assert len(queue) == len(queue._heap) == 1  # noqa: SLF001

    def test_cancelled_events_are_skipped(self):
        """Cancelling takes the entry out of the heap at once."""
        queue = EventQueue()
        fired = []
        entry = queue.push(1.0, lambda: fired.append("cancelled"))
        queue.push(2.0, lambda: fired.append("kept"))
        queue.cancel(entry)
        assert all(queued is not entry for queued in queue._heap)  # noqa: SLF001
        _fire_all(queue)
        assert fired == ["kept"]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_cancelling_a_popped_event_leaves_the_live_count(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop() is first
        queue.cancel(first)
        assert len(queue) == len(queue._heap) == 1  # noqa: SLF001
        assert queue.pop() is not first and not queue


# ------------------------------------------------------------------ simulator


class TestSimulator:
    def test_schedule_and_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == [5.0]
        assert sim.now == 10.0

    def test_run_until_leaves_clock_at_end_time_with_empty_queue(self):
        sim = Simulator()
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_events_beyond_end_time_do_not_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("early"))
        sim.schedule(50.0, lambda: fired.append("late"))
        sim.run_until(10.0)
        assert fired == ["early"]

    def test_schedule_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_rejects_past(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    def test_periodic_fires_repeatedly(self):
        sim = Simulator()
        fired = []
        sim.schedule_periodic(10.0, lambda: fired.append(sim.now))
        sim.run_until(35.0)
        assert fired == [10.0, 20.0, 30.0]

    def test_periodic_cancel_stops_firing(self):
        sim = Simulator()
        fired = []
        cancel = sim.schedule_periodic(10.0, lambda: fired.append(sim.now))
        sim.run_until(25.0)
        cancel()
        sim.run_until(100.0)
        assert fired == [10.0, 20.0]

    def test_periodic_action_cancelling_itself(self):
        """The cancel handle called from inside the periodic action cancels
        the entry that is firing: nothing still queued is removed, the tick
        does not re-arm, and ``run_until`` goes on to the events still queued."""
        sim = Simulator()
        fired = []
        handle = {}

        def action():
            fired.append(sim.now)
            if len(fired) == 2:
                handle["cancel"]()

        handle["cancel"] = sim.schedule_periodic(1.0, action)
        sim.schedule(10.0, lambda: fired.append("one-shot"))
        assert sim.run_until(10.0) == 10.0
        assert fired == [1.0, 2.0, "one-shot"]
        assert len(sim.queue) == len(sim.queue._heap) == 0  # noqa: SLF001

    def test_nested_scheduling_from_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run_until(5.0)
        assert fired == ["first", "second"]

    def test_processed_events_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run_until(10.0)
        assert sim.processed_events == 5

    def test_run_drains_queue(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run_until(2.0)
        assert not sim.queue


# ----------------------------------------------------------------- randomness


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(42).get("x").random(5)
        b = RandomStreams(42).get("x").random(5)
        assert np.allclose(a, b)

    def test_different_names_are_independent(self):
        streams = RandomStreams(42)
        a = streams.get("a").random(5)
        b = streams.get("b").random(5)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("x").random(5)
        b = RandomStreams(2).get("x").random(5)
        assert not np.allclose(a, b)

    def test_same_stream_is_cached(self):
        streams = RandomStreams(0)
        assert streams.get("x") is streams.get("x")


class TestDistributions:
    def test_zipf_draws_in_range(self):
        rng = np.random.default_rng(0)
        zipf = ZipfGenerator(100, 0.9, rng)
        draws = np.array([zipf.draw() for _ in range(1000)])
        assert draws.min() >= 0
        assert draws.max() < 100

    def test_zipf_is_skewed_toward_low_ranks(self):
        rng = np.random.default_rng(0)
        zipf = ZipfGenerator(1000, 0.9, rng)
        draws = np.array([zipf.draw() for _ in range(5000)])
        top_ten_share = np.mean(draws < 10)
        assert top_ten_share > 0.15  # heavily skewed vs. the uniform 1%

    def test_zipf_theta_zero_is_roughly_uniform(self):
        rng = np.random.default_rng(0)
        zipf = ZipfGenerator(10, 0.0, rng)
        draws = np.array([zipf.draw() for _ in range(10_000)])
        counts = np.bincount(draws, minlength=10)
        assert counts.min() > 700

    def test_zipf_rejects_bad_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ZipfGenerator(0, 0.5, rng)
        with pytest.raises(ValueError):
            ZipfGenerator(10, 1.5, rng)

# -------------------------------------------------------------------- latency


class TestLatencyModels:
    def test_constant(self):
        rng = np.random.default_rng(0)
        model = ConstantLatency(0.005)
        assert model.sample(rng) == 0.005
        assert model.mean() == 0.005

    def test_lognormal_mean_close_to_analytic(self):
        rng = np.random.default_rng(0)
        model = LogNormalLatency(0.004, 0.5)
        samples = [model.sample(rng) for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(model.mean(), rel=0.05)

    def test_queueing_latency_grows_with_utilisation(self):
        rng = np.random.default_rng(0)
        model = QueueingLatency(ConstantLatency(0.004))
        model.set_utilisation(0.0)
        low = model.sample(rng)
        model.set_utilisation(0.9)
        high = model.sample(rng)
        assert high == pytest.approx(low / 0.1)

    def test_queueing_latency_clamps_overload(self):
        model = QueueingLatency(ConstantLatency(0.004))
        model.set_utilisation(5.0)
        assert model.utilisation == QueueingLatency.MAX_UTILISATION

# -------------------------------------------------------------------- network


class TestNetworkModel:
    def _network(self):
        return NetworkModel(np.random.default_rng(0))

    def test_self_delay_is_zero(self):
        assert self._network().delay("a", "a") == 0.0

    def test_default_delay_is_positive(self):
        assert self._network().delay("a", "b") > 0.0

    def test_partition_blocks_traffic(self):
        network = self._network()
        network.partition({"a"}, {"b"})
        with pytest.raises(NetworkPartitionError):
            network.delay("a", "b")

    def test_partition_is_symmetric(self):
        network = self._network()
        network.partition({"a"}, {"b"})
        with pytest.raises(NetworkPartitionError):
            network.delay("b", "a")

    def test_partition_does_not_block_same_side(self):
        network = self._network()
        network.partition({"a", "c"}, {"b"})
        assert network.delay("a", "c") >= 0.0

    def test_heal_restores_traffic(self):
        network = self._network()
        partition = network.partition({"a"}, {"b"})
        network.heal(partition)
        assert network.delay("a", "b") > 0.0

    def test_heal_all(self):
        network = self._network()
        partitions = [network.partition({"a"}, {"b"}), network.partition({"c"}, {"d"})]
        for partition in partitions:
            network.heal(partition)
        assert network.is_reachable("a", "b")
        assert network.is_reachable("c", "d")

    def test_overlapping_partition_groups_rejected(self):
        network = self._network()
        with pytest.raises(ValueError):
            network.partition({"a"}, {"a", "b"})

# ------------------------------------------------------------ property tests


# Queue operations for the model test, weighted toward growing the heap and
# cancelling inside it.
_QUEUE_OPS = ["push"] * 5 + ["cancel"] * 3 + ["cancel-gone", "pop"]


class TestSimulatorProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_clock_is_monotonic_over_any_schedule(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run_until(1000.0)
        assert observed == sorted(observed)

    @given(
        times=st.lists(
            st.tuples(st.floats(min_value=0, max_value=100), st.integers(min_value=0, max_value=3)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_event_queue_pops_in_nondecreasing_time_order(self, times):
        queue = EventQueue()
        for time, priority in times:
            queue.push(time, lambda: None, priority=priority)
        popped = []
        while queue:
            popped.append(queue.pop()[0])
        assert popped == sorted(popped)

    @pytest.mark.property
    @given(
        fill=st.lists(st.tuples(st.just("push"), st.integers(0, 100), st.integers(0, 2)),
                      min_size=10, max_size=40),
        ops=st.lists(st.tuples(st.sampled_from(_QUEUE_OPS), st.integers(0, 100),
                               st.integers(0, 2)), max_size=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_event_queue_matches_a_sorted_list(self, fill, ops):
        """Against a sorted-list model: pending entries pop in (time,
        priority, insertion) order, a cancelled pending entry is gone at once
        with the heap still ordered, and cancelling an entry that fired
        changes nothing.  ``fill`` starts every example from a heap deep
        enough for a cancel to land on an inner node."""
        queue = EventQueue()
        model = []  # pending entries, sorted by (time, priority, seq)
        gone = []   # entries that fired
        for kind, number, priority in fill + ops:
            if kind == "push":
                model.append(queue.push(float(number), None, priority=priority))
                model.sort(key=lambda entry: entry[:3])
            elif kind == "cancel" and model:
                queue.cancel(model.pop(number % len(model)))
            elif kind == "cancel-gone" and gone:
                queue.cancel(gone[number % len(gone)])
            elif kind == "pop" and model:
                due = model.pop(0)
                assert queue.pop() is due
                gone.append(due)
            assert len(queue) == len(model)
            # The heap stays a heap, so its head is the earliest pending entry.
            heap = queue._heap  # noqa: SLF001
            assert all(heap[(i - 1) // 2][:3] < heap[i][:3] for i in range(1, len(heap)))
            assert (heap[0] if heap else None) is (model[0] if model else None)
        assert [queue.pop() for _ in range(len(queue))] == model
