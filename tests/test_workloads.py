"""Unit tests for the workload substrate (repro.workloads)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.simulator import Simulator
from repro.workloads.generator import LoadGenerator
from repro.workloads.opmix import (
    DEFAULT_MIX,
    WRITE_HEAVY_MIX,
    CloudStoneMix,
    OperationKind,
)
from repro.workloads.social_graph import SocialGraph
from repro.workloads.traces import (
    AnimotoViralTrace,
    ConstantTrace,
    DiurnalTrace,
    HalloweenSpikeTrace,
    StepTrace,
)

pytestmark = pytest.mark.tier1


def make_graph(n=100, cap=20, mean=5.0, seed=0):
    return SocialGraph(n, np.random.default_rng(seed), max_friends=cap, mean_friends=mean)


def max_degree(graph):
    return max(graph.friend_count(user) for user in graph.users())


class TestSocialGraph:
    def test_generates_requested_population(self):
        graph = make_graph(n=50)
        assert len(graph.users()) == 50
        assert graph.n_users == 50

    def test_degree_cap_is_respected(self):
        graph = make_graph(n=300, cap=10, mean=8.0)
        assert max_degree(graph) <= 10

    def test_friendships_are_symmetric(self):
        graph = make_graph(n=100)
        for a, b in graph.friendships():
            assert a in graph._friends[b]  # noqa: SLF001
            assert b in graph._friends[a]  # noqa: SLF001

    def test_profiles_have_valid_birthdays(self):
        graph = make_graph(n=50)
        for user_id in graph.users():
            month, day = graph.profile(user_id).birthday.split("-")
            assert 1 <= int(month) <= 12
            assert 1 <= int(day) <= 28

    def test_add_friendship_respects_cap(self):
        graph = make_graph(n=30, cap=2, mean=1.0)
        users = graph.users()
        hub = users[0]
        added = 0
        for other in users[1:]:
            if graph.add_friendship(hub, other):
                added += 1
        assert graph.friend_count(hub) <= 2

    def test_add_self_friendship_rejected(self):
        graph = make_graph(n=5)
        with pytest.raises(ValueError):
            graph.add_friendship(graph.users()[0], graph.users()[0])

    def test_same_seed_same_graph(self):
        a = make_graph(n=60, seed=5)
        b = make_graph(n=60, seed=5)
        assert sorted(a.friendships()) == sorted(b.friendships())

    def test_single_user_graph(self):
        graph = make_graph(n=1)
        assert graph.mean_degree() == 0.0

    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SocialGraph(0, rng)
        with pytest.raises(ValueError):
            SocialGraph(10, rng, max_friends=0)

    @given(cap=st.integers(min_value=1, max_value=15))
    @settings(max_examples=10, deadline=None)
    def test_cap_property(self, cap):
        graph = SocialGraph(80, np.random.default_rng(1), max_friends=cap, mean_friends=cap * 2.0)
        assert max_degree(graph) <= cap


class TestCloudStoneMix:
    def test_operations_reference_existing_users(self):
        graph = make_graph()
        mix = CloudStoneMix(graph, np.random.default_rng(0))
        users = set(graph.users())
        for _ in range(200):
            operation = mix.next_operation()
            assert operation.user_id in users
            if operation.target_id is not None:
                assert operation.target_id in users

    def test_write_fraction_matches_mix(self):
        graph = make_graph()
        mix = CloudStoneMix(graph, np.random.default_rng(0))
        assert mix.write_fraction() == pytest.approx(0.10, abs=0.001)
        ops = [mix.next_operation() for _ in range(3000)]
        observed = sum(1 for op in ops if op.is_write) / len(ops)
        assert observed == pytest.approx(0.10, abs=0.03)

    def test_write_heavy_mix_has_more_writes(self):
        graph = make_graph()
        default = CloudStoneMix(graph, np.random.default_rng(0), mix=DEFAULT_MIX)
        heavy = CloudStoneMix(graph, np.random.default_rng(0), mix=WRITE_HEAVY_MIX)
        assert heavy.write_fraction() > 3 * default.write_fraction()

    def test_set_mix_switches_behaviour(self):
        graph = make_graph()
        mix = CloudStoneMix(graph, np.random.default_rng(0))
        mix.set_mix({OperationKind.POST_STATUS: 1.0})
        ops = [mix.next_operation() for _ in range(50)]
        assert all(op.kind is OperationKind.POST_STATUS for op in ops)

    def test_popularity_is_skewed(self):
        graph = make_graph(n=500)
        mix = CloudStoneMix(graph, np.random.default_rng(0), zipf_theta=0.9)
        counts = {}
        for _ in range(3000):
            operation = mix.next_operation()
            counts[operation.user_id] = counts.get(operation.user_id, 0) + 1
        top_share = max(counts.values()) / 3000
        assert top_share > 0.01  # far above the uniform 1/500

    def test_empty_mix_rejected(self):
        graph = make_graph()
        with pytest.raises(ValueError):
            CloudStoneMix(graph, np.random.default_rng(0), mix={OperationKind.READ_PROFILE: 0.0})


class TestTraces:
    def test_constant_trace(self):
        assert ConstantTrace(100.0).rate_at(1e6) == 100.0

    def test_step_trace(self):
        trace = StepTrace([(0.0, 10.0), (100.0, 50.0)])
        assert trace.rate_at(50.0) == 10.0
        assert trace.rate_at(150.0) == 50.0

    def test_step_trace_requires_sorted_steps(self):
        with pytest.raises(ValueError):
            StepTrace([(100.0, 10.0), (0.0, 50.0)])

    def test_diurnal_peaks_at_peak_hour(self):
        trace = DiurnalTrace(base_rate=100.0, peak_rate=1000.0, peak_hour=20.0)
        peak = trace.rate_at(20.0 * 3600)
        trough = trace.rate_at(8.0 * 3600)
        assert peak == pytest.approx(1000.0, rel=0.01)
        assert trough == pytest.approx(100.0, rel=0.01)

    def test_diurnal_is_periodic(self):
        trace = DiurnalTrace(base_rate=100.0, peak_rate=1000.0)
        assert trace.rate_at(5 * 3600) == pytest.approx(trace.rate_at(5 * 3600 + 86400))

    def test_animoto_trace_reaches_the_paper_multiplier(self):
        trace = AnimotoViralTrace(start_rate=500.0, peak_multiplier=68.0)
        start = trace.rate_at(0.0)
        end = trace.rate_at(trace.ramp_start + trace.ramp_duration + 3600)
        assert start == pytest.approx(500.0)
        assert end == pytest.approx(500.0 * 68.0, rel=0.01)
        assert end / start > 60  # two orders of magnitude, as in Figure 1

    def test_animoto_trace_is_nondecreasing(self):
        trace = AnimotoViralTrace()
        samples = [trace.rate_at(t) for t in np.linspace(0, 4 * 86400, 200)]
        assert all(b >= a - 1e-9 for a, b in zip(samples, samples[1:]))

    def test_halloween_spike_shape(self):
        trace = HalloweenSpikeTrace(base_rate=100.0, spike_multiplier=5.0)
        assert trace.rate_at(0.0) == 100.0
        peak_time = trace.spike_start + trace.rise_duration + trace.hold_duration / 2
        assert trace.rate_at(peak_time) == pytest.approx(500.0)
        after = trace.spike_start + trace.rise_duration + trace.hold_duration + trace.decay_duration + 10
        assert trace.rate_at(after) == 100.0

    def test_invalid_traces_rejected(self):
        with pytest.raises(ValueError):
            ConstantTrace(-1.0)
        with pytest.raises(ValueError):
            DiurnalTrace(base_rate=10.0, peak_rate=5.0)
        with pytest.raises(ValueError):
            AnimotoViralTrace(start_rate=0.0)
        with pytest.raises(ValueError):
            HalloweenSpikeTrace(base_rate=0.0)


class TestLoadGenerator:
    def _run(self, trace, duration):
        sim = Simulator(seed=3)
        graph = make_graph(n=50)
        mix = CloudStoneMix(graph, sim.random.get("mix"))
        executed = []
        generator = LoadGenerator(sim, trace, mix, executed.append)
        generator.start()
        sim.run_until(duration)
        generator.stop()
        return executed, generator

    def test_issues_roughly_trace_rate(self):
        executed, _ = self._run(ConstantTrace(50.0), duration=20.0)
        assert len(executed) == pytest.approx(1000, rel=0.25)

    def test_stats_split_reads_and_writes(self):
        executed, generator = self._run(ConstantTrace(50.0), duration=10.0)
        stats = generator.stats
        assert stats.operations_issued == len(executed)
        assert stats.writes_issued == sum(op.is_write for op in executed)
        assert stats.operations_issued > 2 * stats.writes_issued  # reads dominate

    def test_zero_rate_trace_issues_nothing_much(self):
        executed, _ = self._run(ConstantTrace(0.0), duration=10.0)
        assert len(executed) == 0
