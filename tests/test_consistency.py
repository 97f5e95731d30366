"""Unit tests for the declarative consistency axes (Figure 4)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.consistency.arbitration import Arbitrator
from repro.core.consistency.sessions import Session, SessionManager
from repro.core.consistency.spec import (
    Axis,
    ConsistencySpec,
    DurabilitySLA,
    PerformanceSLA,
    ReadConsistency,
    SessionGuarantee,
    WriteConsistency,
    WritePolicy,
)
from repro.core.consistency.writes import ConflictResolver
from repro.storage.records import VersionedValue

pytestmark = pytest.mark.tier1


class TestSpecAxes:
    def test_performance_sla_describe(self):
        sla = PerformanceSLA(percentile=99.9, latency=0.1, availability=0.9999)
        text = sla.describe()
        assert "99.9" in text and "100ms" in text

    def test_performance_sla_validation(self):
        with pytest.raises(ValueError):
            PerformanceSLA(percentile=0)
        with pytest.raises(ValueError):
            PerformanceSLA(latency=0)
        with pytest.raises(ValueError):
            PerformanceSLA(availability=0)

    def test_merge_policy_requires_function(self):
        with pytest.raises(ValueError):
            WriteConsistency(policy=WritePolicy.MERGE)

    def test_serializable_requires_quorum(self):
        serializable = WriteConsistency(policy=WritePolicy.SERIALIZABLE)
        last_write_wins = WriteConsistency(policy=WritePolicy.LAST_WRITE_WINS)
        assert ConflictResolver(serializable).write_quorum() > 1
        assert ConflictResolver(last_write_wins).write_quorum() == 1

    def test_read_consistency_validation(self):
        assert ReadConsistency(600.0).describe().startswith("stale data gone")
        with pytest.raises(ValueError):
            ReadConsistency(0.0)

    def test_durability_validation(self):
        with pytest.raises(ValueError):
            DurabilitySLA(probability=1.0)
        with pytest.raises(ValueError):
            DurabilitySLA(probability=0.999, horizon_hours=0)

    def test_default_spec_describes_every_axis(self):
        description = ConsistencySpec().describe()
        assert set(description) == {
            "performance", "write_consistency", "read_consistency",
            "session_guarantees", "durability",
        }

    def test_priority_ordering(self):
        spec = ConsistencySpec(priority=[Axis.READ_CONSISTENCY, Axis.AVAILABILITY])
        assert spec.prefers(Axis.READ_CONSISTENCY, Axis.AVAILABILITY)
        assert not spec.prefers(Axis.AVAILABILITY, Axis.READ_CONSISTENCY)

    def test_duplicate_priority_rejected(self):
        with pytest.raises(ValueError):
            ConsistencySpec(priority=[Axis.AVAILABILITY, Axis.AVAILABILITY])

    def test_unlisted_axes_rank_last(self):
        spec = ConsistencySpec(priority=[Axis.AVAILABILITY])
        assert spec.prefers(Axis.AVAILABILITY, Axis.DURABILITY)


class TestSessions:
    def _value(self, version, writer="s1"):
        return VersionedValue(value={"a": version}, timestamp=float(version),
                              version=version, writer=writer)

    def test_read_your_writes_rejects_stale_replica_value(self):
        session = Session(SessionGuarantee(read_your_writes=True))
        session.note_write("ns", ("k",), self._value(3))
        assert not session.acceptable("ns", ("k",), self._value(2))
        assert session.acceptable("ns", ("k",), self._value(3))

    def test_read_your_writes_rejects_missing_value(self):
        session = Session(SessionGuarantee(read_your_writes=True))
        session.note_write("ns", ("k",), self._value(1))
        assert not session.acceptable("ns", ("k",), None)

    def test_monotonic_reads_rejects_going_backwards(self):
        session = Session(SessionGuarantee(monotonic_reads=True))
        session.note_read("ns", ("k",), self._value(5))
        assert not session.acceptable("ns", ("k",), self._value(4))
        assert session.acceptable("ns", ("k",), self._value(6))

    def test_no_guarantees_accepts_anything(self):
        session = Session(SessionGuarantee())
        session.note_write("ns", ("k",), self._value(3))
        assert session.acceptable("ns", ("k",), None)

    def test_guarantees_are_per_key(self):
        session = Session(SessionGuarantee(read_your_writes=True))
        session.note_write("ns", ("k1",), self._value(3))
        assert session.acceptable("ns", ("k2",), None)

    def test_manager_reuses_sessions_with_the_default_guarantee(self):
        manager = SessionManager(SessionGuarantee(read_your_writes=True))
        session = manager.open("s1")
        assert manager.open("s1") is session
        session.note_write("ns", ("k",), self._value(2))
        assert not session.acceptable("ns", ("k",), self._value(1))
        assert len(manager._sessions) == 1  # noqa: SLF001
        assert manager.get("missing") is None


class _FullHistorySession:
    """A session that records every write and read whatever its guarantee —
    the model a :class:`Session`, which keeps only the history its guarantee
    can consult, must answer like."""

    def __init__(self, guarantee):
        self.guarantee = guarantee
        self.written, self.seen = {}, {}

    def note_write(self, namespace, key, value):
        self.written[(namespace, key)] = value.version

    def note_read(self, namespace, key, value):
        if value is not None:
            self.seen[(namespace, key)] = max(value.version,
                                              self.seen.get((namespace, key), 0))

    def acceptable(self, namespace, key, value):
        observed = value.version if value is not None else 0
        if self.guarantee.read_your_writes and observed < self.written.get((namespace, key), 0):
            return False
        return not (self.guarantee.monotonic_reads
                    and observed < self.seen.get((namespace, key), 0))


SESSION_KEYS = st.sampled_from([("a",), ("b",), ("c", 1)])
SESSION_VALUES = st.one_of(st.none(), st.integers(min_value=1, max_value=6))
SESSION_STEPS = st.lists(st.one_of(
    st.tuples(st.just("write"), SESSION_KEYS, st.integers(min_value=1, max_value=6)),
    st.tuples(st.just("read"), SESSION_KEYS, SESSION_VALUES),
    st.tuples(st.just("reads"), st.lists(st.tuples(SESSION_KEYS, SESSION_VALUES),
                                         max_size=5, unique_by=lambda kv: kv[0])),
    st.tuples(st.just("ask"), SESSION_KEYS, SESSION_VALUES),
), max_size=40)


class TestSessionHistory:
    """Sessions keep history only for the guarantees they have."""

    @staticmethod
    def _value(version):
        if version is None:
            return None
        return VersionedValue(value={"a": version}, timestamp=0.0, version=version)

    @given(read_your_writes=st.booleans(), monotonic_reads=st.booleans(),
           steps=SESSION_STEPS)
    def test_batched_notes_and_pruned_history_answer_like_the_full_history(
            self, read_your_writes, monotonic_reads, steps):
        guarantee = SessionGuarantee(read_your_writes=read_your_writes,
                                     monotonic_reads=monotonic_reads)
        batched, single = Session(guarantee), Session(guarantee)
        model = _FullHistorySession(guarantee)
        for step in steps:
            if step[0] == "reads":
                pairs = [(key, self._value(version)) for key, version in step[1]]
                batched.note_reads("ns", [key for key, _ in pairs],
                                   [value for _, value in pairs])
                for target in (single, model):
                    for key, value in pairs:
                        target.note_read("ns", key, value)
                continue
            kind, key, version = step
            value = self._value(version)
            if kind == "ask":
                answer = model.acceptable("ns", key, value)
                assert batched.acceptable("ns", key, value) is answer
                assert single.acceptable("ns", key, value) is answer
            else:
                for target in (batched, single, model):
                    getattr(target, f"note_{kind}")("ns", key, value)
        assert batched._last_seen_version == single._last_seen_version
        assert batched._last_written_version == single._last_written_version
        assert batched._last_seen_version == (model.seen if monotonic_reads else {})
        assert batched._last_written_version == (model.written if read_your_writes else {})
        for key in [("a",), ("b",), ("c", 1)]:
            for version in (None, 1, 3, 6):
                value = self._value(version)
                assert (batched.acceptable("ns", key, value)
                        is model.acceptable("ns", key, value))


class TestConflictResolver:
    def test_last_write_wins_returns_incoming(self):
        resolver = ConflictResolver(WriteConsistency(WritePolicy.LAST_WRITE_WINS))
        result = resolver.resolve({"a": 1}, {"a": 2})
        assert result == {"a": 2}
        assert resolver.write_quorum() == 1

    def test_merge_combines_both_writes(self):
        def merge(current, incoming):
            merged = dict(current)
            merged.setdefault("tags", [])
            merged["tags"] = sorted(set(current.get("tags", []) + incoming.get("tags", [])))
            return merged

        resolver = ConflictResolver(WriteConsistency(WritePolicy.MERGE, merge_function=merge))
        result = resolver.resolve({"tags": ["a"]}, {"tags": ["b"]})
        assert result["tags"] == ["a", "b"]

    def test_merge_with_no_current_returns_incoming(self):
        resolver = ConflictResolver(
            WriteConsistency(WritePolicy.MERGE, merge_function=lambda c, i: c)
        )
        assert resolver.resolve(None, {"x": 1}) == {"x": 1}

    def test_merge_must_return_dict(self):
        resolver = ConflictResolver(
            WriteConsistency(WritePolicy.MERGE, merge_function=lambda c, i: 42)
        )
        with pytest.raises(TypeError):
            resolver.resolve({"a": 1}, {"a": 2})

    def test_serializable_uses_majority_quorum(self):
        resolver = ConflictResolver(
            WriteConsistency(WritePolicy.SERIALIZABLE), replication_factor=3
        )
        assert resolver.write_quorum() == 2
        resolver5 = ConflictResolver(
            WriteConsistency(WritePolicy.SERIALIZABLE), replication_factor=5
        )
        assert resolver5.write_quorum() == 3

    def test_serializable_applies_partial_update_on_top(self):
        resolver = ConflictResolver(WriteConsistency(WritePolicy.SERIALIZABLE))
        result = resolver.resolve({"a": 1, "b": 2}, {"b": 3})
        assert result == {"a": 1, "b": 3}


class TestArbitrator:
    def test_availability_first_serves_stale(self):
        spec = ConsistencySpec(priority=[Axis.AVAILABILITY, Axis.READ_CONSISTENCY])
        arbitrator = Arbitrator(spec)
        assert not arbitrator.resolve_read_conflict()
        assert (arbitrator.stale_serves(), arbitrator.failed_requests()) == (1, 0)

    def test_consistency_first_fails_request(self):
        spec = ConsistencySpec(priority=[Axis.READ_CONSISTENCY, Axis.AVAILABILITY])
        arbitrator = Arbitrator(spec)
        assert arbitrator.resolve_read_conflict()
        assert (arbitrator.stale_serves(), arbitrator.failed_requests()) == (0, 1)

    def test_session_conflicts_use_session_axis(self):
        spec = ConsistencySpec(priority=[Axis.SESSION, Axis.AVAILABILITY])
        arbitrator = Arbitrator(spec)
        assert arbitrator.resolve_session_conflict()  # the session guarantee wins
        assert arbitrator.failed_requests() == 1

    def test_every_conflict_is_counted(self):
        arbitrator = Arbitrator(ConsistencySpec())
        served = [arbitrator.resolve_read_conflict() for _ in range(2)]
        assert served.count(False) == arbitrator.stale_serves()
        assert served.count(True) == arbitrator.failed_requests()
        assert arbitrator.stale_serves() + arbitrator.failed_requests() == 2
