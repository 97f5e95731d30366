"""The declarative consistency/performance specification (Figure 4).

Each axis is a small dataclass with the vocabulary the paper uses:

=================  =============================  ==============================
Axis               Effects                        Example
=================  =============================  ==============================
Performance        latency and availability       99.9 % of requests < 100 ms
Write consistency  how updates are applied        serializable / merge / LWW
Read consistency   replication (staleness) bound  stale data gone within 10 min
Session guarantees the caller's own actions       read-your-writes, monotonic
Durability SLA     probability data persists      99.999 %
=================  =============================  ==============================

A :class:`ConsistencySpec` bundles one choice per axis plus a priority
ordering used when requirements conflict (e.g. availability vs. read
consistency during a partition).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


class Axis(enum.Enum):
    """The five axes of Figure 4 (used in the priority ordering)."""

    PERFORMANCE = "performance"
    WRITE_CONSISTENCY = "write_consistency"
    READ_CONSISTENCY = "read_consistency"
    SESSION = "session"
    DURABILITY = "durability"
    AVAILABILITY = "availability"  # performance's availability half, separable in priorities


@dataclass(frozen=True)
class PerformanceSLA:
    """Latency/availability requirement, e.g. 99.9 % of reads under 100 ms."""

    percentile: float = 99.9
    latency: float = 0.100
    availability: float = 0.9999
    op_type: str = "read"

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile < 100.0:
            raise ValueError(f"percentile must be in (0, 100), got {self.percentile}")
        if self.latency <= 0:
            raise ValueError(f"latency target must be positive, got {self.latency}")
        if not 0.0 < self.availability <= 1.0:
            raise ValueError(f"availability must be in (0, 1], got {self.availability}")

    def describe(self) -> str:
        """Human-readable form matching the paper's phrasing."""
        return (
            f"{self.percentile}% of {self.op_type} requests succeed in "
            f"<{self.latency * 1000:.0f}ms; {self.availability * 100:.2f}% availability"
        )


class WritePolicy(enum.Enum):
    """The write-consistency spectrum of Figure 4."""

    SERIALIZABLE = "serializable"
    MERGE = "merge"
    LAST_WRITE_WINS = "last_write_wins"


@dataclass(frozen=True)
class WriteConsistency:
    """How conflicting writes are handled.

    ``merge_function(current, incoming) -> merged`` is required for the MERGE
    policy and ignored otherwise.
    """

    policy: WritePolicy = WritePolicy.LAST_WRITE_WINS
    merge_function: Optional[Callable[[Dict[str, Any], Dict[str, Any]], Dict[str, Any]]] = None

    def __post_init__(self) -> None:
        if self.policy is WritePolicy.MERGE and self.merge_function is None:
            raise ValueError("MERGE write consistency requires a merge_function")


@dataclass(frozen=True)
class ReadConsistency:
    """Upper bound on how stale returned data may be, in wall-clock seconds."""

    staleness_bound: float = 600.0  # the paper's "ten minutes" example

    def __post_init__(self) -> None:
        if self.staleness_bound <= 0:
            raise ValueError(f"staleness bound must be positive, got {self.staleness_bound}")

    def describe(self) -> str:
        return f"stale data gone within {self.staleness_bound:.0f} seconds"


@dataclass(frozen=True)
class SessionGuarantee:
    """Terry-style session guarantees: the two the paper says web apps need."""

    read_your_writes: bool = False
    monotonic_reads: bool = False

    @property
    def any_enabled(self) -> bool:
        return self.read_your_writes or self.monotonic_reads


@dataclass(frozen=True)
class DurabilitySLA:
    """Probability committed writes persist over the horizon."""

    probability: float = 0.99999
    horizon_hours: float = 8760.0

    def __post_init__(self) -> None:
        if not 0.0 < self.probability < 1.0:
            raise ValueError(f"durability probability must be in (0, 1), got {self.probability}")
        if self.horizon_hours <= 0:
            raise ValueError("durability horizon must be positive")

    def describe(self) -> str:
        return f"data persists with {self.probability * 100:.3f}% probability"


DEFAULT_PRIORITY = [
    Axis.DURABILITY,
    Axis.AVAILABILITY,
    Axis.READ_CONSISTENCY,
    Axis.SESSION,
    Axis.PERFORMANCE,
]


@dataclass
class ConsistencySpec:
    """One complete declarative specification: a choice on every axis.

    ``priority`` orders the axes from most to least important; it is consulted
    only when requirements cannot all be met simultaneously (Section 3.3.1's
    disconnected-datacenter example).
    """

    performance: PerformanceSLA = field(default_factory=PerformanceSLA)
    write: WriteConsistency = field(default_factory=WriteConsistency)
    read: ReadConsistency = field(default_factory=ReadConsistency)
    session: SessionGuarantee = field(default_factory=SessionGuarantee)
    durability: DurabilitySLA = field(default_factory=DurabilitySLA)
    priority: List[Axis] = field(default_factory=lambda: list(DEFAULT_PRIORITY))

    def __post_init__(self) -> None:
        if len(set(self.priority)) != len(self.priority):
            raise ValueError("priority ordering must not repeat axes")

    def prefers(self, first: Axis, second: Axis) -> bool:
        """True when ``first`` outranks ``second`` (absent axes rank last)."""
        try:
            first_rank = self.priority.index(first)
        except ValueError:
            first_rank = len(self.priority)
        try:
            second_rank = self.priority.index(second)
        except ValueError:
            second_rank = len(self.priority)
        return first_rank < second_rank

    def describe(self) -> Dict[str, str]:
        """The Figure-4 style summary of every axis."""
        return {
            "performance": self.performance.describe(),
            "write_consistency": self.write.policy.value,
            "read_consistency": self.read.describe(),
            "session_guarantees": (
                ", ".join(
                    name
                    for name, enabled in [
                        ("read-your-writes", self.session.read_your_writes),
                        ("monotonic-reads", self.session.monotonic_reads),
                    ]
                    if enabled
                )
                or "none"
            ),
            "durability": self.durability.describe(),
        }
