"""Declarative consistency: the five axes of the paper's Figure 4.

Developers attach a :class:`ConsistencySpec` to their data (per entity or per
query).  The spec is purely declarative — the engine, updater, and
provisioning loop read it and choose mechanisms (replication quorums, update
deadlines, primary fallbacks, replication factors) that implement it.
"""

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
from repro.core.consistency.sessions import Session, SessionManager
from repro.core.consistency.writes import ConflictResolver
from repro.core.consistency.arbitration import Arbitrator

__all__ = [
    "Axis",
    "ConsistencySpec",
    "PerformanceSLA",
    "WriteConsistency",
    "WritePolicy",
    "ReadConsistency",
    "SessionGuarantee",
    "DurabilitySLA",
    "Session",
    "SessionManager",
    "ConflictResolver",
    "Arbitrator",
]
