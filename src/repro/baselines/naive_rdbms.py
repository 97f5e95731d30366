"""A deliberately naive single-node relational-style store.

This is the anti-pattern SCADS exists to replace: every query is executed by
scanning the relevant tables, so query latency grows linearly (or worse) with
the total number of rows — i.e. with the user population.  Experiment E1 runs
the same workload against this baseline and against SCADS to reproduce the
paper's scale-independence argument.

The cost model is intentionally simple and favourable to the baseline: each
row touched during a scan costs a fixed amount of CPU time, and there is no
network.  Even under those generous assumptions the per-query latency grows
with the user base while SCADS's stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class NaiveQueryResult:
    """Rows plus the modelled execution cost of a naive scan-based query."""

    rows: List[Dict[str, Any]]
    latency: float


class NaiveRdbms:
    """Single-node store executing joins by nested-loop scans."""

    # Seconds of CPU per row touched while scanning.
    row_scan_cost = 2e-6
    # Fixed per-query overhead (parsing, planning, round trip).
    base_cost = 0.002

    def __init__(self) -> None:
        self._tables: Dict[str, Dict[Tuple, Dict[str, Any]]] = {}

    # -------------------------------------------------------------------- data

    def create_table(self, name: str) -> None:
        """Create an empty table (idempotent)."""
        self._tables.setdefault(name, {})

    def insert(self, table: str, key: Tuple, row: Dict[str, Any]) -> None:
        """Insert or overwrite one row."""
        self.create_table(table)
        self._tables[table][key] = dict(row)

    # ----------------------------------------------------------------- queries

    def _scan(self, table: str) -> List[Dict[str, Any]]:
        return list(self._tables.get(table, {}).values())

    def friend_birthdays(self, user_id: str, limit: Optional[int] = None) -> NaiveQueryResult:
        """The paper's example query executed as a scan + nested-loop join.

        Scans the friendships table for the user's friends, then probes the
        profiles table (hash probe, one row cost each), then sorts by
        birthday.  Without a precomputed index the friendship scan alone
        touches every friendship row in the system.
        """
        scanned = 0
        friends: List[str] = []
        for row in self._scan("friendships"):
            scanned += 1
            if row.get("f1") == user_id:
                friends.append(row["f2"])
        joined: List[Dict[str, Any]] = []
        profiles = self._tables.get("profiles", {})
        for friend_id in friends:
            scanned += 1
            profile = profiles.get((friend_id,))
            if profile is not None:
                joined.append(dict(profile))
        joined.sort(key=lambda r: r.get("birthday", ""))
        if limit is not None:
            joined = joined[:limit]
        return NaiveQueryResult(
            rows=joined,
            latency=self.base_cost + scanned * self.row_scan_cost,
        )
