"""Execution of compiled query plans.

A plan executes as exactly one bounded contiguous range read of its index
(Section 3.1's guarantee) followed by at most ``limit``/``result_bound``
pointer dereferences of the final entity.  The executor is storage-agnostic:
each query hands it a :class:`QueryReader`, so the same code runs against the
engine's consistency-aware read path or a plain dict in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Protocol, Tuple

from repro.core.query.plans import PrefixComponent, QueryPlan, RangeBound
from repro.storage.records import Key, key_part_successor, prefix_bounds


class QueryReader(Protocol):
    """The storage one query reads through."""

    def range_read(
        self, namespace: str, start: Key, end: Key,
        limit: Optional[int], reverse: bool,
    ) -> Tuple[List[Tuple[Key, Any]], float]:
        """``(entries, latency)`` of one bounded scan: ``(key, stored value)``
        pairs in scan order, at most ``limit`` of them.  The executor reads
        only the keys."""

    def entity_get_many(
        self, entity: str, keys: List[Key],
    ) -> Tuple[Dict[Key, Optional[Mapping[str, Any]]], float]:
        """``(rows_by_key, slowest_latency)`` for a query's dereference list:
        the row (None when there is none) under every distinct key of
        ``keys``, and the latency of the slowest fetch — the fetches run in
        parallel, so that is what the list costs."""


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be executed (e.g. missing parameter)."""


def _missing_parameter(name: str) -> ExecutionError:
    return ExecutionError(f"missing query parameter {name!r}")


@dataclass(slots=True)
class QueryResult:
    """The rows a query returned plus what it cost to produce them."""

    rows: List[Mapping[str, Any]]
    latency: float
    index_entries_read: int
    dereferences: int

    def __len__(self) -> int:
        return len(self.rows)


class QueryExecutor:
    """Executes :class:`QueryPlan` objects against a :class:`QueryReader`."""

    def execute(self, plan: QueryPlan, params: Dict[str, Any],
                reader: QueryReader) -> QueryResult:
        """Run a plan with the given parameter bindings."""
        try:
            prefix = tuple([params[value] if is_parameter else value
                            for is_parameter, value in plan.prefix_binding])
        except KeyError as missing:
            raise _missing_parameter(missing.args[0]) from None
        start, end = prefix_bounds(prefix)
        if plan.range_bound is not None:
            start, end = self._bounded(plan.range_bound, prefix, start, end, params)
        entries, latency = reader.range_read(
            plan.namespace, start, end, plan.limit, plan.descending)
        rows: List[Mapping[str, Any]] = []
        dereferences = 0
        if entries:
            # The whole bounded list goes down in one call, letting the
            # storage layer collapse it into per-group multigets; the fetches
            # hit independent replica groups in parallel, so the list costs
            # its slowest fetch.  One dereference per index entry, duplicates
            # included; an entry whose entity has no row adds none.
            key_length = plan.final_key_length
            final_keys = [key[-key_length:] for key, _ in entries]
            rows_by_key, slowest = reader.entity_get_many(plan.final_entity, final_keys)
            rows = [row for key in final_keys
                    if (row := rows_by_key[key]) is not None]
            latency += slowest
            dereferences = len(final_keys)
        if plan.selected_columns:
            columns = plan.selected_columns
            rows = [{column: row.get(column) for column in columns} for row in rows]
        return QueryResult(rows, latency, len(entries), dereferences)

    # ------------------------------------------------------------------ binding

    @staticmethod
    def _bind_component(component: PrefixComponent, params: Dict[str, Any]) -> Any:
        if component.kind == "literal":
            return component.value
        if component.value not in params:
            raise _missing_parameter(component.value)
        return params[component.value]

    def _bounded(
        self,
        bound: RangeBound,
        prefix: Key,
        start: Key,
        end: Key,
        params: Dict[str, Any],
    ) -> Tuple[Key, Key]:
        """The prefix scan's ``(start, end)`` narrowed by a sort-column bound.

        Strict bounds are encoded directly into the key range: a ``>`` low
        bound starts the range at the successor of the bound value, and a
        ``<`` high bound ends it exactly at the bound value (exclusive), so no
        post-filtering is ever needed.
        """
        if bound.low is not None:
            low_value = self._bind_component(bound.low, params)
            if bound.op == ">":
                start = prefix + (key_part_successor(low_value),)
            else:  # '>=' or the low side of BETWEEN (inclusive)
                start = prefix + (low_value,)
        if bound.high is not None:
            high_value = self._bind_component(bound.high, params)
            if bound.op == "<":
                end = prefix + (high_value,)
            else:  # '<=' or the high side of BETWEEN (inclusive)
                end = prefix + (key_part_successor(high_value),)
        return start, end
