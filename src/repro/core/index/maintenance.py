"""Incremental index maintenance.

For a single base-table write (insert, update, or delete of one row) the
maintainer computes the set of index entries whose support changes.  The work
is bounded by the product of the declared cardinality bounds along the
query's join chain — the quantity the analyzer already checked against the
admission cap — so every maintenance invocation is O(K) as the paper requires.

Entries carry a *support count* (how many distinct join paths produce them),
which keeps incremental maintenance correct when several paths lead to the
same (anchor, final) pair — e.g. two mutual friends both connecting a user to
the same friend-of-friend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Protocol, Set, Tuple

from repro.core.query.plans import (
    CompiledQuery,
    IndexSpec,
    ReverseIndexSpec,
    )
from repro.core.schema import EntitySchema, SchemaRegistry
from repro.storage.records import Key


class StorageAdapter(Protocol):
    """The storage operations index maintenance needs.

    The SCADS engine implements this against the router (so maintenance work
    consumes real simulated cluster capacity); unit tests implement it with
    plain dictionaries.
    """

    def entity_rows_by_prefix(self, entity: str, prefix: Key) -> List[Mapping[str, Any]]:
        """All rows of ``entity`` whose key starts with ``prefix``, as stored."""

    def entity_row(self, entity: str, key: Key) -> Optional[Mapping[str, Any]]:
        """One row of ``entity`` by full key, as stored, or None."""

    def reverse_keys(self, reverse_index: str, value: Any) -> List[Key]:
        """Entity keys recorded in a reverse index under ``value``."""

    def adjust_index_support(self, namespace: str, key: Key, delta: int) -> None:
        """Add ``delta`` to an index entry's support count (delete at <= 0)."""

    def put_reverse_entry(self, namespace: str, key: Key) -> None:
        """Insert an entry into an auxiliary reverse index (support 1)."""

    def delete_reverse_entry(self, namespace: str, key: Key) -> None:
        """Remove an entry from an auxiliary reverse index."""


@dataclass(frozen=True, slots=True)
class EntityWrite:
    """One base-table write: the row before and after.

    ``old_row is None`` for inserts, ``new_row is None`` for deletes.  One is
    queued per maintenance task (set-up holds up to ``LOAD_FLUSH_EVERY``
    before each flush), so it is slotted: no per-instance ``__dict__``.
    """

    entity: str
    old_row: Optional[Mapping[str, Any]]
    new_row: Optional[Mapping[str, Any]]

    def __post_init__(self) -> None:
        if self.old_row is None and self.new_row is None:
            raise ValueError("an entity write needs at least one of old_row / new_row")

    def changed_fields(self) -> Set[str]:
        """Fields whose value differs between old and new rows."""
        old = self.old_row or {}
        new = self.new_row or {}
        fields = set(old) | set(new)
        return {f for f in fields if old.get(f) != new.get(f)}

    @property
    def is_insert(self) -> bool:
        return self.old_row is None

    @property
    def is_delete(self) -> bool:
        return self.new_row is None


@dataclass(slots=True)
class MaintenanceResult:
    """What one maintenance invocation did (for bounded-work accounting).

    One is allocated per maintenance task, so it is slotted like
    :class:`EntityWrite`."""

    index_ops: int = 0
    lookup_ops: int = 0

    @property
    def total_ops(self) -> int:
        return self.index_ops + self.lookup_ops


class IndexMaintainer:
    """Applies the compiled maintenance rules for every registered query."""

    def __init__(self, registry: SchemaRegistry, storage: StorageAdapter) -> None:
        self._registry = registry
        self._storage = storage
        self._reverse_indexes: Dict[str, ReverseIndexSpec] = {}
        # entity name -> reverse index specs that index it
        self._reverse_by_entity: Dict[str, List[ReverseIndexSpec]] = {}
        # entity name -> compiled queries whose chain contains it
        self._queries_by_entity: Dict[str, List[CompiledQuery]] = {}

    # ------------------------------------------------------------- registration

    def register(self, compiled: CompiledQuery) -> None:
        """Register a compiled query so its index is maintained from now on."""
        for reverse in compiled.reverse_indexes:
            if reverse.name not in self._reverse_indexes:
                self._reverse_indexes[reverse.name] = reverse
                self._reverse_by_entity.setdefault(reverse.entity, []).append(reverse)
        for entity in compiled.index_spec.entities():
            self._queries_by_entity.setdefault(entity, []).append(compiled)

    # -------------------------------------------------------------- maintenance

    def relevant_indexes(self, write: EntityWrite) -> List[CompiledQuery]:
        """The compiled queries whose maintenance rules match this write.

        Dispatch follows the Figure-3 table: a rule with field ``"*"`` fires
        on any write to its table, a field-specific rule only when that field
        changed.
        """
        changed = write.changed_fields()
        matched = []
        for compiled in self._queries_by_entity.get(write.entity, []):
            for rule in compiled.maintenance_rules:
                if rule.table != write.entity or rule.index_name != compiled.index_spec.name:
                    continue
                if rule.field == "*" or rule.field in changed or write.is_insert or write.is_delete:
                    matched.append(compiled)
                    break
        return matched

    def apply(self, write: EntityWrite) -> MaintenanceResult:
        """Compute and apply every index change implied by one base-table write."""
        result = MaintenanceResult()
        self._maintain_reverse_indexes(write, result)
        for compiled in self.relevant_indexes(write):
            self._maintain_query_index(compiled.index_spec, write, result)
        return result

    # ------------------------------------------------------ reverse index upkeep

    def _maintain_reverse_indexes(self, write: EntityWrite, result: MaintenanceResult) -> None:
        specs = self._reverse_by_entity.get(write.entity, [])
        if not specs:
            return
        schema = self._registry.entity(write.entity)
        for spec in specs:
            old_key = self._reverse_key(spec, schema, write.old_row)
            new_key = self._reverse_key(spec, schema, write.new_row)
            if old_key == new_key:
                continue
            if old_key is not None:
                self._storage.delete_reverse_entry(spec.namespace, old_key)
                result.index_ops += 1
            if new_key is not None:
                self._storage.put_reverse_entry(spec.namespace, new_key)
                result.index_ops += 1

    @staticmethod
    def _reverse_key(
        spec: ReverseIndexSpec, schema: EntitySchema, row: Optional[Mapping[str, Any]]
    ) -> Optional[Key]:
        if row is None:
            return None
        value = row.get(spec.column)
        if value is None:
            return None
        return (value,) + schema.storage_key(row)

    # --------------------------------------------------------- query index upkeep

    def _maintain_query_index(
        self, spec: IndexSpec, write: EntityWrite, result: MaintenanceResult
    ) -> None:
        old_entries: Set[Key] = set()
        new_entries: Set[Key] = set()
        for position, step in enumerate(spec.steps):
            if step.entity != write.entity:
                continue
            if write.old_row is not None:
                old_entries |= self._entries_through(spec, position, write.old_row, result)
            if write.new_row is not None:
                new_entries |= self._entries_through(spec, position, write.new_row, result)
        for key in new_entries - old_entries:
            self._storage.adjust_index_support(spec.namespace, key, +1)
            result.index_ops += 1
        for key in old_entries - new_entries:
            self._storage.adjust_index_support(spec.namespace, key, -1)
            result.index_ops += 1

    def _entries_through(
        self,
        spec: IndexSpec,
        position: int,
        row: Mapping[str, Any],
        result: MaintenanceResult,
    ) -> Set[Key]:
        """Index entries whose join path passes through ``row`` at ``position``."""
        anchor_rows = self._walk_backward(spec, position, row, result)
        if not anchor_rows:
            return set()
        final_rows = self._walk_forward(spec, position, row, result)
        if not final_rows:
            return set()
        final_schema = self._registry.entity(spec.final_entity)
        entries: Set[Key] = set()
        for anchor_row in anchor_rows:
            prefix = self._anchor_prefix(spec, anchor_row)
            if prefix is None:
                continue
            for final_row in final_rows:
                sort_part: Tuple = ()
                if spec.has_sort:
                    owner_row = anchor_row if spec.sort_owner == "anchor" else final_row
                    sort_value = owner_row.get(spec.sort_column)
                    if sort_value is None:
                        continue
                    sort_part = (sort_value,)
                final_key = final_schema.storage_key(final_row)
                entries.add(prefix + sort_part + final_key)
        return entries

    def _anchor_prefix(self, spec: IndexSpec, anchor_row: Mapping[str, Any]) -> Optional[Key]:
        values = []
        for column in [spec.anchor_column] + list(spec.extra_anchor_columns):
            value = anchor_row.get(column)
            if value is None:
                return None
            values.append(value)
        return tuple(values)

    def _walk_backward(
        self,
        spec: IndexSpec,
        position: int,
        row: Mapping[str, Any],
        result: MaintenanceResult,
    ) -> List[Mapping[str, Any]]:
        """Rows of the anchor entity reachable backwards from ``row``."""
        current = [row]
        for level in range(position, 0, -1):
            step = spec.steps[level]
            previous_step = spec.steps[level - 1]
            previous_schema = self._registry.entity(previous_step.entity)
            next_rows: List[Mapping[str, Any]] = []
            for r in current:
                join_value = r.get(step.join_to_column)
                if join_value is None:
                    continue
                next_rows.extend(
                    self._previous_rows_matching(
                        previous_schema, step.join_from_column, join_value,
                        step.reverse_index, result,
                    )
                )
            current = next_rows
            if not current:
                break
        return current

    def _previous_rows_matching(
        self,
        schema: EntitySchema,
        column: Optional[str],
        value: Any,
        reverse_index: Optional[str],
        result: MaintenanceResult,
    ) -> List[Mapping[str, Any]]:
        assert column is not None
        if schema.is_key_field(column) and schema.key_position(column) == 0:
            result.lookup_ops += 1
            return self._storage.entity_rows_by_prefix(schema.name, (value,))
        if reverse_index is None:
            raise RuntimeError(
                f"maintenance for {schema.name}.{column} needs a reverse index but the "
                f"compiler did not produce one"
            )

        keys = self._storage.reverse_keys(reverse_index, value)
        result.lookup_ops += 1 + len(keys)
        rows = []
        for key in keys:
            row = self._storage.entity_row(schema.name, key)
            if row is not None:
                rows.append(row)
        return rows

    def _walk_forward(
        self,
        spec: IndexSpec,
        position: int,
        row: Mapping[str, Any],
        result: MaintenanceResult,
    ) -> List[Mapping[str, Any]]:
        """Rows of the final entity reachable forwards from ``row``."""
        current = [row]
        for level in range(position + 1, len(spec.steps)):
            step = spec.steps[level]
            schema = self._registry.entity(step.entity)
            previous_step = spec.steps[level - 1]
            next_rows: List[Mapping[str, Any]] = []
            for r in current:
                join_value = r.get(step.join_from_column)
                if join_value is None:
                    continue
                result.lookup_ops += 1
                next_rows.extend(self._storage.entity_rows_by_prefix(schema.name, (join_value,)))
            current = next_rows
            if not current:
                break
        return current
