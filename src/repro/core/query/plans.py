"""Compiled artefacts: index specifications, query plans, maintenance rules.

A compiled query template yields

* an :class:`IndexSpec` — the materialised view that will answer the query,
* a :class:`QueryPlan` — how to turn bound parameters into one bounded
  contiguous range read of that index (plus bounded pointer dereferences),
* a list of :class:`MaintenanceRule` — the Figure-3 table rows saying which
  base-table changes must update the index, and
* zero or more :class:`ReverseIndexSpec` — auxiliary single-table indexes the
  maintenance engine needs for bounded reverse traversals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Any, List, Optional, Tuple

INDEX_NAMESPACE_PREFIX = "index:"
REVERSE_NAMESPACE_PREFIX = "revidx:"
ENTITY_NAMESPACE_PREFIX = "entity:"


# Each namespace string is built once per name: every routed write, in-flight
# replica update, event name and store lookup then shares one object.
@cache
def entity_namespace(entity_name: str) -> str:
    """Storage namespace for an entity set."""
    return ENTITY_NAMESPACE_PREFIX + entity_name


@cache
def index_namespace(index_name: str) -> str:
    """Storage namespace for a query index."""
    return INDEX_NAMESPACE_PREFIX + index_name


@cache
def reverse_index_namespace(name: str) -> str:
    """Storage namespace for an auxiliary reverse index."""
    return REVERSE_NAMESPACE_PREFIX + name


@dataclass(frozen=True)
class CompiledStep:
    """One hop of the index's join path (mirrors the analyzer's ChainStep)."""

    entity: str
    join_from_column: Optional[str]
    join_to_column: Optional[str]
    forward_fanout: int
    reverse_fanout: int
    reverse_index: Optional[str] = None  # name of the auxiliary reverse index, if needed


@dataclass(frozen=True)
class ReverseIndexSpec:
    """An auxiliary index of ``entity`` keyed by ``column`` then the entity key.

    Needed when index maintenance must answer "which rows of ``entity`` have
    ``column`` = v?" and ``column`` is not the entity's leading key field.
    """

    name: str
    entity: str
    column: str

    @property
    def namespace(self) -> str:
        return reverse_index_namespace(self.name)


@dataclass(frozen=True)
class MaintenanceRule:
    """One row of the paper's Figure-3 maintenance table.

    ``field`` is ``"*"`` when any change to the table (insert/update/delete)
    can affect the index, or a specific field name when only changes to that
    field matter (e.g. ``profiles.birthday`` for the birthday index).
    ``source`` optionally names a narrower registered index that the rule's
    table is itself the base of (the paper's cascading-index presentation of
    the friends-of-friends row).
    """

    index_name: str
    table: str
    field: str
    source: Optional[str] = None

    def display_table(self) -> str:
        """The table name as Figure 3 would print it (cascade source if any)."""
        return self.source if self.source is not None else self.table


@dataclass
class IndexSpec:
    """A materialised view answering one query template.

    Index keys are laid out as::

        (anchor_value, extra_anchor_values..., [sort_value], final_key...)

    and the stored value is the plain ``int`` *n* — the number of distinct
    join paths producing the entry, which keeps incremental maintenance
    correct when multiple paths reach the same (anchor, final) pair.
    """

    name: str
    anchor_entity: str
    anchor_column: str
    extra_anchor_columns: List[str]
    steps: List[CompiledStep]
    final_entity: str
    final_key_fields: List[str]
    sort_owner: Optional[str]  # "anchor" or "final"
    sort_column: Optional[str]
    result_bound: int
    update_work_bound: int

    @property
    def namespace(self) -> str:
        return index_namespace(self.name)

    @property
    def has_sort(self) -> bool:
        return self.sort_column is not None

    def entities(self) -> List[str]:
        """Distinct entity names along the path, anchor first."""
        seen: List[str] = []
        for step in self.steps:
            if step.entity not in seen:
                seen.append(step.entity)
        return seen


@dataclass(frozen=True)
class PrefixComponent:
    """One component of the query plan's index-key prefix."""

    kind: str  # "parameter" or "literal"
    value: Any  # parameter name or literal value


@dataclass(frozen=True)
class RangeBound:
    """A bound on the sort component of the index key."""

    op: str  # '<', '<=', '>', '>=', 'between'
    low: Optional[PrefixComponent] = None
    high: Optional[PrefixComponent] = None


@dataclass
class QueryPlan:
    """How to execute a compiled query: one bounded range read + dereferences.

    A plan is compiled once and executed per query, so what execution needs
    from the fields in another shape is derived when the plan is built:
    ``namespace`` (the index's storage namespace) and ``prefix_binding`` (per
    prefix component, whether it names a parameter, and the parameter name or
    the literal).
    """

    index_name: str
    prefix: List[PrefixComponent]
    range_bound: Optional[RangeBound]
    limit: Optional[int]
    descending: bool
    final_entity: str
    final_key_length: int
    selected_columns: List[str] = field(default_factory=list)  # empty = all fields
    namespace: str = field(init=False, compare=False)
    prefix_binding: Tuple[Tuple[bool, Any], ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        self.namespace = index_namespace(self.index_name)
        self.prefix_binding = tuple(
            (component.kind == "parameter", component.value) for component in self.prefix)


@dataclass
class CompiledQuery:
    """Everything produced by compiling one admitted query template."""

    name: str
    index_spec: IndexSpec
    plan: QueryPlan
    maintenance_rules: List[MaintenanceRule]
    reverse_indexes: List[ReverseIndexSpec]
    text: str = ""
