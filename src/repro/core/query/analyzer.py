"""Semantic analysis and scale-independence checking of query templates.

This is where SCADS enforces the paper's central restriction: a query is
admitted only if

* it can be answered by a lookup over a **bounded contiguous range** of one
  pre-computed index (Section 3.1), and
* maintaining that index costs **O(K)** work per base-table update for an
  application constant K (Section 3.2).

The analyzer resolves the template against the schema, arranges its tables
into a linear join chain anchored at the parameterised equality predicate,
computes read-work and update-work bounds from the declared cardinality
bounds, and rejects anything whose bounds do not exist or exceed the
configured limits.  Every rejection carries a :class:`RejectionReason` so the
admission experiment (E2) can report *why* each template was refused — the
"introspective" part of the paper's query interface.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.query.ast import (
    ColumnRef,
    Literal,
    Parameter,
    Predicate,
    QueryTemplate,
)
from repro.core.schema import EntitySchema, SchemaRegistry


class RejectionReason(enum.Enum):
    """Machine-readable reasons a query template can be refused."""

    UNKNOWN_ENTITY = "unknown_entity"
    UNKNOWN_COLUMN = "unknown_column"
    UNKNOWN_ALIAS = "unknown_alias"
    NO_PARAMETERISED_EQUALITY = "no_parameterised_equality"
    MULTIPLE_ANCHORS = "multiple_anchors"
    ANCHOR_NOT_KEY_PREFIX = "anchor_not_key_prefix"
    PARAMETER_OFF_ANCHOR = "parameter_off_anchor"
    NON_LINEAR_JOIN = "non_linear_join"
    JOIN_NOT_KEY_PREFIX = "join_not_key_prefix"
    UNBOUNDED_ANCHOR = "unbounded_anchor"
    UNBOUNDED_JOIN = "unbounded_join"
    UNBOUNDED_REVERSE_TRAVERSAL = "unbounded_reverse_traversal"
    RANGE_NOT_ON_SORT = "range_not_on_sort"
    MULTIPLE_RANGE_PREDICATES = "multiple_range_predicates"
    ORDER_BY_OFF_CHAIN_END = "order_by_off_chain_end"
    READ_WORK_UNBOUNDED = "read_work_unbounded"
    READ_WORK_EXCEEDED = "read_work_exceeded"
    UPDATE_WORK_EXCEEDED = "update_work_exceeded"
    RESIDUAL_FILTER = "residual_filter"


class QueryRejected(ValueError):
    """Raised when a template fails scale-independence analysis."""

    def __init__(self, reason: RejectionReason, message: str) -> None:
        super().__init__(f"[{reason.value}] {message}")
        self.reason = reason
        self.message = message


@dataclass
class ChainStep:
    """One entity in the linear join chain.

    ``forward_fanout`` bounds how many rows of this entity one row of the
    previous entity (or one anchor parameter value, for step 0) can reach.
    ``reverse_fanout`` bounds the opposite direction, which is what index
    maintenance traverses when a row of a *later* entity changes.
    ``reverse_needs_index`` is True when the reverse traversal cannot use the
    entity's own primary key and an auxiliary reverse index must be built.
    """

    alias: str
    entity: EntitySchema
    join_from_column: Optional[str]  # column on the previous entity (None at step 0)
    join_to_column: Optional[str]  # column on this entity (anchor column at step 0)
    forward_fanout: int
    reverse_fanout: int = 1
    reverse_needs_index: bool = False


@dataclass
class AnalyzedQuery:
    """The analyzer's output: everything the compiler needs."""

    template: QueryTemplate
    chain: List[ChainStep]
    anchor_parameter: str
    anchor_column: str
    extra_anchor_equalities: List[Tuple[str, Union[Parameter, Literal]]]
    sort_column: Optional[Tuple[str, str]]  # (alias, column)
    sort_descending: bool
    range_predicate: Optional[Predicate]
    limit: Optional[int]
    result_bound: int
    read_work_bound: int
    update_work_bound: int

    @property
    def anchor(self) -> ChainStep:
        return self.chain[0]

    @property
    def final(self) -> ChainStep:
        return self.chain[-1]


class QueryAnalyzer:
    """Checks templates against the schema and the scale-independence rules.

    Args:
        registry: the application's schema registry.
    """

    # Largest admissible per-query read cost (index entries touched): the
    # paper's "constant cost per user" K for reads.
    max_read_work = 10_000
    # Largest admissible per-update maintenance cost (lookups plus index
    # writes): the paper's O(K) for updates.
    max_update_work = 50_000

    def __init__(self, registry: SchemaRegistry) -> None:
        self.registry = registry

    # ----------------------------------------------------------------- analyse

    def analyze(self, template: QueryTemplate) -> AnalyzedQuery:
        """Analyse a parsed template; raises :class:`QueryRejected` on failure."""
        alias_to_entity = self._resolve_aliases(template)
        predicates_by_alias = self._resolve_predicates(template, alias_to_entity)
        anchor_alias, anchor_column, anchor_parameter, extra_equalities = self._find_anchor(
            template, alias_to_entity, predicates_by_alias
        )
        chain = self._build_chain(template, alias_to_entity, anchor_alias, anchor_column)
        sort_column, sort_descending = self._resolve_sort(template, alias_to_entity, chain)
        range_predicate, sort_column = self._classify_predicates(
            template, alias_to_entity, anchor_alias, anchor_column,
            extra_equalities, sort_column, chain,
        )
        sort_on_final = (
            sort_column is not None
            and len(chain) > 1
            and sort_column[0] == chain[-1].alias
        )
        result_bound, read_work, update_work = self._compute_bounds(
            chain, template.limit, sort_on_final
        )
        self._enforce_bounds(result_bound, read_work, update_work, template)
        return AnalyzedQuery(
            template=template,
            chain=chain,
            anchor_parameter=anchor_parameter,
            anchor_column=anchor_column,
            extra_anchor_equalities=extra_equalities,
            sort_column=sort_column,
            sort_descending=sort_descending,
            range_predicate=range_predicate,
            limit=template.limit,
            result_bound=result_bound,
            read_work_bound=read_work,
            update_work_bound=update_work,
        )

    # ------------------------------------------------------------- resolution

    def _resolve_aliases(self, template: QueryTemplate) -> Dict[str, EntitySchema]:
        alias_to_entity: Dict[str, EntitySchema] = {}
        for alias, table in template.aliases().items():
            if not self.registry.has_entity(table):
                raise QueryRejected(
                    RejectionReason.UNKNOWN_ENTITY,
                    f"query references unknown entity {table!r}",
                )
            alias_to_entity[alias] = self.registry.entity(table)
        return alias_to_entity

    def _resolve_column(
        self,
        column: ColumnRef,
        alias_to_entity: Dict[str, EntitySchema],
        context: str,
    ) -> Tuple[str, EntitySchema, str]:
        """Resolve a column reference to (alias, entity, column name)."""
        if column.table_alias is not None:
            if column.table_alias not in alias_to_entity:
                raise QueryRejected(
                    RejectionReason.UNKNOWN_ALIAS,
                    f"{context}: unknown table alias {column.table_alias!r}",
                )
            entity = alias_to_entity[column.table_alias]
            if not entity.has_field(column.column):
                raise QueryRejected(
                    RejectionReason.UNKNOWN_COLUMN,
                    f"{context}: entity {entity.name!r} has no field {column.column!r}",
                )
            return column.table_alias, entity, column.column
        # Bare column: find the unique alias whose entity has the field.
        owners = [
            (alias, entity)
            for alias, entity in alias_to_entity.items()
            if entity.has_field(column.column)
        ]
        if not owners:
            raise QueryRejected(
                RejectionReason.UNKNOWN_COLUMN,
                f"{context}: no table in the query has a field {column.column!r}",
            )
        if len(owners) > 1:
            raise QueryRejected(
                RejectionReason.UNKNOWN_COLUMN,
                f"{context}: field {column.column!r} is ambiguous across "
                f"{sorted(alias for alias, _ in owners)}",
            )
        alias, entity = owners[0]
        return alias, entity, column.column

    def _resolve_predicates(
        self,
        template: QueryTemplate,
        alias_to_entity: Dict[str, EntitySchema],
    ) -> Dict[str, List[Tuple[str, Predicate]]]:
        """Group predicates by the alias they constrain (validating columns)."""
        grouped: Dict[str, List[Tuple[str, Predicate]]] = {}
        for predicate in template.where:
            alias, _, column = self._resolve_column(
                predicate.column, alias_to_entity, f"WHERE {predicate}"
            )
            grouped.setdefault(alias, []).append((column, predicate))
        return grouped

    # ----------------------------------------------------------------- anchor

    def _find_anchor(
        self,
        template: QueryTemplate,
        alias_to_entity: Dict[str, EntitySchema],
        predicates_by_alias: Dict[str, List[Tuple[str, Predicate]]],
    ) -> Tuple[str, str, str, List[Tuple[str, Union[Parameter, Literal]]]]:
        """Locate the anchor: the parameterised equality that seeds the index prefix."""
        anchored_aliases: Dict[str, List[Tuple[str, Predicate]]] = {}
        for alias, items in predicates_by_alias.items():
            parameterised = [
                (column, predicate)
                for column, predicate in items
                if predicate.is_equality and isinstance(predicate.value, Parameter)
            ]
            if parameterised:
                anchored_aliases[alias] = parameterised
        if not anchored_aliases:
            raise QueryRejected(
                RejectionReason.NO_PARAMETERISED_EQUALITY,
                "the template has no parameterised equality predicate, so its result "
                "set would grow with the total user population",
            )
        if len(anchored_aliases) > 1:
            raise QueryRejected(
                RejectionReason.MULTIPLE_ANCHORS,
                f"parameterised equality predicates appear on multiple tables "
                f"({sorted(anchored_aliases)}); SCADS indexes are anchored at one table",
            )
        anchor_alias = next(iter(anchored_aliases))
        entity = alias_to_entity[anchor_alias]
        parameterised = anchored_aliases[anchor_alias]
        # All parameterised equalities must sit on a prefix of the primary key.
        columns = [column for column, _ in parameterised]
        positions = []
        for column in columns:
            if not entity.is_key_field(column):
                raise QueryRejected(
                    RejectionReason.ANCHOR_NOT_KEY_PREFIX,
                    f"anchor column {column!r} is not a key field of {entity.name!r}; "
                    f"an index on it would grow without bound as users join",
                )
            positions.append(entity.key_position(column))
        positions_sorted = sorted(positions)
        if positions_sorted != list(range(len(positions_sorted))):
            raise QueryRejected(
                RejectionReason.ANCHOR_NOT_KEY_PREFIX,
                f"anchor columns {columns} do not form a prefix of {entity.name!r}'s key "
                f"{entity.key_field_names}",
            )
        # The primary anchor parameter is the first key column; further anchor
        # equalities (parameterised or literal) extend the prefix.
        by_position = sorted(zip(positions, parameterised), key=lambda item: item[0])
        primary_column, primary_predicate = by_position[0][1]
        assert isinstance(primary_predicate.value, Parameter)
        extras: List[Tuple[str, Union[Parameter, Literal]]] = [
            (column, predicate.value) for _, (column, predicate) in by_position[1:]
        ]
        # Parameterised equalities on any other alias are not supported.
        for alias, items in predicates_by_alias.items():
            if alias == anchor_alias:
                continue
            for column, predicate in items:
                if predicate.is_parameterised and predicate.is_equality:
                    raise QueryRejected(
                        RejectionReason.PARAMETER_OFF_ANCHOR,
                        f"parameterised equality on {alias}.{column} is not on the anchor table",
                    )
        return anchor_alias, primary_column, primary_predicate.value.name, extras

    # ------------------------------------------------------------------- chain

    def _build_chain(
        self,
        template: QueryTemplate,
        alias_to_entity: Dict[str, EntitySchema],
        anchor_alias: str,
        anchor_column: str,
    ) -> List[ChainStep]:
        anchor_entity = alias_to_entity[anchor_alias]
        anchor_fanout = anchor_entity.rows_per_value_bound(anchor_column)
        if anchor_fanout is None:
            raise QueryRejected(
                RejectionReason.UNBOUNDED_ANCHOR,
                f"entity {anchor_entity.name!r} declares no bound on rows per "
                f"{anchor_column!r} value; declare max_per_partition (the paper's "
                f"application constant K) to admit this template",
            )
        chain = [
            ChainStep(
                alias=anchor_alias,
                entity=anchor_entity,
                join_from_column=None,
                join_to_column=anchor_column,
                forward_fanout=anchor_fanout,
            )
        ]
        remaining = list(template.joins)
        in_chain = {anchor_alias}
        while remaining:
            tail = chain[-1]
            progressed = False
            for join in list(remaining):
                left_alias, left_entity, left_column = self._resolve_column(
                    join.left, alias_to_entity, f"{join}"
                )
                right_alias, right_entity, right_column = self._resolve_column(
                    join.right, alias_to_entity, f"{join}"
                )
                if left_alias == tail.alias and right_alias not in in_chain:
                    from_column, new_alias, new_entity, to_column = (
                        left_column, right_alias, right_entity, right_column
                    )
                elif right_alias == tail.alias and left_alias not in in_chain:
                    from_column, new_alias, new_entity, to_column = (
                        right_column, left_alias, left_entity, left_column
                    )
                else:
                    continue
                chain.append(self._make_step(tail, from_column, new_alias, new_entity, to_column))
                in_chain.add(new_alias)
                remaining.remove(join)
                progressed = True
                break
            if not progressed:
                raise QueryRejected(
                    RejectionReason.NON_LINEAR_JOIN,
                    "the JOIN clauses do not form a single linear chain starting at the "
                    "anchor table; SCADS pre-computed indexes materialise linear paths",
                )
        return chain

    def _make_step(
        self,
        tail: ChainStep,
        from_column: str,
        new_alias: str,
        new_entity: EntitySchema,
        to_column: str,
    ) -> ChainStep:
        # Forward traversal: previous-entity row -> rows of the new entity.
        if not new_entity.is_key_field(to_column) or new_entity.key_position(to_column) != 0:
            raise QueryRejected(
                RejectionReason.JOIN_NOT_KEY_PREFIX,
                f"join column {new_entity.name}.{to_column} is not the leading key "
                f"field, so the forward lookup is not a bounded contiguous range",
            )
        forward = new_entity.rows_per_value_bound(to_column)
        if forward is None:
            raise QueryRejected(
                RejectionReason.UNBOUNDED_JOIN,
                f"entity {new_entity.name!r} declares no bound on rows per "
                f"{to_column!r} value (the Twitter-follower case); this join's fan-out "
                f"grows with the user population",
            )
        # Reverse traversal (used by index maintenance): new-entity row -> rows
        # of the previous entity whose `from_column` matches.
        reverse = tail.entity.rows_per_value_bound(from_column)
        if reverse is None:
            raise QueryRejected(
                RejectionReason.UNBOUNDED_REVERSE_TRAVERSAL,
                f"entity {tail.entity.name!r} declares no bound on rows per "
                f"{from_column!r} value, so maintaining the index when "
                f"{new_entity.name!r} rows change would take unbounded work; declare a "
                f"column bound for {from_column!r}",
            )
        reverse_needs_index = not (
            tail.entity.is_key_field(from_column)
            and tail.entity.key_position(from_column) == 0
        )
        return ChainStep(
            alias=new_alias,
            entity=new_entity,
            join_from_column=from_column,
            join_to_column=to_column,
            forward_fanout=forward,
            reverse_fanout=reverse,
            reverse_needs_index=reverse_needs_index,
        )

    # -------------------------------------------------------------------- sort

    def _resolve_sort(
        self,
        template: QueryTemplate,
        alias_to_entity: Dict[str, EntitySchema],
        chain: List[ChainStep],
    ) -> Tuple[Optional[Tuple[str, str]], bool]:
        if template.order_by is None:
            return None, False
        alias, entity, column = self._resolve_column(
            template.order_by.column, alias_to_entity, f"{template.order_by}"
        )
        allowed_aliases = {chain[0].alias, chain[-1].alias}
        if alias not in allowed_aliases:
            raise QueryRejected(
                RejectionReason.ORDER_BY_OFF_CHAIN_END,
                f"ORDER BY {alias}.{column} refers to a mid-chain table; SCADS can only "
                f"embed a sort key from the anchor or final entity in the index",
            )
        return (alias, column), template.order_by.descending

    # -------------------------------------------------------------- predicates

    def _classify_predicates(
        self,
        template: QueryTemplate,
        alias_to_entity: Dict[str, EntitySchema],
        anchor_alias: str,
        anchor_column: str,
        extra_equalities: List[Tuple[str, Union[Parameter, Literal]]],
        sort_column: Optional[Tuple[str, str]],
        chain: List[ChainStep],
    ) -> Tuple[Optional[Predicate], Optional[Tuple[str, str]]]:
        """Split WHERE into the anchor prefix and one optional range; any other
        predicate is one the index key cannot answer."""
        extra_columns = {column for column, _ in extra_equalities}
        range_predicate: Optional[Predicate] = None
        for predicate in template.where:
            alias, _, column = self._resolve_column(
                predicate.column, alias_to_entity, f"WHERE {predicate}"
            )
            is_anchor_equality = (
                alias == anchor_alias
                and predicate.is_equality
                and (column == anchor_column or column in extra_columns)
                and isinstance(predicate.value, (Parameter, Literal))
                and predicate.is_parameterised
            )
            if is_anchor_equality:
                continue
            if predicate.op in ("<", "<=", ">", ">=", "between"):
                if range_predicate is not None:
                    raise QueryRejected(
                        RejectionReason.MULTIPLE_RANGE_PREDICATES,
                        "only one range predicate can be mapped onto a contiguous index range",
                    )
                if sort_column is None:
                    # The range column becomes the sort column if it sits on an
                    # admissible entity (anchor or final).
                    if alias not in {chain[0].alias, chain[-1].alias}:
                        raise QueryRejected(
                            RejectionReason.RANGE_NOT_ON_SORT,
                            f"range predicate on mid-chain column {alias}.{column} cannot "
                            f"be part of the index key",
                        )
                    sort_column = (alias, column)
                elif (alias, column) != sort_column:
                    raise QueryRejected(
                        RejectionReason.RANGE_NOT_ON_SORT,
                        f"range predicate on {alias}.{column} does not match the ORDER BY "
                        f"column {sort_column[0]}.{sort_column[1]}, so it cannot be a "
                        f"contiguous range of the same index",
                    )
                range_predicate = predicate
                continue
            # A filter off the index key would have to run after the range
            # read, and after a LIMIT that returns short pages.
            raise QueryRejected(
                RejectionReason.RESIDUAL_FILTER,
                f"filter {predicate} is neither the parameterised key prefix nor the "
                f"sort range, so the index key cannot answer it; filtering after the "
                f"bounded range read would return short pages",
            )
        return range_predicate, sort_column

    # ------------------------------------------------------------------ bounds

    def _compute_bounds(
        self, chain: List[ChainStep], limit: Optional[int], sort_on_final: bool
    ) -> Tuple[int, int, int]:
        result_bound = 1
        for step in chain:
            result_bound *= step.forward_fanout
        read_work = result_bound if limit is None else min(result_bound, limit)
        # Update work: for a change in chain entity k, maintenance walks
        # backwards to the anchor (product of reverse fan-outs) and forwards to
        # the final entity (product of forward fan-outs).  The admission bound
        # is the worst case over k.
        #
        # The final entity is exempt when it is a pure pointer target — joined
        # on its full primary key and contributing no sort field to the index
        # key.  Changes to such an entity never move existing index entries
        # (the index stores a pointer to it, exactly as Figure 3's
        # friends-of-friends row implies), so no maintenance is dispatched on
        # it and its huge backward product is irrelevant.
        update_work = 0
        last = len(chain) - 1
        for k in range(len(chain)):
            if (
                k == last
                and k > 0
                and chain[k].forward_fanout == 1
                and not sort_on_final
            ):
                continue
            backward = 1
            for j in range(1, k + 1):
                backward *= chain[j].reverse_fanout
            forward = 1
            for j in range(k + 1, len(chain)):
                forward *= chain[j].forward_fanout
            update_work = max(update_work, backward * forward)
        return result_bound, read_work, update_work

    def _enforce_bounds(
        self,
        result_bound: int,
        read_work: int,
        update_work: int,
        template: QueryTemplate,
    ) -> None:
        if template.limit is None and result_bound > self.max_read_work:
            raise QueryRejected(
                RejectionReason.READ_WORK_UNBOUNDED,
                f"the template's result bound is {result_bound} rows per execution and it "
                f"carries no LIMIT; add a LIMIT so each execution reads a bounded range "
                f"(admission cap is {self.max_read_work})",
            )
        if read_work > self.max_read_work:
            raise QueryRejected(
                RejectionReason.READ_WORK_EXCEEDED,
                f"per-execution read work {read_work} exceeds the admission cap "
                f"{self.max_read_work}",
            )
        if update_work > self.max_update_work:
            raise QueryRejected(
                RejectionReason.UPDATE_WORK_EXCEEDED,
                f"worst-case index maintenance work per base-table update is {update_work} "
                f"operations, exceeding the admission cap {self.max_update_work}; lower the "
                f"declared cardinality bounds or drop a join",
            )
