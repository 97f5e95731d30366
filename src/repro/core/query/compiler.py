"""Compilation of analyzed query templates into index specs, plans, and
maintenance rules.

The compiler is deliberately deterministic: the same template always produces
the same index layout and the same Figure-3 rows, which is what the F3
reproduction bench checks against the paper's table.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.query.analyzer import AnalyzedQuery
from repro.core.query.ast import Parameter, Predicate
from repro.core.query.plans import (
    CompiledQuery,
    CompiledStep,
    IndexSpec,
    MaintenanceRule,
    PrefixComponent,
    QueryPlan,
    RangeBound,
    ReverseIndexSpec,
)


class CompileError(ValueError):
    """Raised when an analyzed query cannot be compiled (internal invariant)."""


class QueryCompiler:
    """Turns :class:`AnalyzedQuery` objects into :class:`CompiledQuery` objects.

    The compiler also remembers every index it has produced so that the
    maintenance table can present cascading sources (an index whose base path
    is a strict prefix of a longer index's path, as the paper's Figure 3 does
    for the friends-of-friends index).
    """

    def __init__(self) -> None:
        self._compiled: Dict[str, CompiledQuery] = {}

    # ----------------------------------------------------------------- compile

    def compile(self, name: str, analyzed: AnalyzedQuery) -> CompiledQuery:
        """Compile an admitted query template under the given template name."""
        if not name:
            raise CompileError("query templates must be registered under a non-empty name")
        if name in self._compiled:
            raise CompileError(f"a query template named {name!r} is already registered")
        index_spec = self._build_index_spec(name, analyzed)
        reverse_indexes = self._build_reverse_indexes(analyzed, index_spec)
        self._attach_reverse_indexes(index_spec, analyzed, reverse_indexes)
        plan = self._build_plan(analyzed, index_spec)
        rules = self._build_maintenance_rules(analyzed, index_spec, reverse_indexes)
        compiled = CompiledQuery(
            name=name,
            index_spec=index_spec,
            plan=plan,
            maintenance_rules=rules,
            reverse_indexes=reverse_indexes,
            text=analyzed.template.text,
        )
        self._compiled[name] = compiled
        return compiled

    # --------------------------------------------------------------- index spec

    def _build_index_spec(self, name: str, analyzed: AnalyzedQuery) -> IndexSpec:
        anchor = analyzed.anchor
        final = analyzed.final
        sort_owner: Optional[str] = None
        sort_column: Optional[str] = None
        if analyzed.sort_column is not None:
            sort_alias, sort_column = analyzed.sort_column
            sort_owner = "anchor" if sort_alias == anchor.alias else "final"
        steps = [
            CompiledStep(
                entity=step.entity.name,
                join_from_column=step.join_from_column,
                join_to_column=step.join_to_column,
                forward_fanout=step.forward_fanout,
                reverse_fanout=step.reverse_fanout,
            )
            for step in analyzed.chain
        ]
        return IndexSpec(
            name=f"idx_{name}",
            anchor_entity=anchor.entity.name,
            anchor_column=analyzed.anchor_column,
            extra_anchor_columns=[column for column, _ in analyzed.extra_anchor_equalities],
            steps=steps,
            final_entity=final.entity.name,
            final_key_fields=list(final.entity.key_field_names),
            sort_owner=sort_owner,
            sort_column=sort_column,
            result_bound=analyzed.result_bound,
            update_work_bound=analyzed.update_work_bound,
        )

    # ---------------------------------------------------------- reverse indexes

    def _build_reverse_indexes(
        self, analyzed: AnalyzedQuery, index_spec: IndexSpec
    ) -> List[ReverseIndexSpec]:
        specs: List[ReverseIndexSpec] = []
        seen = set()
        for position, step in enumerate(analyzed.chain):
            if position == 0 or not step.reverse_needs_index:
                continue
            previous = analyzed.chain[position - 1]
            assert step.join_from_column is not None
            name = f"{previous.entity.name}_by_{step.join_from_column}"
            if name in seen:
                continue
            seen.add(name)
            specs.append(
                ReverseIndexSpec(
                    name=name,
                    entity=previous.entity.name,
                    column=step.join_from_column,
                )
            )
        return specs

    @staticmethod
    def _attach_reverse_indexes(
        index_spec: IndexSpec,
        analyzed: AnalyzedQuery,
        reverse_indexes: List[ReverseIndexSpec],
    ) -> None:
        by_entity_column = {(spec.entity, spec.column): spec.name for spec in reverse_indexes}
        updated_steps = []
        for position, step in enumerate(index_spec.steps):
            reverse_name = None
            if position > 0 and step.join_from_column is not None:
                previous_entity = index_spec.steps[position - 1].entity
                reverse_name = by_entity_column.get((previous_entity, step.join_from_column))
            updated_steps.append(
                CompiledStep(
                    entity=step.entity,
                    join_from_column=step.join_from_column,
                    join_to_column=step.join_to_column,
                    forward_fanout=step.forward_fanout,
                    reverse_fanout=step.reverse_fanout,
                    reverse_index=reverse_name,
                )
            )
        index_spec.steps = updated_steps

    # -------------------------------------------------------------------- plan

    def _build_plan(self, analyzed: AnalyzedQuery, index_spec: IndexSpec) -> QueryPlan:
        prefix = [PrefixComponent(kind="parameter", value=analyzed.anchor_parameter)]
        for _, value in analyzed.extra_anchor_equalities:
            if isinstance(value, Parameter):
                prefix.append(PrefixComponent(kind="parameter", value=value.name))
            else:
                prefix.append(PrefixComponent(kind="literal", value=value.value))
        range_bound = self._build_range_bound(analyzed.range_predicate)
        selected = self._selected_columns(analyzed)
        return QueryPlan(
            index_name=index_spec.name,
            prefix=prefix,
            range_bound=range_bound,
            limit=analyzed.limit,
            descending=analyzed.sort_descending,
            final_entity=index_spec.final_entity,
            final_key_length=len(index_spec.final_key_fields),
            selected_columns=selected,
        )

    @staticmethod
    def _build_range_bound(predicate: Optional[Predicate]) -> Optional[RangeBound]:
        if predicate is None:
            return None

        def component(value) -> PrefixComponent:
            if isinstance(value, Parameter):
                return PrefixComponent(kind="parameter", value=value.name)
            return PrefixComponent(kind="literal", value=value.value)

        if predicate.op == "between":
            return RangeBound(op="between", low=component(predicate.value),
                              high=component(predicate.value_high))
        if predicate.op in ("<", "<="):
            return RangeBound(op=predicate.op, high=component(predicate.value))
        if predicate.op in (">", ">="):
            return RangeBound(op=predicate.op, low=component(predicate.value))
        raise CompileError(f"unexpected range operator {predicate.op!r}")

    @staticmethod
    def _selected_columns(analyzed: AnalyzedQuery) -> List[str]:
        columns: List[str] = []
        for item in analyzed.template.select:
            if item.is_star:
                return []  # all fields of the final entity
            if item.column is not None:
                columns.append(item.column.column)
        return columns

    # --------------------------------------------------------------- maintenance

    def _build_maintenance_rules(
        self,
        analyzed: AnalyzedQuery,
        index_spec: IndexSpec,
        reverse_indexes: List[ReverseIndexSpec],
    ) -> List[MaintenanceRule]:
        # Gather, per entity, the non-key fields whose changes affect the index
        # key (join columns, anchor columns, sort column).  Key-field changes
        # are row inserts/deletes and are represented by "*".
        relevant_non_key: Dict[str, List[str]] = {}
        for position, step in enumerate(analyzed.chain):
            entity = step.entity
            columns = set()
            if position == 0:
                columns.add(analyzed.anchor_column)
                columns.update(column for column, _ in analyzed.extra_anchor_equalities)
            if step.join_to_column is not None:
                columns.add(step.join_to_column)
            if position + 1 < len(analyzed.chain):
                next_step = analyzed.chain[position + 1]
                if next_step.join_from_column is not None:
                    columns.add(next_step.join_from_column)
            if (
                analyzed.sort_column is not None
                and analyzed.sort_column[0] == step.alias
            ):
                columns.add(analyzed.sort_column[1])
            non_key = sorted(c for c in columns if not entity.is_key_field(c))
            relevant_non_key.setdefault(entity.name, [])
            for column in non_key:
                if column not in relevant_non_key[entity.name]:
                    relevant_non_key[entity.name].append(column)

        # A final entity that is a pure pointer target (joined on its full key,
        # no sort field in the index key) needs no maintenance rule at all:
        # the index only stores a pointer to it, so its own changes never move
        # existing entries.  This reproduces Figure 3, which has no
        # "friends of friends index / profiles" row.
        pointer_target: Optional[str] = None
        if len(analyzed.chain) > 1:
            final_step = analyzed.chain[-1]
            sort_on_final = (
                analyzed.sort_column is not None
                and analyzed.sort_column[0] == final_step.alias
            )
            final_appears_earlier = any(
                step.entity.name == final_step.entity.name
                for step in analyzed.chain[:-1]
            )
            if (
                final_step.forward_fanout == 1
                and not sort_on_final
                and not final_appears_earlier
                and not relevant_non_key.get(final_step.entity.name)
            ):
                pointer_target = final_step.entity.name

        rules: List[MaintenanceRule] = []
        seen: set = set()
        for step in analyzed.chain:
            entity_name = step.entity.name
            if entity_name in seen or entity_name == pointer_target:
                continue
            seen.add(entity_name)
            non_key = relevant_non_key.get(entity_name, [])
            cascade_source = self._cascade_source(entity_name, index_spec)
            if non_key:
                # Only changes to these specific fields (including setting them
                # at row insert time) can move the entity's contribution to the
                # index key — Figure 3's "profiles / birthday" row.
                for column in non_key:
                    rules.append(
                        MaintenanceRule(
                            index_name=index_spec.name,
                            table=entity_name,
                            field=column,
                            source=cascade_source,
                        )
                    )
            else:
                # Every relevant column is a key column, so any insert/delete
                # of a row changes the set of join paths — Figure 3's "*" rows.
                rules.append(
                    MaintenanceRule(
                        index_name=index_spec.name,
                        table=entity_name,
                        field="*",
                        source=cascade_source,
                    )
                )
        for reverse in reverse_indexes:
            rules.append(
                MaintenanceRule(index_name=reverse.name, table=reverse.entity, field="*")
            )
        return rules

    def _cascade_source(self, entity_name: str, index_spec: IndexSpec) -> Optional[str]:
        """Name of an existing narrower index over the same base entity path.

        Reproduces the paper's Figure-3 presentation where the
        friends-of-friends index is listed as maintained from the friend
        index: when an index's join path traverses the same entity more than
        once (friendships twice for friends-of-friends) and a previously
        compiled, shorter index materialises exactly that entity's per-anchor
        rows, report that index as the cascade source.  Actual maintenance
        still recomputes from base tables (see
        ``repro.core.index.maintenance``), so this is reporting only.
        """
        occurrences = sum(1 for step in index_spec.steps if step.entity == entity_name)
        if occurrences < 2:
            return None
        for other in self._compiled.values():
            other_spec = other.index_spec
            if other_spec.name == index_spec.name:
                continue
            if (
                other_spec.anchor_entity == entity_name
                and other_spec.anchor_entity == index_spec.anchor_entity
                and len(other_spec.steps) < len(index_spec.steps)
                and other_spec.final_entity == entity_name
            ):
                return other_spec.name
        return None
