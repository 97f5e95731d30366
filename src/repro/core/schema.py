"""Entity schemas with declared cardinality bounds.

SCADS requires developers to declare, up front, how many rows any single
partition-key value may own (Facebook's 5 000-friend limit is the paper's
example).  :class:`EntitySchema` is the one place such bounds are declared:
``max_per_partition`` bounds the rows per partition-key value and
``column_bounds`` the rows per value of another column, and the query
analyzer multiplies exactly these to prove a template's cost is independent
of the total number of users (a join through an entity without a bound is
rejected).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


class SchemaError(ValueError):
    """Raised for invalid schema declarations or rows that violate them."""


class FieldType(enum.Enum):
    """Supported field types (key fields must be STRING, INT, or FLOAT)."""

    STRING = "string"
    INT = "int"
    FLOAT = "float"

    def python_types(self) -> Tuple[type, ...]:
        if self is FieldType.STRING:
            return (str,)
        if self is FieldType.INT:
            return (int,)
        return (int, float)


@dataclass(frozen=True)
class Field:
    """One typed field of an entity."""

    name: str
    field_type: FieldType = FieldType.STRING

    def __post_init__(self) -> None:
        # Accepted types are fixed per field; cache the tuple so per-row
        # validation does not re-derive it (frozen dataclass, hence setattr).
        object.__setattr__(self, "_accepted_types", self.field_type.python_types())

    def validate(self, value: Any) -> None:
        """Check a value against the field type (None is allowed for non-key fields)."""
        if value is None:
            return
        if isinstance(value, bool) or not isinstance(value, self._accepted_types):
            raise SchemaError(
                f"field {self.name!r} expects {self.field_type.value}, "
                f"got {type(value).__name__}: {value!r}"
            )


@dataclass
class EntitySchema:
    """One entity set (table) stored in SCADS.

    Args:
        name: entity-set name, also the storage namespace.
        key_fields: ordered primary-key fields; the first is the partition key.
        value_fields: non-key fields.
        max_per_partition: bound on rows sharing the same partition-key value
            (None means unbounded — allowed for storage, but queries that need
            to enumerate the partition will be rejected unless they carry a
            LIMIT).
        column_bounds: optional bounds on rows per distinct value of other
            columns (e.g. a symmetric friendship table is bounded per ``f2``
            as well as per ``f1``).  The query analyzer needs these to prove
            that reverse traversals during index maintenance stay O(K).
    """

    name: str
    key_fields: List[Field]
    value_fields: List[Field] = field(default_factory=list)
    max_per_partition: Optional[int] = None
    column_bounds: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("entity name must be non-empty")
        if not self.key_fields:
            raise SchemaError(f"entity {self.name!r} needs at least one key field")
        names = [f.name for f in self.key_fields] + [f.name for f in self.value_fields]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SchemaError(f"entity {self.name!r} has duplicate fields: {sorted(duplicates)}")
        if self.max_per_partition is not None and self.max_per_partition < 1:
            raise SchemaError("max_per_partition must be >= 1 when given")
        for column, bound in self.column_bounds.items():
            if column not in names:
                raise SchemaError(
                    f"column bound references unknown field {column!r} on {self.name!r}"
                )
            if bound < 1:
                raise SchemaError(f"column bound for {column!r} must be >= 1, got {bound}")
        # Per-row validation runs on every put; cache the name→field map so
        # field lookups are dict hits instead of rebuilding name lists.
        # (Field lists must not be mutated after construction.)
        self._fields_by_name: Dict[str, Field] = {
            f.name: f for f in self.key_fields + self.value_fields
        }
        self._key_field_names: List[str] = [f.name for f in self.key_fields]

    # ------------------------------------------------------------------ lookup

    @property
    def key_field_names(self) -> List[str]:
        return list(self._key_field_names)

    def has_field(self, name: str) -> bool:
        return name in self._fields_by_name

    def is_key_field(self, name: str) -> bool:
        return name in self._key_field_names

    def key_position(self, name: str) -> int:
        """Position of a field within the primary key (raises if not a key field)."""
        try:
            return self.key_field_names.index(name)
        except ValueError as exc:
            raise SchemaError(f"{name!r} is not a key field of {self.name!r}") from exc

    def rows_per_value_bound(self, column: str) -> Optional[int]:
        """Bound on how many rows share one value of ``column`` (None = unbounded).

        A single-field primary key bounds itself at 1; the partition key is
        bounded by ``max_per_partition``; other columns fall back to any
        declared ``column_bounds`` entry.
        """
        if not self.has_field(column):
            raise SchemaError(f"entity {self.name!r} has no field {column!r}")
        if self.is_key_field(column) and len(self.key_fields) == 1:
            return 1
        if column == self.key_field_names[0]:
            return self.max_per_partition
        return self.column_bounds.get(column)

    # --------------------------------------------------------------- row checks

    def storage_key(self, row: Dict[str, Any]) -> Tuple:
        """The storage key tuple for a row (validates key fields are present)."""
        key_parts = []
        for f in self.key_fields:
            if f.name not in row or row[f.name] is None:
                raise SchemaError(
                    f"row for {self.name!r} is missing key field {f.name!r}: {row!r}"
                )
            f.validate(row[f.name])
            key_parts.append(row[f.name])
        return tuple(key_parts)

    def validate_row(self, row: Dict[str, Any]) -> Tuple:
        """Validate a full row (key present and typed, no unknown fields) and
        return its storage key."""
        key = self.storage_key(row)
        fields_by_name = self._fields_by_name
        for name, value in row.items():
            field_ = fields_by_name.get(name)
            if field_ is None:
                raise SchemaError(f"entity {self.name!r} has no field {name!r}")
            field_.validate(value)
        return key


class SchemaRegistry:
    """All entity schemas an application has declared."""

    def __init__(self) -> None:
        self._entities: Dict[str, EntitySchema] = {}

    # ------------------------------------------------------------------ entities

    def register_entity(self, schema: EntitySchema) -> EntitySchema:
        if schema.name in self._entities:
            raise SchemaError(f"entity {schema.name!r} is already registered")
        self._entities[schema.name] = schema
        return schema

    def entity(self, name: str) -> EntitySchema:
        if name not in self._entities:
            raise SchemaError(f"unknown entity {name!r}")
        return self._entities[name]

    def has_entity(self, name: str) -> bool:
        return name in self._entities
