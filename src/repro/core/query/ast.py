"""AST node types for the restricted SQL query templates."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union


@dataclass(frozen=True)
class ColumnRef:
    """A reference to ``alias.column`` (or a bare ``column``)."""

    table_alias: Optional[str]
    column: str

    def __str__(self) -> str:
        if self.table_alias:
            return f"{self.table_alias}.{self.column}"
        return self.column


@dataclass(frozen=True)
class Parameter:
    """A query-template parameter, written ``<name>`` in the SQL text."""

    name: str

    def __str__(self) -> str:
        return f"<{self.name}>"


@dataclass(frozen=True)
class Literal:
    """A constant value appearing in the template text."""

    value: Union[str, int, float]

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class SelectItem:
    """One projected item: a column or ``alias.*`` / ``*``."""

    column: Optional[ColumnRef] = None
    star_alias: Optional[str] = None  # alias for "alias.*"; None+is_star for bare "*"
    is_star: bool = False

    def __str__(self) -> str:
        if self.is_star:
            return f"{self.star_alias}.*" if self.star_alias else "*"
        return str(self.column)


@dataclass(frozen=True)
class Predicate:
    """A WHERE condition: ``column op value`` or ``column BETWEEN lo AND hi``."""

    column: ColumnRef
    op: str  # '=', '<', '<=', '>', '>=', 'between'
    value: Union[Parameter, Literal]
    value_high: Optional[Union[Parameter, Literal]] = None  # only for BETWEEN

    @property
    def is_equality(self) -> bool:
        return self.op == "="

    @property
    def is_parameterised(self) -> bool:
        if isinstance(self.value, Parameter):
            return True
        return isinstance(self.value_high, Parameter)

    def __str__(self) -> str:
        if self.op == "between":
            return f"{self.column} BETWEEN {self.value} AND {self.value_high}"
        return f"{self.column} {self.op} {self.value}"


@dataclass(frozen=True)
class JoinClause:
    """``JOIN table alias ON left = right``."""

    table: str
    alias: str
    left: ColumnRef
    right: ColumnRef

    def __str__(self) -> str:
        return f"JOIN {self.table} {self.alias} ON {self.left} = {self.right}"


@dataclass(frozen=True)
class OrderBy:
    """``ORDER BY column [ASC|DESC]``."""

    column: ColumnRef
    descending: bool = False

    def __str__(self) -> str:
        return f"ORDER BY {self.column} {'DESC' if self.descending else 'ASC'}"


@dataclass
class QueryTemplate:
    """A parsed query template, prior to semantic analysis."""

    select: List[SelectItem]
    from_table: str
    from_alias: str
    joins: List[JoinClause] = field(default_factory=list)
    where: List[Predicate] = field(default_factory=list)
    order_by: Optional[OrderBy] = None
    limit: Optional[int] = None
    text: str = ""

    def aliases(self) -> dict:
        """Mapping from alias to table name for every table in the template."""
        mapping = {self.from_alias: self.from_table}
        for join in self.joins:
            mapping[join.alias] = join.table
        return mapping
