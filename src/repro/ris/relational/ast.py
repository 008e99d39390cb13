"""Abstract syntax of the supported SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Optional


# -- value expressions ---------------------------------------------------------


class SqlExpr:
    """Base class for SQL value/boolean expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class SqlLiteral(SqlExpr):
    """A constant (number, string, boolean, or NULL as None)."""

    value: Any


@dataclass(frozen=True)
class SqlColumn(SqlExpr):
    """A column reference."""

    name: str


@dataclass(frozen=True)
class SqlParam(SqlExpr):
    """A ``?`` placeholder, filled from the execute() arguments."""

    index: int


@dataclass(frozen=True)
class SqlNot(SqlExpr):
    """``NOT x``."""

    operand: SqlExpr


@dataclass(frozen=True)
class SqlBinary(SqlExpr):
    """A comparison (``= != < <= > >=``) or ``AND`` / ``OR``."""

    op: str
    left: SqlExpr
    right: SqlExpr


@dataclass(frozen=True)
class SqlIsNull(SqlExpr):
    """``x IS [NOT] NULL``."""

    operand: SqlExpr
    negated: bool


# -- statements -----------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDef:
    """One column in a CREATE TABLE."""

    name: str
    type_name: str  # INTEGER | REAL | TEXT | BOOLEAN
    primary_key: bool = False
    not_null: bool = False


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDef, ...]


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]  # empty means "all, in schema order"
    rows: tuple[tuple[SqlExpr, ...], ...]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, SqlExpr], ...]
    where: Optional[SqlExpr]


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[SqlExpr]


@dataclass(frozen=True)
class OrderItem:
    column: str
    descending: bool = False


@dataclass(frozen=True)
class Select:
    columns: tuple[str, ...]  # empty means SELECT *
    table: str
    where: Optional[SqlExpr] = None
    order_by: tuple[OrderItem, ...] = ()


@dataclass(frozen=True)
class CreateTrigger:
    """``CREATE TRIGGER name AFTER op [OF col] ON table``.

    The trigger body is a host-language callback registered separately via
    :meth:`RelationalDatabase.set_trigger_callback`; the SQL statement only
    declares the hook point, mirroring how the paper's CM-Translator
    "declares triggers on the underlying database" (Section 4.2.1).
    """

    name: str
    operation: str  # INSERT | UPDATE | DELETE
    table: str
    column: Optional[str] = None  # UPDATE OF col


Statement = CreateTable | Insert | Update | Delete | Select | CreateTrigger


def param_count(node: Any) -> int:
    """How many ``?`` placeholders a statement (or any part of one) holds."""
    if isinstance(node, SqlParam):
        return 1
    if isinstance(node, tuple):
        return sum(map(param_count, node))
    if is_dataclass(node):
        return sum(param_count(getattr(node, f.name)) for f in fields(node))
    return 0
