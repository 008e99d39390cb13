"""Row storage, schemas, and constraint enforcement.

Tables store rows as dicts keyed by an internal rowid; a primary key maps
each key value to its row's rowid (``Table.keys``).  Type checking is
strict but friendly: INTEGER accepts ints, REAL accepts ints and floats,
TEXT accepts str, BOOLEAN accepts bool; NULL (None) is accepted anywhere
except NOT NULL and primary-key columns.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.ris.relational.ast import ColumnDef
from repro.ris.relational.errors import (
    CatalogError,
    ConstraintViolationError,
    TypeMismatchError,
)

Row = dict[str, Any]


def _check_type(column: ColumnDef, value: Any) -> Any:
    """Validate (and mildly coerce) a value against a column type."""
    if value is None:
        if column.not_null or column.primary_key:
            raise ConstraintViolationError(
                f"column {column.name!r} may not be NULL"
            )
        return None
    type_name = column.type_name
    if type_name == "INTEGER":
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatchError(
                f"column {column.name!r} expects INTEGER, got {value!r}"
            )
        return value
    if type_name == "REAL":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatchError(
                f"column {column.name!r} expects REAL, got {value!r}"
            )
        return float(value)
    if type_name == "TEXT":
        if not isinstance(value, str):
            raise TypeMismatchError(
                f"column {column.name!r} expects TEXT, got {value!r}"
            )
        return value
    if type_name == "BOOLEAN":
        if not isinstance(value, bool):
            raise TypeMismatchError(
                f"column {column.name!r} expects BOOLEAN, got {value!r}"
            )
        return value
    raise TypeMismatchError(f"unknown type {type_name!r}")


class Table:
    """One table: schema, rows, and the primary key's value -> rowid map."""

    def __init__(self, name: str, columns: tuple[ColumnDef, ...]):
        self.name = name
        self.columns: dict[str, ColumnDef] = {}
        for column in columns:
            if column.name in self.columns:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {name!r}"
                )
            self.columns[column.name] = column
        primary = [c.name for c in columns if c.primary_key]
        if len(primary) > 1:
            raise CatalogError(
                f"table {name!r}: composite primary keys are not supported"
            )
        self.primary_key: Optional[str] = primary[0] if primary else None
        self.rows: dict[int, Row] = {}
        #: Primary-key value -> rowid (empty without a primary key).
        self.keys: dict[Any, int] = {}
        self._next_rowid = 1

    def require_column(self, name: str) -> ColumnDef:
        """The column definition; CatalogError if absent."""
        column = self.columns.get(name)
        if column is None:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}"
            )
        return column

    def _duplicate_key(self, value: Any) -> ConstraintViolationError:
        return ConstraintViolationError(
            f"duplicate value {value!r} for {self.name}.{self.primary_key}"
        )

    # -- row operations -----------------------------------------------------

    def insert_row(self, values: Row) -> int:
        """Insert a row (dict of column -> value); returns the new rowid."""
        row: Row = {}
        for name, column in self.columns.items():
            row[name] = _check_type(column, values.get(name))
        extraneous = set(values) - set(self.columns)
        if extraneous:
            raise CatalogError(
                f"table {self.name!r} has no column(s) {sorted(extraneous)}"
            )
        key = self.primary_key
        if key is not None and row[key] in self.keys:
            raise self._duplicate_key(row[key])
        rowid = self._next_rowid
        self._next_rowid += 1
        self.rows[rowid] = row
        if key is not None:
            self.keys[row[key]] = rowid
        return rowid

    def update_row(self, rowid: int, changes: Row) -> tuple[Row, Row]:
        """Apply ``changes`` to one row; returns (old row, new row).

        One copy: the stored dict is replaced, not mutated, and is returned
        as ``old``.  No code mutates a stored row (only :meth:`insert_row`
        builds one), so it stays as it was.
        """
        old = self.rows[rowid]
        new = dict(old)
        columns = self.columns
        for name, value in changes.items():
            column = columns.get(name) or self.require_column(name)
            new[name] = _check_type(column, value)
        key = self.primary_key
        if key in changes and new[key] != old[key]:
            if new[key] in self.keys:
                raise self._duplicate_key(new[key])
            del self.keys[old[key]]
            self.keys[new[key]] = rowid
        self.rows[rowid] = new
        return old, new

    def delete_row(self, rowid: int) -> Row:
        """Remove one row; returns it."""
        row = self.rows.pop(rowid)
        if self.primary_key is not None:
            del self.keys[row[self.primary_key]]
        return row


class Catalog:
    """The set of tables in one database."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def create_table(self, name: str, columns: tuple[ColumnDef, ...]) -> Table:
        """Create a table; CatalogError on duplicates."""
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, columns)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        """Look a table up; CatalogError if absent."""
        table = self._tables.get(name)
        if table is None:
            raise CatalogError(f"no such table: {name!r}")
        return table
