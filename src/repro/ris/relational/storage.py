"""Row storage, schemas, and constraint enforcement.

Tables store rows as dicts keyed by an internal rowid.  Primary-key and
unique columns are backed by unique hash indexes; secondary indexes can be
added via ``CREATE INDEX``.  Type checking is strict but friendly: INTEGER
accepts ints, REAL accepts ints and floats, TEXT accepts str, BOOLEAN
accepts bool; NULL (None) is accepted anywhere except NOT NULL columns.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.ris.relational.ast import ColumnDef, SqlExpr
from repro.ris.relational.errors import (
    CatalogError,
    ConstraintViolationError,
    TypeMismatchError,
)
from repro.ris.relational.index import HashIndex, OrderedIndex

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
    """One table: schema, rows, and indexes."""

    def __init__(
        self, name: str, columns: tuple[ColumnDef, ...], checks: tuple[SqlExpr, ...]
    ):
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
        self.checks = checks
        self.rows: dict[int, Row] = {}
        self._next_rowid = 1
        self.hash_indexes: dict[str, HashIndex] = {}
        self.ordered_indexes: dict[str, OrderedIndex] = {}
        for column in columns:
            if column.primary_key or column.unique:
                self.hash_indexes[column.name] = HashIndex(
                    column.name, unique=True
                )

    @property
    def column_names(self) -> list[str]:
        """Schema-order column names."""
        return list(self.columns)

    def require_column(self, name: str) -> ColumnDef:
        """The column definition; CatalogError if absent."""
        column = self.columns.get(name)
        if column is None:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}"
            )
        return column

    def add_hash_index(self, column: str, unique: bool = False) -> None:
        """Create (or reuse) a hash index on a column."""
        self.require_column(column)
        if column in self.hash_indexes:
            return
        index = HashIndex(column, unique)
        for rowid, row in self.rows.items():
            if index.would_violate(row[column]):
                raise ConstraintViolationError(
                    f"cannot create unique index: duplicate {row[column]!r}"
                )
            index.add(row[column], rowid)
        self.hash_indexes[column] = index

    def add_ordered_index(self, column: str) -> None:
        """Create (or reuse) an ordered index for range scans."""
        self.require_column(column)
        if column in self.ordered_indexes:
            return
        index = OrderedIndex(column)
        index.load((row[column], rowid) for rowid, row in self.rows.items())
        self.ordered_indexes[column] = index

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
        for column_name, index in self.hash_indexes.items():
            if index.would_violate(row[column_name]):
                raise ConstraintViolationError(
                    f"duplicate value {row[column_name]!r} for "
                    f"{self.name}.{column_name}"
                )
        rowid = self._next_rowid
        self._next_rowid += 1
        self.rows[rowid] = row
        for column_name, index in self.hash_indexes.items():
            index.add(row[column_name], rowid)
        for column_name, ordered in self.ordered_indexes.items():
            ordered.add(row[column_name], rowid)
        return rowid

    def update_row(self, rowid: int, changes: Row) -> tuple[Row, Row]:
        """Apply ``changes`` to one row; returns (old row, new row).

        One copy: the stored dict is replaced, not mutated, and is returned
        as ``old``.  No code mutates a stored row (only :meth:`insert_row`
        and :meth:`restore_row` build one), so it stays as it was.
        """
        old = self.rows[rowid]
        new = dict(old)
        columns = self.columns
        for name, value in changes.items():
            column = columns.get(name) or self.require_column(name)
            new[name] = _check_type(column, value)
        for column_name, index in self.hash_indexes.items():
            if new[column_name] != old[column_name] and index.would_violate(
                new[column_name], ignoring_rowid=rowid
            ):
                raise ConstraintViolationError(
                    f"duplicate value {new[column_name]!r} for "
                    f"{self.name}.{column_name}"
                )
        for column_name in changes:
            if column_name in self.hash_indexes:
                self.hash_indexes[column_name].remove(old[column_name], rowid)
                self.hash_indexes[column_name].add(new[column_name], rowid)
            if column_name in self.ordered_indexes:
                self.ordered_indexes[column_name].remove(old[column_name], rowid)
                self.ordered_indexes[column_name].add(new[column_name], rowid)
        self.rows[rowid] = new
        return old, new

    def delete_row(self, rowid: int) -> Row:
        """Remove one row; returns a copy of it."""
        row = self.rows.pop(rowid)
        for column_name, index in self.hash_indexes.items():
            index.remove(row[column_name], rowid)
        for column_name, ordered in self.ordered_indexes.items():
            ordered.remove(row[column_name], rowid)
        return row

    def restore_row(self, rowid: int, row: Row) -> None:
        """Re-insert a previously deleted row under its old rowid (undo)."""
        self.rows[rowid] = dict(row)
        for column_name, index in self.hash_indexes.items():
            index.add(row[column_name], rowid)
        for column_name, ordered in self.ordered_indexes.items():
            ordered.add(row[column_name], rowid)

    def scan(self) -> Iterator[tuple[int, Row]]:
        """All (rowid, row) pairs in insertion order."""
        return iter(self.rows.items())

    def __len__(self) -> int:
        return len(self.rows)


class Catalog:
    """The set of tables in one database."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def create_table(
        self, name: str, columns: tuple[ColumnDef, ...], checks: tuple[SqlExpr, ...]
    ) -> Table:
        """Create a table; CatalogError on duplicates."""
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, columns, checks)
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> Table:
        """Remove a table, returning it."""
        if name not in self._tables:
            raise CatalogError(f"no such table: {name!r}")
        return self._tables.pop(name)

    def table(self, name: str) -> Table:
        """Look a table up; CatalogError if absent."""
        table = self._tables.get(name)
        if table is None:
            raise CatalogError(f"no such table: {name!r}")
        return table
