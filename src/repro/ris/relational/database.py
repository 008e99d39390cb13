"""The relational RISI: one in-memory ``sqlite3`` connection in autocommit
mode behind :meth:`RelationalDatabase.execute` (SQL text plus ``?``
parameters).  :func:`parse_sql` rewrites the toolkit's ``CREATE TABLE``
(strict types, insertion order) and body-less ``CREATE TRIGGER``, whose
SQLite body hands the OLD / NEW columns to :func:`_fire`.
"""

from __future__ import annotations

import re
import sqlite3
import weakref
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Any, Callable, Optional, Sequence

from repro.ris.base import RawInformationSource, RISErrorCode
from repro.ris.relational.errors import (
    CatalogError,
    ConstraintViolationError,
    DatabaseBusyError,
    DatabaseUnavailableError,
    SqlError,
    SqlSyntaxError,
    TypeMismatchError,
)

#: Texts remembered per database; a full map is dropped and rebuilt.
_STATEMENT_CACHE_SIZE = 256


@dataclass
class ResultSet:
    """The result of one statement: rows for SELECTs, rowcount for DML."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    rowcount: int = 0


@dataclass(frozen=True)
class TriggerEvent:
    """What a fired trigger reports to its callback."""

    trigger_name: str
    table: str
    operation: str  # INSERT | UPDATE | DELETE
    old_row: Optional[dict[str, Any]]
    new_row: Optional[dict[str, Any]]


_FLAGS = re.IGNORECASE | re.DOTALL
_CREATE = re.compile(r"\s*CREATE\s+(TABLE|TRIGGER)\b", _FLAGS)
_TABLE = re.compile(r"\s*CREATE\s+TABLE\s+(\w+)\s*\((.*)\)\s*;?\s*", _FLAGS)
_COLUMN = re.compile(
    r"\s*(\w+)\s+(\w+)(\s*\(\s*\d+\s*\))?((\s+(PRIMARY\s+KEY|NOT\s+NULL))*)\s*", _FLAGS
)
_TRIGGER = re.compile(
    r"\s*CREATE\s+TRIGGER\s+(\w+)\s+AFTER\s+(INSERT|UPDATE|DELETE)"
    r"(?:\s+OF\s+(\w+))?\s+ON\s+(\w+)\s*;?\s*",
    _FLAGS,
)
#: Column type -> the ``typeof`` its values must have.
_TYPES = {"INTEGER": "integer", "INT": "integer", "REAL": "real", "FLOAT": "real"}
_TYPES.update(TEXT="text", VARCHAR="text")
#: In the name of every type check: a failed one is a TypeMismatchError.
_EXPECTS = " expects "


def _create_table(table: str, body: str) -> str:
    """The SQLite script of a toolkit ``CREATE TABLE``.  Columns have no
    affinity but ``REAL``'s (which stores an int as a float), so a ``CHECK``
    sees the value as given; the key is NOT NULL by a ``CHECK`` because
    SQLite ignores a partial index on a NOT NULL column."""
    columns, keys = [], []
    for definition in body.split(","):
        column = _COLUMN.fullmatch(definition)
        if column is None:
            raise SqlSyntaxError(f"bad column definition {definition.strip()!r}")
        name, type_name, constraints = column[1], column[2], column[4].upper()
        stored = _TYPES.get(type_name.upper())
        if stored is None:
            raise SqlSyntaxError(f"unknown column type {type_name!r}")
        ddl = f"{name} REAL" if stored == "real" else name
        if "PRIMARY" in constraints or "NOT" in constraints:
            ddl += f' CONSTRAINT "{name} may not be NULL" CHECK ({name} IS NOT NULL)'
        ddl += f' CONSTRAINT "{name}{_EXPECTS}{stored.upper()}"'
        columns.append(ddl + f" CHECK (typeof({name}) IN ('{stored}', 'null'))")
        keys += [name] if "PRIMARY" in constraints else []
    if len(keys) > 1:
        raise CatalogError(f"table {table!r}: composite primary keys are not supported")
    # Small pages: an autocommit write journals each page it changes.
    script = f"PRAGMA page_size = 1024; CREATE TABLE {table} ({', '.join(columns)});"
    for key in keys:  # partial: an unordered scan keeps insertion order
        script += f' CREATE UNIQUE INDEX "{table} key" ON {table} ({key})'
        script += f" WHERE {key} IS NOT NULL;"
    return script


@lru_cache(maxsize=_STATEMENT_CACHE_SIZE)
def parse_sql(sql: str) -> str | tuple:
    """The toolkit's dialect in SQLite's terms: a ``CREATE TABLE`` as its
    script, a ``CREATE TRIGGER`` as (name, operation, ``OF`` column, table),
    anything else as is.
    Memoized by text; a malformed ``CREATE`` raises anew each time."""
    create = _CREATE.match(sql)
    if create is None:
        return sql
    statement = (_TABLE if create[1].upper() == "TABLE" else _TRIGGER).fullmatch(sql)
    if statement is None:
        raise SqlSyntaxError(f"malformed CREATE {create[1].upper()}: {sql!r}")
    if create[1].upper() == "TABLE":
        return _create_table(*statement.groups())
    name, operation, column, table = statement.groups()
    return name, operation.upper(), column, table


#: Per ``CREATE TABLE`` script, emptied connections of dropped databases that
#: ran it first and no other DDL: schema parsed and statements prepared, the
#: ~100 µs a new connection costs.
_idle: dict[str, list[tuple]] = {}


#: SQLite's phrases for unparsable text; its other OperationalErrors: catalog.
_SYNTAX_MESSAGES = ("syntax error", "incomplete input", "unrecognized token")


def _fire(owner: list, name: str, *values: Any) -> None:
    """The body of every trigger: called by SQLite once per changed row,
    right after the change, with the row's OLD and/or NEW columns."""
    self = owner[0]()
    table, operation, columns, callback = self._hooks[name]
    if callback is None:
        return
    row = dict(zip(columns, values))
    old, new = (None, row) if operation == "INSERT" else (row, None)
    if operation == "UPDATE":
        new = dict(zip(columns, values[len(columns) :]))
    # The callback may query this database while its cursor is busy.
    cursor, self._cursor = self._cursor, self._connection.cursor()
    try:
        callback(TriggerEvent(name, table, operation, old, new))
    except BaseException as error:  # SQLite says only "raised": keep it
        self._raised = error
        raise
    finally:
        self._cursor = cursor


class RelationalDatabase(RawInformationSource):
    """A SQL server: one in-memory SQLite database."""

    kind = "relational"

    def __init__(self, name: str):
        super().__init__(name)
        self._connection: Any = None  # opened by the first statement
        self._script: Optional[str] = None  # that statement, if reusable
        #: Trigger name -> [table, operation, columns, callback].
        self._hooks: dict[str, list] = {}
        self._raised: Optional[BaseException] = None
        self._available = True
        self._busy = False
        self.statements_executed = 0
        #: Texts SQLite runs as they are, seen by this database.
        self._statements: set[str] = set()

    def set_available(self, available: bool) -> None:
        """Simulate a server crash / recovery (logical failure)."""
        self._available = available

    def set_busy(self, busy: bool) -> None:
        """Simulate overload: requests fail with a transient BUSY error."""
        self._busy = busy

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Run one SQL statement (translated on first sight of its text)."""
        if not self._available:
            raise DatabaseUnavailableError(f"{self.name} is down")
        if self._busy:
            raise DatabaseBusyError(f"{self.name} is overloaded")
        self.statements_executed += 1
        try:
            if sql not in self._statements and self._first_sight(sql):
                return ResultSet()  # a CREATE, run by _first_sight
            cursor = self._cursor.execute(sql, params)
        except (sqlite3.Error, OverflowError) as error:
            raise self._failure(error) from None
        description = cursor.description
        if description is None:
            return ResultSet([], [], cursor.rowcount)
        rows = cursor.fetchall()
        return ResultSet([column[0] for column in description], rows, len(rows))

    def _first_sight(self, sql: str) -> bool:
        """Remember a text run as is; run a rewritten ``CREATE``: True."""
        statement, opened = parse_sql(sql), self._connection is None
        table = isinstance(statement, str) and statement != sql  # CREATE TABLE
        if opened:
            self._open(statement if table else None)
        if isinstance(statement, tuple):
            self._create_trigger(*statement)
        elif table:
            if not opened:  # else _open ran it
                self._connection.executescript(statement)
        else:
            if len(self._statements) >= _STATEMENT_CACHE_SIZE:
                self._statements.clear()
            self._statements.add(sql)
            return False
        return True

    def _open(self, script: Optional[str]) -> None:
        """Open the connection: an idle one for a first ``CREATE TABLE``."""
        idle = _idle.get(script)
        if idle:
            self._connection, self._cursor, self._owner = idle.pop()
        else:
            self._connection = sqlite3.connect(":memory:", isolation_level=None)
            self._cursor, self._owner = self._connection.cursor(), [None]
            # SQLite holds the function where the collector cannot see it: a
            # strong reference to this database there would keep it alive.
            function = partial(_fire, self._owner)
            self._connection.create_function("cm_trigger", -1, function)
            if script is not None:
                self._connection.executescript(script)
        self._owner[0], self._script = weakref.ref(self), script

    def __del__(self) -> None:
        try:  # nothing to keep at interpreter shutdown
            script, cursor = self._script, self._cursor
            if script is None or self._connection.in_transaction:
                return
            # The schema cookie counts DDL: none ran after the script.
            [[version]] = cursor.execute("PRAGMA schema_version").fetchall()
            idle = _idle.setdefault(script, [])
            if version == script.count("CREATE ") and len(idle) < 64:
                [[table]] = cursor.execute("SELECT name FROM sqlite_schema LIMIT 1")
                cursor.execute(f"DELETE FROM {table}")
                idle.append((self._connection, cursor, self._owner))
        except Exception:
            pass

    def _create_trigger(self, name, operation, column, table) -> None:
        info = self._connection.execute(f"PRAGMA table_info({table})")
        columns = tuple(row[1] for row in info)
        if not columns:
            raise CatalogError(f"no such table: {table!r}")
        if column is not None and column not in columns:
            raise CatalogError(f"table {table!r} has no column {column!r}")
        rows = {"INSERT": ("NEW",), "UPDATE": ("OLD", "NEW"), "DELETE": ("OLD",)}
        values = ", ".join(f"{r}.{c}" for r in rows[operation] for c in columns)
        of = "" if column is None else f" OF {column}"
        self._connection.execute(
            f"CREATE TRIGGER {name} AFTER {operation}{of} ON {table} "
            f"BEGIN SELECT cm_trigger('{name}', {values}); END"
        )
        self._hooks[name] = [table, operation, columns, None]

    def _failure(self, error: Exception) -> BaseException:
        """The exception ``execute`` raises for one SQLite raised."""
        raised, self._raised = self._raised, None
        if raised is not None:
            return raised
        message = str(error)
        if isinstance(error, sqlite3.IntegrityError):
            typed = _EXPECTS in message
            return (TypeMismatchError if typed else ConstraintViolationError)(message)
        if isinstance(error, sqlite3.OperationalError):
            syntax = any(phrase in message for phrase in _SYNTAX_MESSAGES)
            return (SqlSyntaxError if syntax else CatalogError)(message)
        return SqlError(RISErrorCode.INVALID_REQUEST, message)

    def set_trigger_callback(self, name: str, callback: Callable) -> None:
        """Attach the host-language body of a declared trigger."""
        if name not in self._hooks:
            raise CatalogError(f"no such trigger: {name!r}")
        self._hooks[name][3] = callback

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple[Any, ...]]:
        """Convenience: execute a SELECT and return its rows."""
        return self.execute(sql, params).rows
