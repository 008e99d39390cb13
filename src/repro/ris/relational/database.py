"""The relational database facade: the RISI the translator talks to.

:class:`RelationalDatabase` exposes one native entry point, :meth:`execute`,
taking SQL text plus ``?`` parameters, like a real server's wire protocol.
Everything the CM-Translator does — reads, writes, trigger declaration for
notify interfaces — goes through it.  A translator sends the same few texts
over and over, so each distinct text is parsed once per process
(``parse_sql`` memoizes) and bound once per database (``_bind``); only the
availability checks, the parameter binding and the row work run per call.

Failure injection: :meth:`set_available` / :meth:`set_busy` flip the server
into the paper's logical / metric failure modes, making ``execute`` raise
:class:`DatabaseUnavailableError` / :class:`DatabaseBusyError` so translators
can exercise their error-classification path (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.ris.base import RawInformationSource, RISErrorCode
from repro.ris.relational.ast import (
    CreateTable,
    CreateTrigger,
    Delete,
    Insert,
    Select,
    Update,
    param_count,
)
from repro.ris.relational.errors import (
    CatalogError,
    DatabaseBusyError,
    DatabaseUnavailableError,
    SqlError,
)
from repro.ris.relational.executor import access_path, compile_expr, compile_select
from repro.ris.relational.parser import parse_sql
from repro.ris.relational.storage import Catalog
from repro.ris.relational.triggers import (
    TriggerCallback,
    TriggerDef,
    TriggerEvent,
    TriggerManager,
)

#: Bound statements kept per database; a full map is dropped and rebuilt.
_STATEMENT_CACHE_SIZE = 256


@dataclass
class ResultSet:
    """The result of one statement: rows for SELECTs, rowcount for DML."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    rowcount: int = 0


#: A bound statement: its placeholder count and its per-call runner.
_Bound = tuple[int, Callable[[Sequence[Any]], ResultSet]]


class RelationalDatabase(RawInformationSource):
    """A mini SQL server: the statement shapes the toolkit sends."""

    kind = "relational"

    def __init__(self, name: str):
        super().__init__(name)
        self.catalog = Catalog()
        self.triggers = TriggerManager()
        self._available = True
        self._busy = False
        self.statements_executed = 0
        self._statements: dict[str, _Bound] = {}

    # -- failure injection -------------------------------------------------

    def set_available(self, available: bool) -> None:
        """Simulate a server crash / recovery (logical failure)."""
        self._available = available

    def set_busy(self, busy: bool) -> None:
        """Simulate overload: requests fail with a transient BUSY error."""
        self._busy = busy

    # -- the native interface ------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Run one SQL statement (parsed and bound on first sight of its text)."""
        if not self._available:
            raise DatabaseUnavailableError(f"{self.name} is down")
        if self._busy:
            raise DatabaseBusyError(f"{self.name} is overloaded")
        self.statements_executed += 1
        arity, run = self._statements.get(sql) or self._bind(sql)
        if len(params) != arity:
            raise SqlError(
                RISErrorCode.INVALID_REQUEST,
                f"statement has {arity} placeholder(s) but {len(params)} "
                f"parameter(s) were supplied",
            )
        return run(params)

    def _bind(self, sql: str) -> _Bound:
        """Resolve a statement against the catalog, once per text.

        The bound form is (placeholder count, runner); the runner has its
        table, triggers, access path and compiled expressions in hand and
        does only the per-call work.  Every column the statement names
        resolves here, so an unknown one raises on every call, whatever the
        table holds (a bind that raises is not kept).  Any DDL drops every
        bound statement.
        """
        statement = parse_sql(sql)
        bound = param_count(statement), _BINDERS[type(statement)](self, statement)
        if len(self._statements) >= _STATEMENT_CACHE_SIZE:
            self._statements.clear()
        self._statements[sql] = bound
        return bound

    def set_trigger_callback(self, name: str, callback: TriggerCallback) -> None:
        """Attach the host-language body of a declared trigger."""
        self.triggers.set_callback(name, callback)

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple[Any, ...]]:
        """Convenience: execute a SELECT and return its rows."""
        return self.execute(sql, params).rows

    # -- statement binders ------------------------------------------------------

    def _bind_select(self, statement: Select):
        names, select = compile_select(self.catalog.table(statement.table), statement)

        def run(params: Sequence[Any]) -> ResultSet:
            rows = select(params)
            return ResultSet(columns=list(names), rows=rows, rowcount=len(rows))

        return run

    def _bind_insert(self, statement: Insert):
        table = self.catalog.table(statement.table)
        names = statement.columns or tuple(table.columns)
        for value_row in statement.rows:
            if len(names) != len(value_row):
                raise CatalogError(
                    f"INSERT has {len(names)} column(s) but "
                    f"{len(value_row)} value(s)"
                )
        # VALUES read no row: a column named in one is unknown.
        value_rows = [
            tuple(compile_expr(expr, ()) for expr in value_row)
            for value_row in statement.rows
        ]
        triggers = self.triggers.matching(table.name, "INSERT")

        def run(params: Sequence[Any]) -> ResultSet:
            for value_row in value_rows:
                values = {}
                for name, value in zip(names, value_row):
                    values[name] = value(None, params)
                rowid = table.insert_row(values)
                if triggers:
                    _fire(triggers, "INSERT", None, table.rows[rowid])
            return ResultSet(rowcount=len(value_rows))

        return run

    def _bind_update(self, statement: Update):
        table = self.catalog.table(statement.table)
        matching = access_path(table, statement.where)
        assignments = []
        for name, expr in statement.assignments:
            table.require_column(name)
            assignments.append((name, compile_expr(expr, table.columns)))
        assigned = frozenset(name for name, __ in statement.assignments)
        triggers = self.triggers.matching(table.name, "UPDATE", assigned)

        def run(params: Sequence[Any]) -> ResultSet:
            matched = matching(params)
            for rowid, row in matched:
                changes = {}
                for name, value in assignments:
                    changes[name] = value(row, params)
                old, new = table.update_row(rowid, changes)
                if triggers:
                    _fire(triggers, "UPDATE", old, new)
            return ResultSet(rowcount=len(matched))

        return run

    def _bind_delete(self, statement: Delete):
        table = self.catalog.table(statement.table)
        matching = access_path(table, statement.where)
        triggers = self.triggers.matching(table.name, "DELETE")

        def run(params: Sequence[Any]) -> ResultSet:
            matched = matching(params)
            for rowid, __ in matched:
                old = table.delete_row(rowid)
                if triggers:
                    _fire(triggers, "DELETE", old, None)
            return ResultSet(rowcount=len(matched))

        return run

    def _bind_ddl(self, statement: CreateTable | CreateTrigger):
        """DDL resolves nothing at bind: the runner applies the statement
        and drops every bound statement of this database."""

        def run(params: Sequence[Any]) -> ResultSet:
            if isinstance(statement, CreateTable):
                self.catalog.create_table(statement.name, statement.columns)
            else:
                table = self.catalog.table(statement.table)  # it must exist
                if statement.column is not None:
                    table.require_column(statement.column)
                self.triggers.create(
                    statement.name,
                    statement.operation,
                    statement.table,
                    statement.column,
                )
            self._statements.clear()
            return ResultSet()

        return run


def _fire(triggers: list[TriggerDef], operation: str, old_row, new_row) -> None:
    for trigger in triggers:
        if trigger.callback is not None:
            trigger.callback(
                TriggerEvent(
                    trigger.name,
                    trigger.table,
                    operation,
                    dict(old_row) if old_row is not None else None,
                    dict(new_row) if new_row is not None else None,
                )
            )


_BINDERS = {
    Select: RelationalDatabase._bind_select,
    Insert: RelationalDatabase._bind_insert,
    Update: RelationalDatabase._bind_update,
    Delete: RelationalDatabase._bind_delete,
    CreateTable: RelationalDatabase._bind_ddl,
    CreateTrigger: RelationalDatabase._bind_ddl,
}
