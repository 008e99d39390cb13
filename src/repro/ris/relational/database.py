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
from typing import Any, Callable, Optional, Sequence

from repro.ris.base import Capability, RawInformationSource, RISErrorCode
from repro.ris.relational.ast import (
    BeginTransaction,
    CommitTransaction,
    CreateIndex,
    CreateTable,
    CreateTrigger,
    Delete,
    DropTable,
    DropTrigger,
    Insert,
    RollbackTransaction,
    Select,
    Update,
    param_count,
)
from repro.ris.relational.errors import (
    CatalogError,
    ConstraintViolationError,
    DatabaseBusyError,
    DatabaseUnavailableError,
    SqlError,
)
from repro.ris.relational.executor import (
    Compiled,
    access_path,
    compile_expr,
    compile_select,
    projection_names,
)
from repro.ris.relational.parser import parse_sql
from repro.ris.relational.storage import Catalog, Row, Table
from repro.ris.relational.transactions import TransactionManager
from repro.ris.relational.triggers import (
    TriggerCallback,
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

    def first(self) -> Optional[tuple[Any, ...]]:
        """The first row, or None."""
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """The single value of a single-row, single-column result."""
        first = self.first()
        return first[0] if first else None


#: A bound statement: its placeholder count and its per-call runner.
_Bound = tuple[int, Callable[[Sequence[Any]], ResultSet]]


class RelationalDatabase(RawInformationSource):
    """A complete (mini) SQL database server."""

    kind = "relational"

    def __init__(self, name: str):
        super().__init__(name)
        self.catalog = Catalog()
        self.triggers = TriggerManager()
        self.transactions = TransactionManager()
        self._available = True
        self._busy = False
        self.statements_executed = 0
        self._statements: dict[str, _Bound] = {}

    def capabilities(self) -> Capability:
        """Everything: the richest source in the federation."""
        return (
            Capability.READ
            | Capability.WRITE
            | Capability.INSERT_DELETE
            | Capability.NOTIFY
            | Capability.LOCAL_CONDITIONS
            | Capability.LOCAL_CONSTRAINTS
            | Capability.TRANSACTIONS
        )

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

    @staticmethod
    def _check_constraints(
        table: Table, checks: tuple[Compiled, ...], row: Row, changes: Row
    ) -> None:
        candidate = {**row, **changes}
        for check in checks:
            if not check(candidate, ()):
                raise ConstraintViolationError(
                    f"CHECK constraint failed on {table.name!r}"
                )

    def _fire_or_defer(self, triggers, operation: str, old_row, new_row) -> None:
        transaction = self.transactions.current
        for trigger in triggers:
            event = TriggerEvent(
                trigger.name,
                trigger.table,
                operation,
                dict(old_row) if old_row is not None else None,
                dict(new_row) if new_row is not None else None,
            )
            if transaction is not None:
                transaction.defer_trigger(trigger, event)
            elif trigger.callback is not None:
                trigger.callback(event)

    def _bind_select(self, statement: Select):
        table = self.catalog.table(statement.table)
        names = projection_names(table, statement)
        select = compile_select(table, statement)

        def run(params: Sequence[Any]) -> ResultSet:
            rows = select(params)
            return ResultSet(columns=list(names), rows=rows, rowcount=len(rows))

        return run

    def _bind_insert(self, statement: Insert):
        table = self.catalog.table(statement.table)
        names = statement.columns or tuple(table.columns)
        blank = dict.fromkeys(table.columns)
        # VALUES read no row: a column named in one is unknown.
        value_rows = [
            tuple(compile_expr(expr, ()) for expr in value_row)
            for value_row in statement.rows
        ]
        checks = _compile_checks(table)
        triggers = self.triggers.matching(table.name, "INSERT")

        def run(params: Sequence[Any]) -> ResultSet:
            for value_row in value_rows:
                if len(names) != len(value_row):
                    raise CatalogError(
                        f"INSERT has {len(names)} column(s) but "
                        f"{len(value_row)} value(s)"
                    )
                values = {}
                for name, value in zip(names, value_row):
                    values[name] = value(None, params)
                if checks:
                    self._check_constraints(table, checks, blank, values)
                rowid = table.insert_row(values)
                transaction = self.transactions.current
                if transaction is not None:
                    transaction.log_undo(lambda rid=rowid: table.delete_row(rid))
                if triggers:
                    self._fire_or_defer(triggers, "INSERT", None, table.rows[rowid])
            return ResultSet(rowcount=len(value_rows))

        return run

    def _bind_update(self, statement: Update):
        table = self.catalog.table(statement.table)
        matching = access_path(table, statement.where)
        assignments = []
        for name, expr in statement.assignments:
            table.require_column(name)
            assignments.append((name, compile_expr(expr, table.columns)))
        checks = _compile_checks(table)
        assigned = frozenset(name for name, __ in statement.assignments)
        triggers = self.triggers.matching(table.name, "UPDATE", assigned)

        def run(params: Sequence[Any]) -> ResultSet:
            matched = matching(params)
            for rowid, row in matched:
                changes = {}
                for name, value in assignments:
                    changes[name] = value(row, params)
                if checks:
                    self._check_constraints(table, checks, row, changes)
                old, new = table.update_row(rowid, changes)
                transaction = self.transactions.current
                if transaction is not None:
                    undo = {name: old[name] for name in changes}
                    transaction.log_undo(
                        lambda rid=rowid, c=undo: table.update_row(rid, c)
                    )
                if triggers:
                    self._fire_or_defer(triggers, "UPDATE", old, new)
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
                transaction = self.transactions.current
                if transaction is not None:
                    transaction.log_undo(
                        lambda rid=rowid, r=old: table.restore_row(rid, r)
                    )
                if triggers:
                    self._fire_or_defer(triggers, "DELETE", old, None)
            return ResultSet(rowcount=len(matched))

        return run

    # -- DDL and transaction control ---------------------------------------------

    def _drop_table(self, statement: DropTable) -> None:
        self.catalog.drop_table(statement.name)
        self.triggers.drop_table(statement.name)

    def _create_index(self, statement: CreateIndex) -> None:
        table = self.catalog.table(statement.table)
        if statement.unique:
            table.add_hash_index(statement.column, unique=True)
        else:
            table.add_hash_index(statement.column)
            table.add_ordered_index(statement.column)

    def _create_trigger(self, statement: CreateTrigger) -> None:
        table = self.catalog.table(statement.table)  # the table must exist
        if statement.column is not None:
            table.require_column(statement.column)
        self.triggers.create(
            statement.name, statement.operation, statement.table, statement.column
        )

    def _commit(self, statement: CommitTransaction) -> None:
        for trigger, event in self.transactions.commit():
            if trigger.callback is not None:
                trigger.callback(event)


def _compile_checks(table: Table) -> tuple[Compiled, ...]:
    """The table's CHECK constraints, compiled against its columns."""
    return tuple(compile_expr(check, table.columns) for check in table.checks)


def _action(apply: Callable[[RelationalDatabase, Any], None], ddl: bool = False):
    """Binder for a statement with nothing to resolve: the runner applies it
    and, for DDL, drops every bound statement of that database."""

    def bind(db: RelationalDatabase, statement):
        def run(params: Sequence[Any]) -> ResultSet:
            apply(db, statement)
            if ddl:
                db._statements.clear()
            return ResultSet()

        return run

    return bind


_BINDERS = {
    Select: RelationalDatabase._bind_select,
    Insert: RelationalDatabase._bind_insert,
    Update: RelationalDatabase._bind_update,
    Delete: RelationalDatabase._bind_delete,
    CreateTable: _action(
        lambda db, s: db.catalog.create_table(s.name, s.columns, s.checks), ddl=True
    ),
    DropTable: _action(RelationalDatabase._drop_table, ddl=True),
    CreateIndex: _action(RelationalDatabase._create_index, ddl=True),
    CreateTrigger: _action(RelationalDatabase._create_trigger, ddl=True),
    DropTrigger: _action(lambda db, s: db.triggers.drop(s.name), ddl=True),
    BeginTransaction: _action(lambda db, s: db.transactions.begin()),
    CommitTransaction: _action(RelationalDatabase._commit),
    RollbackTransaction: _action(lambda db, s: db.transactions.rollback()),
}
