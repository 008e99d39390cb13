"""Expression evaluation and statement execution.

Evaluation uses a pragmatic NULL treatment: any comparison involving NULL is
false, ``IS [NOT] NULL`` tests directly.  ``WHERE`` planning looks a row up
by its primary key when the clause (or one of its AND-conjuncts) is
``key = constant``; otherwise it scans.

:func:`evaluate_expr` is the tree-walking specification.  A bound statement
runs :func:`compile_expr`'s closures instead: the same values and errors,
with the tree walked and every column reference resolved once, at bind.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Any, Callable, Collection, Iterable, Optional, Sequence

from repro.ris.relational.ast import (
    OrderItem,
    Select,
    SqlBinary,
    SqlColumn,
    SqlExpr,
    SqlIsNull,
    SqlLiteral,
    SqlNot,
    SqlParam,
)
from repro.ris.relational.errors import CatalogError, SqlError
from repro.ris.relational.storage import Row, Table
from repro.ris.base import RISErrorCode

_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def evaluate_expr(expr: SqlExpr, row: Row, params: Sequence[Any]) -> Any:
    """Evaluate an expression against one row."""
    if isinstance(expr, SqlLiteral):
        return expr.value
    if isinstance(expr, SqlColumn):
        if expr.name not in row:
            raise _no_such_column(expr)
        return row[expr.name]
    if isinstance(expr, SqlParam):
        if expr.index >= len(params):
            raise _missing_param(expr, params)
        return params[expr.index]
    if isinstance(expr, SqlNot):
        return not evaluate_expr(expr.operand, row, params)
    if isinstance(expr, SqlBinary):
        if expr.op == "AND":
            return bool(evaluate_expr(expr.left, row, params)) and bool(
                evaluate_expr(expr.right, row, params)
            )
        if expr.op == "OR":
            return bool(evaluate_expr(expr.left, row, params)) or bool(
                evaluate_expr(expr.right, row, params)
            )
        left = evaluate_expr(expr.left, row, params)
        right = evaluate_expr(expr.right, row, params)
        if expr.op in _COMPARE:
            if left is None or right is None:
                return False
            return _COMPARE[expr.op](left, right)
        raise SqlError(RISErrorCode.INVALID_REQUEST, f"bad operator {expr.op!r}")
    if isinstance(expr, SqlIsNull):
        value = evaluate_expr(expr.operand, row, params)
        return (value is not None) if expr.negated else (value is None)
    raise SqlError(RISErrorCode.INVALID_REQUEST, f"bad expression {expr!r}")


def _no_such_column(column: SqlColumn) -> CatalogError:
    return CatalogError(f"no such column: {column.name!r}")


def _missing_param(param: SqlParam, params: Sequence[Any]) -> SqlError:
    return SqlError(
        RISErrorCode.INVALID_REQUEST,
        f"statement has placeholder #{param.index + 1} but only "
        f"{len(params)} parameter(s) were supplied",
    )


# -- compiled expressions ---------------------------------------------------------

#: A compiled expression: ``(row, params) -> value``.  ``row`` is ``None``
#: where the expression was compiled against no columns and reads none.
Compiled = Callable[[Optional[Row], Sequence[Any]], Any]


def compile_expr(expr: SqlExpr, columns: Collection[str]) -> Compiled:
    """``expr`` as a closure with :func:`evaluate_expr`'s values, NULL
    treatment and exceptions, minus the per-row tree walk.

    Column references resolve against ``columns`` here: an unknown name
    raises :class:`CatalogError` now, whatever rows the table holds, and
    the closure reads ``row[name]`` — every row it is given must carry all
    of ``columns``.  A shape with no compiled form (an unknown operator)
    defers to :func:`evaluate_expr`, which raises for it.
    """
    if isinstance(expr, SqlLiteral):
        value = expr.value
        return lambda row, params: value
    if isinstance(expr, SqlColumn):
        if expr.name not in columns:
            raise _no_such_column(expr)
        name = expr.name
        return lambda row, params: row[name]
    if isinstance(expr, SqlParam):
        index = expr.index

        def param(row: Row, params: Sequence[Any]) -> Any:
            try:
                return params[index]
            except IndexError:
                raise _missing_param(expr, params) from None

        return param
    if isinstance(expr, SqlNot):
        operand = compile_expr(expr.operand, columns)
        return lambda row, params: not operand(row, params)
    if isinstance(expr, SqlBinary) and expr.op in _COMPARE:
        return _compile_comparison(expr, columns)
    if isinstance(expr, SqlBinary) and expr.op in ("AND", "OR"):
        left = compile_expr(expr.left, columns)
        right = compile_expr(expr.right, columns)
        if expr.op == "AND":
            return lambda row, params: bool(left(row, params)) and bool(
                right(row, params)
            )
        return lambda row, params: bool(left(row, params)) or bool(
            right(row, params)
        )
    if isinstance(expr, SqlIsNull):
        operand = compile_expr(expr.operand, columns)
        if expr.negated:
            return lambda row, params: operand(row, params) is not None
        return lambda row, params: operand(row, params) is None
    return partial(evaluate_expr, expr)


def _compile_comparison(expr: SqlBinary, columns: Collection[str]) -> Compiled:
    compare = _COMPARE[expr.op]
    column, param = expr.left, expr.right
    if isinstance(column, SqlColumn) and isinstance(param, SqlParam):
        # ``column <op> ?``, every translator statement's WHERE: one call.
        if column.name not in columns:
            raise _no_such_column(column)
        name, index = column.name, param.index

        def column_vs_param(row: Row, params: Sequence[Any]) -> bool:
            try:
                constant = params[index]
            except IndexError:
                raise _missing_param(param, params) from None
            value = row[name]
            if value is None or constant is None:
                return False
            return compare(value, constant)

        return column_vs_param
    left = compile_expr(expr.left, columns)
    right = compile_expr(expr.right, columns)

    def comparison(row: Row, params: Sequence[Any]) -> bool:
        a, b = left(row, params), right(row, params)
        if a is None or b is None:
            return False
        return compare(a, b)

    return comparison


# -- access paths and SELECT -------------------------------------------------------

#: A bound WHERE clause: ``params -> [(rowid, row), ...]`` satisfying it.
Matcher = Callable[[Sequence[Any]], list[tuple[int, Row]]]


def access_path(table: Table, where: Optional[SqlExpr]) -> Matcher:
    """The WHERE clause bound to this table: every (rowid, row) satisfying it.

    Worked out once per bound statement: the predicate and the key probes
    are compiled here.  A probe is a ``key = constant`` predicate on the
    table's primary key, as the WHERE clause itself or as an AND-conjunct
    of it.  Per call, the first probe whose constant is not NULL supplies
    the candidate row and the whole predicate is still applied to it, so
    the key lookup is purely an access-path optimization.
    """
    rows = table.rows
    if where is None:
        return lambda params: list(rows.items())
    predicate = compile_expr(where, table.columns)
    keys = table.keys
    probes = [
        probe
        for probe in (_key_probe(table, conjunct) for conjunct in _conjuncts(where))
        if probe is not None
    ]

    def matching(params: Sequence[Any]) -> list[tuple[int, Row]]:
        candidates: Iterable[int] = rows
        for constant in probes:
            value = constant(None, params)  # a literal or ``?``: reads no row
            if value is not None:
                rowid = keys.get(value)
                candidates = () if rowid is None else (rowid,)
                break
        matched = []
        for rowid in candidates:
            row = rows[rowid]
            if predicate(row, params):
                matched.append((rowid, row))
        return matched

    return matching


def _conjuncts(expr: SqlExpr) -> Iterable[SqlExpr]:
    if isinstance(expr, SqlBinary) and expr.op == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _key_probe(table: Table, predicate: SqlExpr) -> Optional[Compiled]:
    """The compiled constant of a ``key = constant`` predicate, or None."""
    if not isinstance(predicate, SqlBinary) or predicate.op != "=":
        return None
    for column, constant in (
        (predicate.left, predicate.right),
        (predicate.right, predicate.left),
    ):
        if (
            isinstance(column, SqlColumn)
            and column.name == table.primary_key
            and isinstance(constant, (SqlLiteral, SqlParam))
        ):
            return compile_expr(constant, ())
    return None


def compile_select(
    table: Table, statement: Select
) -> tuple[list[str], Callable[[Sequence[Any]], list[tuple[Any, ...]]]]:
    """Bind a SELECT to this table: its result column names, and
    ``params -> result rows``.  Every column the statement names resolves
    here."""
    matching = access_path(table, statement.where)
    names = list(statement.columns or table.columns)
    for name in names:
        table.require_column(name)
    order_by = statement.order_by
    for item in order_by:
        table.require_column(item.column)

    def select(params: Sequence[Any]) -> list[tuple[Any, ...]]:
        rows = [row for __, row in matching(params)]
        if order_by:
            rows = _apply_order(rows, order_by)
        return [tuple(map(row.__getitem__, names)) for row in rows]

    return names, select


def _apply_order(rows: list[Row], order_by: tuple[OrderItem, ...]) -> list[Row]:
    ordered = list(rows)
    # Sort by the last key first so earlier keys dominate (stable sort).
    for item in reversed(order_by):
        ordered.sort(
            key=lambda row: (row[item.column] is None, row[item.column]),
            reverse=item.descending,
        )
    return ordered
