"""Expression evaluation and statement execution.

Evaluation uses a pragmatic NULL treatment: any comparison involving NULL is
false, arithmetic over NULL yields NULL, ``IS [NOT] NULL`` tests directly.
``WHERE`` planning prefers a unique/hash index for equality predicates and
an ordered index for range predicates; otherwise it scans.

:func:`evaluate_expr` is the tree-walking specification.  A bound statement
runs :func:`compile_expr`'s closures instead: the same values and errors,
with the tree walked and every column reference resolved once, at bind.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache, partial
from typing import Any, Callable, Collection, Iterable, Optional, Sequence

from repro.ris.relational.ast import (
    OrderItem,
    Select,
    SqlAggregate,
    SqlBetween,
    SqlBinary,
    SqlColumn,
    SqlExpr,
    SqlInList,
    SqlIsNull,
    SqlLike,
    SqlLiteral,
    SqlParam,
    SqlUnary,
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

_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
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
    if isinstance(expr, SqlUnary):
        value = evaluate_expr(expr.operand, row, params)
        if expr.op == "-":
            return None if value is None else -value
        if expr.op == "NOT":
            return not _truthy(value)
        raise SqlError(RISErrorCode.INVALID_REQUEST, f"bad unary op {expr.op!r}")
    if isinstance(expr, SqlBinary):
        if expr.op == "AND":
            return _truthy(evaluate_expr(expr.left, row, params)) and _truthy(
                evaluate_expr(expr.right, row, params)
            )
        if expr.op == "OR":
            return _truthy(evaluate_expr(expr.left, row, params)) or _truthy(
                evaluate_expr(expr.right, row, params)
            )
        left = evaluate_expr(expr.left, row, params)
        right = evaluate_expr(expr.right, row, params)
        if expr.op in _COMPARE:
            if left is None or right is None:
                return False
            return _COMPARE[expr.op](left, right)
        if expr.op in _ARITH:
            if left is None or right is None:
                return None
            return _ARITH[expr.op](left, right)
        raise SqlError(RISErrorCode.INVALID_REQUEST, f"bad operator {expr.op!r}")
    if isinstance(expr, SqlIsNull):
        value = evaluate_expr(expr.operand, row, params)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, SqlInList):
        value = evaluate_expr(expr.operand, row, params)
        if value is None:
            return False
        members = [evaluate_expr(v, row, params) for v in expr.values]
        result = value in members
        return not result if expr.negated else result
    if isinstance(expr, SqlBetween):
        value = evaluate_expr(expr.operand, row, params)
        low = evaluate_expr(expr.low, row, params)
        high = evaluate_expr(expr.high, row, params)
        if value is None or low is None or high is None:
            return False
        result = low <= value <= high
        return not result if expr.negated else result
    if isinstance(expr, SqlLike):
        value = evaluate_expr(expr.operand, row, params)
        pattern = evaluate_expr(expr.pattern, row, params)
        if value is None or pattern is None:
            return False
        result = _like_regex(str(pattern)).fullmatch(str(value)) is not None
        return not result if expr.negated else result
    if isinstance(expr, SqlAggregate):
        raise SqlError(
            RISErrorCode.INVALID_REQUEST,
            "aggregate used outside a SELECT projection",
        )
    raise SqlError(RISErrorCode.INVALID_REQUEST, f"bad expression {expr!r}")


@lru_cache(maxsize=256)
def _like_regex(pattern: str) -> re.Pattern:
    """SQL LIKE: ``%`` matches any run, ``_`` any single character."""
    return re.compile(
        "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pattern
        )
    )


def _truthy(value: Any) -> bool:
    return bool(value) and value is not None


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
    of ``columns``.  A shape with no compiled form (an aggregate outside a
    projection, an unknown operator) defers to :func:`evaluate_expr`,
    which raises for it.
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
    if isinstance(expr, SqlUnary) and expr.op in ("-", "NOT"):
        operand = compile_expr(expr.operand, columns)
        if expr.op == "NOT":
            return lambda row, params: not operand(row, params)

        def negate(row: Row, params: Sequence[Any]) -> Any:
            value = operand(row, params)
            return None if value is None else -value

        return negate
    if isinstance(expr, SqlBinary) and expr.op in _COMPARE:
        return _compile_comparison(expr, columns)
    if isinstance(expr, SqlBinary) and expr.op in ("AND", "OR", *_ARITH):
        left = compile_expr(expr.left, columns)
        right = compile_expr(expr.right, columns)
        if expr.op == "AND":
            return lambda row, params: bool(left(row, params)) and bool(
                right(row, params)
            )
        if expr.op == "OR":
            return lambda row, params: bool(left(row, params)) or bool(
                right(row, params)
            )
        apply = _ARITH[expr.op]

        def arithmetic(row: Row, params: Sequence[Any]) -> Any:
            a, b = left(row, params), right(row, params)
            if a is None or b is None:
                return None
            return apply(a, b)

        return arithmetic
    if isinstance(expr, SqlIsNull):
        operand = compile_expr(expr.operand, columns)
        if expr.negated:
            return lambda row, params: operand(row, params) is not None
        return lambda row, params: operand(row, params) is None
    if isinstance(expr, SqlInList):
        return _compile_in_list(expr, columns)
    if isinstance(expr, SqlBetween):
        return _compile_between(expr, columns)
    if isinstance(expr, SqlLike):
        return _compile_like(expr, columns)
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


def _compile_in_list(expr: SqlInList, columns: Collection[str]) -> Compiled:
    operand = compile_expr(expr.operand, columns)
    members = tuple(compile_expr(value, columns) for value in expr.values)
    negated = expr.negated

    def in_list(row: Row, params: Sequence[Any]) -> bool:
        value = operand(row, params)
        if value is None:
            return False
        result = value in [member(row, params) for member in members]
        return not result if negated else result

    return in_list


def _compile_between(expr: SqlBetween, columns: Collection[str]) -> Compiled:
    operand = compile_expr(expr.operand, columns)
    low_of = compile_expr(expr.low, columns)
    high_of = compile_expr(expr.high, columns)
    negated = expr.negated

    def between(row: Row, params: Sequence[Any]) -> bool:
        value = operand(row, params)
        low, high = low_of(row, params), high_of(row, params)
        if value is None or low is None or high is None:
            return False
        result = low <= value <= high
        return not result if negated else result

    return between


def _compile_like(expr: SqlLike, columns: Collection[str]) -> Compiled:
    operand = compile_expr(expr.operand, columns)
    pattern_of = compile_expr(expr.pattern, columns)
    negated = expr.negated

    def like(row: Row, params: Sequence[Any]) -> bool:
        value, pattern = operand(row, params), pattern_of(row, params)
        if value is None or pattern is None:
            return False
        result = _like_regex(str(pattern)).fullmatch(str(value)) is not None
        return not result if negated else result

    return like


# -- access paths and SELECT -------------------------------------------------------

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

_RANGE = {
    "<": lambda index, value: index.range(high=value, include_high=False),
    "<=": lambda index, value: index.range(high=value),
    ">": lambda index, value: index.range(low=value, include_low=False),
    ">=": lambda index, value: index.range(low=value),
}

#: One index probe: (rowids for a constant, the compiled literal/placeholder
#: supplying it).
Probe = tuple[Callable[[Any], Iterable[int]], Compiled]

#: A bound WHERE clause: ``params -> [(rowid, row), ...]`` satisfying it.
Matcher = Callable[[Sequence[Any]], list[tuple[int, Row]]]


def access_path(table: Table, where: Optional[SqlExpr]) -> Matcher:
    """The WHERE clause bound to this table: every (rowid, row) satisfying it.

    Worked out once per bound statement: the predicate and the index probes
    are compiled here.  Probes are equality and range predicates of the
    shape ``column <op> constant`` appearing as the WHERE clause itself or
    as an AND-conjunct of it, where the table has a fitting index.  Per
    call, the first probe whose constant is not NULL supplies the
    candidates and the whole predicate is still applied to each of them, so
    an index is purely an access-path optimization.
    """
    rows = table.rows
    if where is None:
        return lambda params: list(rows.items())
    predicate = compile_expr(where, table.columns)
    probes = [_index_probe(table, conjunct) for conjunct in _conjuncts(where)]
    probes = [probe for probe in probes if probe is not None]

    def matching(params: Sequence[Any]) -> list[tuple[int, Row]]:
        candidates: Iterable[int] = rows
        for lookup, constant in probes:
            value = constant(None, params)  # a literal or ``?``: reads no row
            if value is not None:
                candidates = lookup(value)
                break
        matched = []
        for rowid in candidates:
            row = rows.get(rowid)
            if row is not None and predicate(row, params):
                matched.append((rowid, row))
        return matched

    return matching


def _conjuncts(expr: SqlExpr) -> Iterable[SqlExpr]:
    if isinstance(expr, SqlBinary) and expr.op == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _index_probe(table: Table, predicate: SqlExpr) -> Optional[Probe]:
    if not isinstance(predicate, SqlBinary):
        return None
    column, constant, op = predicate.left, predicate.right, predicate.op
    if not isinstance(column, SqlColumn):
        column, constant, op = constant, column, _FLIPPED.get(op, op)
    if not isinstance(column, SqlColumn) or not isinstance(
        constant, (SqlLiteral, SqlParam)
    ):
        return None
    if op == "=" and column.name in table.hash_indexes:
        return table.hash_indexes[column.name].lookup, compile_expr(constant, ())
    if op in _RANGE and column.name in table.ordered_indexes:
        lookup = partial(_RANGE[op], table.ordered_indexes[column.name])
        return lookup, compile_expr(constant, ())
    return None


def projection_names(table: Table, statement: Select) -> list[str]:
    """The result column names of a SELECT on this table."""
    if statement.is_star:
        return table.column_names
    names = []
    for index, item in enumerate(statement.items, 1):
        if item.alias:
            names.append(item.alias)
        elif isinstance(item.expr, SqlColumn):
            names.append(item.expr.name)
        elif isinstance(item.expr, SqlAggregate):
            names.append(f"{item.expr.func.lower()}_{index}")
        else:
            names.append(f"expr_{index}")
    return names


def compile_select(
    table: Table, statement: Select
) -> Callable[[Sequence[Any]], list[tuple[Any, ...]]]:
    """Bind a SELECT to this table: ``params -> result rows``.

    Every column the statement names resolves here.  In an aggregate
    SELECT only the aggregates' arguments compile; a plain item among them
    raises when the statement runs, as it always has.
    """
    matching = access_path(table, statement.where)
    for item in statement.order_by:
        table.require_column(item.column)
    columns = table.columns
    names = table.column_names
    aggregates: Optional[list[tuple[SqlExpr, Optional[Compiled]]]] = None
    projection: tuple[Compiled, ...] = ()
    if statement.is_aggregate:
        aggregates = []
        for item in statement.items:
            argument = None
            if isinstance(item.expr, SqlAggregate) and item.expr.argument is not None:
                argument = compile_expr(item.expr.argument, columns)
            aggregates.append((item.expr, argument))
    elif not statement.is_star:
        projection = tuple(
            compile_expr(item.expr, columns) for item in statement.items
        )
    order_by, distinct, limit = statement.order_by, statement.distinct, statement.limit

    def select(params: Sequence[Any]) -> list[tuple[Any, ...]]:
        rows = [row for __, row in matching(params)]
        if order_by:
            rows = _apply_order(rows, order_by)
        if aggregates is not None:
            return [_run_aggregates(aggregates, rows, params)]
        if projection:
            result = [
                tuple([value(row, params) for value in projection]) for row in rows
            ]
        else:
            result = [tuple(map(row.__getitem__, names)) for row in rows]
        if distinct:
            seen: set = set()
            deduped = []
            for row_tuple in result:
                if row_tuple not in seen:
                    seen.add(row_tuple)
                    deduped.append(row_tuple)
            result = deduped
        if limit is not None:
            result = result[:limit]
        return result

    return select


def _apply_order(rows: list[Row], order_by: tuple[OrderItem, ...]) -> list[Row]:
    ordered = list(rows)
    # Sort by the last key first so earlier keys dominate (stable sort).
    for item in reversed(order_by):
        ordered.sort(
            key=lambda row: (row[item.column] is None, row[item.column]),
            reverse=item.descending,
        )
    return ordered


def _run_aggregates(
    aggregates: list[tuple[SqlExpr, Optional[Compiled]]],
    rows: list[Row],
    params: Sequence[Any],
) -> tuple[Any, ...]:
    values: list[Any] = []
    for expr, argument in aggregates:
        if not isinstance(expr, SqlAggregate):
            raise SqlError(
                RISErrorCode.INVALID_REQUEST,
                "cannot mix aggregates and plain expressions "
                "(no GROUP BY support)",
            )
        if argument is None:
            values.append(len(rows))
            continue
        observed = [argument(row, params) for row in rows]
        observed = [v for v in observed if v is not None]
        if expr.func == "COUNT":
            values.append(len(observed))
        elif not observed:
            values.append(None)
        elif expr.func == "MIN":
            values.append(min(observed))
        elif expr.func == "MAX":
            values.append(max(observed))
        elif expr.func == "SUM":
            values.append(sum(observed))
        else:
            raise SqlError(
                RISErrorCode.INVALID_REQUEST, f"bad aggregate {expr.func!r}"
            )
    return tuple(values)
