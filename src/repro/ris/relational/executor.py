"""Expression evaluation and statement execution.

Evaluation uses a pragmatic NULL treatment: any comparison involving NULL is
false, arithmetic over NULL yields NULL, ``IS [NOT] NULL`` tests directly.
``WHERE`` planning prefers a unique/hash index for equality predicates and
an ordered index for range predicates; otherwise it scans.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from typing import Any, Callable, Iterable, Optional, Sequence

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
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def evaluate_expr(expr: SqlExpr, row: Row, params: Sequence[Any]) -> Any:
    """Evaluate an expression against one row."""
    if isinstance(expr, SqlLiteral):
        return expr.value
    if isinstance(expr, SqlColumn):
        if expr.name not in row:
            raise CatalogError(f"no such column: {expr.name!r}")
        return row[expr.name]
    if isinstance(expr, SqlParam):
        if expr.index >= len(params):
            raise SqlError(
                RISErrorCode.INVALID_REQUEST,
                f"statement has placeholder #{expr.index + 1} but only "
                f"{len(params)} parameter(s) were supplied",
            )
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


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

_RANGE = {
    "<": lambda index, value: index.range(high=value, include_high=False),
    "<=": lambda index, value: index.range(high=value),
    ">": lambda index, value: index.range(low=value, include_low=False),
    ">=": lambda index, value: index.range(low=value),
}

#: One index probe: (rowids for a constant, the literal/placeholder supplying it).
Probe = tuple[Callable[[Any], Iterable[int]], SqlExpr]


def access_path(table: Table, where: Optional[SqlExpr]) -> tuple[Probe, ...]:
    """The index probes a WHERE clause admits on this table, in order.

    Recognizes equality and range predicates of the shape
    ``column <op> constant`` appearing as the WHERE clause itself or as an
    AND-conjunct of it, where the table has a fitting index.  Worked out
    once per bound statement; :func:`matching_rows` takes the first probe
    whose constant is not NULL and still applies the whole predicate to
    each candidate row, so this is purely an access-path optimization.
    """
    if where is None:
        return ()
    probes = (_index_probe(table, conjunct) for conjunct in _conjuncts(where))
    return tuple(probe for probe in probes if probe is not None)


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
        lookup = table.hash_indexes[column.name].lookup
        return (lambda value: sorted(lookup(value))), constant
    if op in _RANGE and column.name in table.ordered_indexes:
        return partial(_RANGE[op], table.ordered_indexes[column.name]), constant
    return None


def matching_rows(
    table: Table,
    where: Optional[SqlExpr],
    probes: tuple[Probe, ...],
    params: Sequence[Any],
) -> list[tuple[int, Row]]:
    """All (rowid, row) pairs satisfying the WHERE clause."""
    rows = table.rows
    for lookup, constant in probes:
        value = evaluate_expr(constant, {}, params)
        if value is not None:
            pairs = [(rid, rows[rid]) for rid in lookup(value) if rid in rows]
            break
    else:
        pairs = list(rows.items())
    if where is None:
        return pairs
    return [
        (rid, row)
        for rid, row in pairs
        if _truthy(evaluate_expr(where, row, params))
    ]


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


def run_select(
    table: Table,
    statement: Select,
    probes: tuple[Probe, ...],
    params: Sequence[Any],
) -> list[tuple[Any, ...]]:
    """Execute a SELECT, returning its result rows."""
    matched = matching_rows(table, statement.where, probes, params)
    rows = [row for __, row in matched]
    if statement.order_by:
        rows = _apply_order(table, rows, statement.order_by)
    if statement.is_aggregate:
        return [_run_aggregates(statement, rows, params)]
    if statement.is_star:
        names = table.column_names
        result = [tuple(row[name] for name in names) for row in rows]
    else:
        result = [
            tuple(
                evaluate_expr(item.expr, row, params)
                for item in statement.items
            )
            for row in rows
        ]
    if statement.distinct:
        seen: set = set()
        deduped = []
        for row_tuple in result:
            if row_tuple not in seen:
                seen.add(row_tuple)
                deduped.append(row_tuple)
        result = deduped
    if statement.limit is not None:
        result = result[: statement.limit]
    return result


def _apply_order(
    table: Table, rows: list[Row], order_by: tuple[OrderItem, ...]
) -> list[Row]:
    ordered = list(rows)
    # Sort by the last key first so earlier keys dominate (stable sort).
    for item in reversed(order_by):
        table.require_column(item.column)
        ordered.sort(
            key=lambda row: (row[item.column] is None, row[item.column]),
            reverse=item.descending,
        )
    return ordered


def _run_aggregates(
    statement: Select, rows: list[Row], params: Sequence[Any]
) -> tuple[Any, ...]:
    values: list[Any] = []
    for item in statement.items:
        expr = item.expr
        if not isinstance(expr, SqlAggregate):
            raise SqlError(
                RISErrorCode.INVALID_REQUEST,
                "cannot mix aggregates and plain expressions "
                "(no GROUP BY support)",
            )
        if expr.argument is None:
            values.append(len(rows))
            continue
        observed = [
            evaluate_expr(expr.argument, row, params)
            for row in rows
        ]
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
