"""Randomized compiled-vs-interpreted equivalence for SQL expressions.

A bound statement evaluates its ``WHERE``, ``SET``, ``VALUES`` and
projections through :func:`compile_expr`'s closures; :func:`evaluate_expr`
is the tree-walking specification.  Over generated expressions — literals,
columns, ``?`` placeholders, NULLs, the six comparisons, ``AND`` / ``OR`` /
``NOT``, arithmetic, ``IS [NOT] NULL``, ``IN``, ``BETWEEN``, ``LIKE`` — on
random rows and parameter tuples, the closure must return the same value
(of the same type) as the specification, or raise the same exception class
with the same :class:`RISErrorCode`.  The directed tests pin what compiling
adds: column references resolve when the expression compiles.
"""

import random

import pytest

from repro.ris.base import RISError
from repro.ris.relational.ast import (
    SqlAggregate,
    SqlBetween,
    SqlBinary,
    SqlColumn,
    SqlInList,
    SqlIsNull,
    SqlLike,
    SqlLiteral,
    SqlParam,
    SqlUnary,
)
from repro.ris.relational.errors import CatalogError, SqlError
from repro.ris.relational.executor import compile_expr, evaluate_expr

COLUMNS = ("a", "b", "s")
VALUES = [None, 0, 1, 2.5, -3, "x", "ab", "a%", True, False]
PATTERNS = ["a%", "_b", "%", "x", None]
COMPARISONS = ["=", "!=", "<", "<=", ">", ">="]


def random_expr(rng, depth=0):
    leaves = ["literal", "column", "param", "null"]
    kinds = leaves
    if depth < 3:
        kinds = leaves + [
            "compare", "compare", "logic", "not", "neg", "arith",
            "is_null", "in", "between", "like",
        ]
    kind = rng.choice(kinds)
    if kind == "literal":
        return SqlLiteral(rng.choice(VALUES))
    if kind == "null":
        return SqlLiteral(None)
    if kind == "column":
        return SqlColumn(rng.choice(COLUMNS))
    if kind == "param":
        return SqlParam(rng.randrange(3))
    sub = lambda: random_expr(rng, depth + 1)  # noqa: E731
    if kind == "compare":
        # Half the time the translator shape, ``column <op> ?`` (sometimes
        # the other way round).
        left, right = sub(), sub()
        if rng.random() < 0.5:
            left, right = SqlColumn(rng.choice(COLUMNS)), SqlParam(rng.randrange(3))
            if rng.random() < 0.3:
                left, right = right, left
        return SqlBinary(rng.choice(COMPARISONS), left, right)
    if kind == "logic":
        return SqlBinary(rng.choice(["AND", "OR"]), sub(), sub())
    if kind == "not":
        return SqlUnary("NOT", sub())
    if kind == "neg":
        return SqlUnary("-", sub())
    if kind == "arith":
        return SqlBinary(rng.choice(["+", "-", "*", "/"]), sub(), sub())
    negated = rng.random() < 0.5
    if kind == "is_null":
        return SqlIsNull(sub(), negated)
    if kind == "in":
        members = tuple(sub() for __ in range(rng.randint(1, 3)))
        return SqlInList(sub(), members, negated)
    if kind == "between":
        return SqlBetween(sub(), sub(), sub(), negated)
    pattern = rng.choice([SqlLiteral(rng.choice(PATTERNS)), sub()])
    return SqlLike(sub(), pattern, negated)


def outcome(fn, *args):
    """A value with its type, or the exception class and its RIS code."""
    try:
        value = fn(*args)
    except RISError as error:
        return ("raise", type(error).__name__, error.code)
    except (TypeError, ZeroDivisionError) as error:
        return ("raise", type(error).__name__, None)
    return ("ok", type(value).__name__, value)


@pytest.mark.parametrize("seed", range(8))
def test_random_expression_equivalence(seed):
    rng = random.Random(seed)
    for __ in range(300):
        expr = random_expr(rng)
        compiled = compile_expr(expr, COLUMNS)
        for ___ in range(8):
            row = {name: rng.choice(VALUES) for name in COLUMNS}
            params = tuple(rng.choice(VALUES) for ____ in range(rng.randint(0, 3)))
            expected = outcome(evaluate_expr, expr, row, params)
            got = outcome(compiled, row, params)
            assert got == expected, (
                f"{expr} on {row} with {params}: compiled {got} != "
                f"interpreted {expected}"
            )


class TestCompileTimeResolution:
    def test_an_unknown_column_raises_when_compiling(self):
        with pytest.raises(CatalogError):
            compile_expr(SqlColumn("nope"), COLUMNS)

    def test_even_where_evaluation_would_never_reach_it(self):
        # evaluate_expr short-circuits past the column; binding does not.
        expr = SqlBinary(
            "AND",
            SqlLiteral(False),
            SqlBinary("=", SqlColumn("nope"), SqlParam(0)),
        )
        assert evaluate_expr(expr, {"a": 1}, (1,)) is False
        with pytest.raises(CatalogError):
            compile_expr(expr, COLUMNS)

    def test_values_compile_against_no_columns(self):
        assert compile_expr(SqlParam(1), ())({}, ("x", "y")) == "y"
        with pytest.raises(CatalogError):
            compile_expr(SqlColumn("a"), ())

    def test_a_missing_placeholder_raises_when_evaluated(self):
        compiled = compile_expr(
            SqlBinary("=", SqlColumn("a"), SqlParam(1)), COLUMNS
        )
        with pytest.raises(SqlError) as raised:
            compiled({"a": 1, "b": 2, "s": "x"}, (1,))
        assert "placeholder #2" in str(raised.value)

    def test_an_aggregate_falls_back_to_the_specification(self):
        compiled = compile_expr(SqlAggregate("COUNT", None), COLUMNS)
        with pytest.raises(SqlError, match="aggregate used outside"):
            compiled({"a": 1, "b": 2, "s": "x"}, ())
