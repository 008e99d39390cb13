"""Randomized checks of how the relational RIS evaluates SQL expressions.

SQLite compiles a statement's expressions when it prepares the statement.
Over generated ``WHERE`` expressions — literals, typed columns, ``?``
placeholders, NULLs, the six comparisons, ``AND`` / ``OR`` / ``NOT`` and
``IS [NOT] NULL`` — on random rows and parameters, the value SQLite selects
must be the one SQL's three-valued logic gives (:func:`reference`), NULLs
included.  The directed tests pin what compiling at prepare adds: column
references and placeholders resolve before any row is read.
"""

import operator
import random

import pytest

from repro.ris.base import RISErrorCode
from repro.ris.relational import RelationalDatabase
from repro.ris.relational.errors import CatalogError, SqlError

#: Column -> the values it may hold; comparisons stay within one group.
COLUMNS = {"a": "number", "b": "number", "s": "text"}
VALUES = {"number": [0, 1, 2, -3, 2.5], "text": ["x", "ab", ""]}
COMPARISONS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def random_operand(rng, group, params):
    kind = rng.choice(["literal", "column", "param", "null"])
    if kind == "column":
        name = rng.choice([c for c, g in COLUMNS.items() if g == group])
        return name, lambda row: row[name]
    if kind == "param":
        value = rng.choice(VALUES[group] + [None])
        params.append(value)
        return "?", lambda row: value
    value = None if kind == "null" else rng.choice(VALUES[group])
    text = "NULL" if value is None else repr(value)
    return text, lambda row: value


def random_expr(rng, params, depth=0):
    """``(sql, reference)``: the text and its three-valued meaning, a
    function of the row returning True, False or None (NULL)."""
    kinds = ["compare", "compare", "is_null"]
    if depth < 3:
        kinds += ["and", "or", "not"]
    kind = rng.choice(kinds)
    if kind == "compare":
        group = rng.choice(["number", "text"])
        (left, lhs), (right, rhs) = (
            random_operand(rng, group, params),
            random_operand(rng, group, params),
        )
        op = rng.choice(list(COMPARISONS))
        compare = COMPARISONS[op]

        def comparison(row):
            x, y = lhs(row), rhs(row)
            return None if x is None or y is None else compare(x, y)

        return f"{left} {op} {right}", comparison
    if kind == "is_null":
        negated = rng.random() < 0.5
        text, value = random_operand(rng, rng.choice(["number", "text"]), params)
        if negated:
            return f"{text} IS NOT NULL", lambda row: value(row) is not None
        return f"{text} IS NULL", lambda row: value(row) is None
    if kind == "not":
        text, inner = random_expr(rng, params, depth + 1)
        return f"NOT ({text})", lambda row: None if inner(row) is None else not inner(row)
    left, lhs = random_expr(rng, params, depth + 1)
    right, rhs = random_expr(rng, params, depth + 1)
    if kind == "and":
        return f"({left}) AND ({right})", lambda row: reference_and(lhs(row), rhs(row))
    return f"({left}) OR ({right})", lambda row: reference_or(lhs(row), rhs(row))


def reference_and(x, y):
    if x is False or y is False:
        return False
    return None if x is None or y is None else True


def reference_or(x, y):
    if x is True or y is True:
        return True
    return None if x is None or y is None else False


def reference(expr, row):
    """The expression's value as SQLite reports it: 1, 0 or None."""
    value = expr(row)
    return None if value is None else int(value)


@pytest.mark.parametrize("seed", range(8))
def test_random_expression_equivalence(seed):
    rng = random.Random(seed)
    db = RelationalDatabase("exprs")
    db.execute("CREATE TABLE t (a INTEGER, b REAL, s TEXT)")
    rows = []
    for __ in range(8):
        row = {
            "a": rng.choice([0, 1, 2, -3, None]),
            "b": rng.choice([0.0, 1.0, 2.5, -3.0, None]),
            "s": rng.choice(VALUES["text"] + [None]),
        }
        db.execute("INSERT INTO t (a, b, s) VALUES (?, ?, ?)", tuple(row.values()))
        rows.append(row)
    for __ in range(150):
        params: list = []
        text, expr = random_expr(rng, params)
        got = [value for (value,) in db.query(f"SELECT ({text}) FROM t", params)]
        expected = [reference(expr, row) for row in rows]
        assert got == expected, f"{text} with {params}"
        selected = db.query(f"SELECT rowid FROM t WHERE {text}", params)
        assert [rowid for (rowid,) in selected] == [
            at for at, value in enumerate(expected, start=1) if value
        ], f"WHERE {text} with {params}"


class TestCompileTimeResolution:
    @pytest.fixture
    def db(self) -> RelationalDatabase:
        database = RelationalDatabase("resolution")
        database.execute("CREATE TABLE t (a INTEGER, b REAL, s TEXT)")
        return database

    def test_an_unknown_column_raises_when_compiling(self, db):
        with pytest.raises(CatalogError):  # the table is empty
            db.query("SELECT a FROM t WHERE nope = 1")

    def test_even_where_evaluation_would_never_reach_it(self, db):
        db.execute("INSERT INTO t (a) VALUES (1)")
        assert db.query("SELECT a FROM t WHERE 1 = 0 AND a = 1") == []
        with pytest.raises(CatalogError):
            db.query("SELECT a FROM t WHERE 1 = 0 AND nope = 1")

    def test_values_compile_against_no_columns(self, db):
        db.execute("INSERT INTO t (a, s) VALUES (?, ?)", (1, "y"))
        assert db.query("SELECT s FROM t") == [("y",)]
        with pytest.raises(CatalogError):
            db.execute("INSERT INTO t (a) VALUES (b)")

    def test_a_missing_placeholder_raises_when_evaluated(self, db):
        with pytest.raises(SqlError) as raised:  # before any row is read
            db.query("SELECT a FROM t WHERE a = ? AND b = ?", (1,))
        assert raised.value.code is RISErrorCode.INVALID_REQUEST
