"""Tests for the SQL tokenizer and parser."""

import pytest

from repro.ris.relational.ast import (
    CreateTable,
    CreateTrigger,
    Delete,
    Insert,
    Select,
    SqlBinary,
    SqlColumn,
    SqlIsNull,
    SqlLiteral,
    SqlNot,
    SqlParam,
    Update,
)
from repro.ris.relational.errors import SqlSyntaxError
from repro.ris.relational.parser import parse_sql
from repro.ris.relational.tokenizer import tokenize_sql


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize_sql("select FROM Where")
        assert all(t.kind == "keyword" for t in tokens[:-1])

    def test_string_escaping(self):
        tokens = tokenize_sql("'it''s'")
        assert tokens[0].text == "'it''s'"

    def test_comments_skipped(self):
        tokens = tokenize_sql("SELECT -- comment\n*")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "*"]

    def test_bad_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize_sql("SELECT @")


class TestDdl:
    def test_create_table(self):
        stmt = parse_sql(
            "CREATE TABLE t (a TEXT PRIMARY KEY, b REAL NOT NULL, c BOOL)"
        )
        assert isinstance(stmt, CreateTable)
        assert [c.name for c in stmt.columns] == ["a", "b", "c"]
        assert stmt.columns[0].primary_key
        assert stmt.columns[1].not_null
        assert stmt.columns[2].type_name == "BOOLEAN"
        assert not (stmt.columns[2].primary_key or stmt.columns[2].not_null)

    def test_varchar_length_accepted(self):
        stmt = parse_sql("CREATE TABLE t (a VARCHAR(40))")
        assert stmt.columns[0].type_name == "TEXT"

    def test_create_trigger(self):
        stmt = parse_sql("CREATE TRIGGER tg AFTER UPDATE OF salary ON emp")
        assert isinstance(stmt, CreateTrigger)
        assert stmt.operation == "UPDATE" and stmt.column == "salary"

    def test_unknown_type_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("CREATE TABLE t (a BLOB)")


class TestDml:
    def test_insert_multi_row(self):
        stmt = parse_sql(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')"
        )
        assert isinstance(stmt, Insert)
        assert len(stmt.rows) == 2

    def test_insert_without_columns(self):
        stmt = parse_sql("INSERT INTO t VALUES (1, 2)")
        assert stmt.columns == ()

    def test_update_with_params(self):
        stmt = parse_sql("UPDATE t SET a = ?, b = c WHERE c = ?")
        assert isinstance(stmt, Update)
        assert stmt.assignments[0][1] == SqlParam(0)
        assert stmt.assignments[1][1] == SqlColumn("c")
        assert stmt.where == SqlBinary("=", SqlColumn("c"), SqlParam(1))

    def test_delete(self):
        stmt = parse_sql("DELETE FROM t WHERE a IS NOT NULL")
        assert isinstance(stmt, Delete)
        assert isinstance(stmt.where, SqlIsNull) and stmt.where.negated


class TestSelect:
    def test_star(self):
        stmt = parse_sql("SELECT * FROM t")
        assert isinstance(stmt, Select) and stmt.columns == ()

    def test_where_order_by(self):
        stmt = parse_sql(
            "SELECT a, c FROM t WHERE b > 3 AND NOT c IS NULL ORDER BY a DESC, b"
        )
        assert stmt.columns == ("a", "c")
        assert stmt.where == SqlBinary(
            "AND",
            SqlBinary(">", SqlColumn("b"), SqlLiteral(3)),
            SqlNot(SqlIsNull(SqlColumn("c"), negated=False)),
        )
        assert stmt.order_by[0].descending
        assert not stmt.order_by[1].descending

    def test_not_equal_spellings(self):
        for op in ("<>", "!="):
            stmt = parse_sql(f"SELECT a FROM t WHERE a {op} 1")
            assert stmt.where.op == "!="

    def test_null_true_false_literals(self):
        stmt = parse_sql("SELECT a FROM t WHERE a = NULL OR b = TRUE")
        left = stmt.where.left
        assert isinstance(left.right, SqlLiteral) and left.right.value is None


class TestErrors:
    def test_trailing_garbage(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT * FROM t extra stuff")

    def test_semicolon_allowed(self):
        parse_sql("SELECT * FROM t;")

    def test_unsupported_statement(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("GRANT ALL ON t")
