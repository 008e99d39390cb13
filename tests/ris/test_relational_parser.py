"""The SQL the relational RIS accepts: ``parse_sql``'s dialect step, and the
statements it passes to SQLite unchanged.

``parse_sql`` rewrites the two statements whose toolkit form SQLite does not
run as is (``CREATE TABLE`` keeps the toolkit's type rules and row order,
``CREATE TRIGGER`` has no body); everything else reaches SQLite as written.
"""

import pytest

from repro.ris.base import RISErrorCode
from repro.ris.relational import RelationalDatabase
from repro.ris.relational.database import parse_sql
from repro.ris.relational.errors import CatalogError, SqlSyntaxError, TypeMismatchError


@pytest.fixture
def db() -> RelationalDatabase:
    database = RelationalDatabase("parser")
    database.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b REAL, c TEXT)")
    database.execute("INSERT INTO t VALUES (1, 2.5, 'x'), (2, NULL, 'y'), (3, 4.0, NULL)")
    return database


class TestTokenizer:
    def test_keywords_case_insensitive(self, db):
        assert db.query("select a FROM t Where a = 2") == [(2,)]
        db.execute("create trigger lower after update of b on t")
        db.set_trigger_callback("lower", print)

    def test_string_escaping(self, db):
        db.execute("INSERT INTO t VALUES (4, 1.0, 'it''s')")
        assert db.query("SELECT c FROM t WHERE a = 4") == [("it's",)]

    def test_comments_skipped(self, db):
        assert db.query("SELECT -- comment\na FROM t WHERE a = 1") == [(1,)]

    def test_bad_character(self, db):
        with pytest.raises(SqlSyntaxError) as raised:
            db.execute("SELECT @ FROM t")
        assert raised.value.code is RISErrorCode.INVALID_REQUEST


class TestDdl:
    def test_create_table(self):
        statement = parse_sql(
            "CREATE TABLE t (a TEXT PRIMARY KEY, b REAL NOT NULL, c INT)"
        )
        assert statement.startswith("PRAGMA page_size = 1024; CREATE TABLE t (")
        db = RelationalDatabase("ddl")
        db.execute("CREATE TABLE t (a TEXT PRIMARY KEY, b REAL NOT NULL, c INT)")
        db.execute("INSERT INTO t VALUES ('k', 1, 2)")
        assert db.execute("SELECT * FROM t").columns == ["a", "b", "c"]
        assert db.query("SELECT * FROM t") == [("k", 1.0, 2)]
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO t VALUES ('j', 1.0, 'two')")

    def test_varchar_length_accepted(self):
        db = RelationalDatabase("ddl")
        db.execute("CREATE TABLE t (a VARCHAR(40))")
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO t VALUES (40)")

    def test_create_trigger(self, db):
        statement = parse_sql("CREATE TRIGGER tg AFTER UPDATE OF salary ON emp")
        assert statement == ("tg", "UPDATE", "salary", "emp")
        with pytest.raises(CatalogError):  # ``emp`` does not exist here
            db.execute("CREATE TRIGGER tg AFTER UPDATE OF salary ON emp")
        with pytest.raises(SqlSyntaxError):
            parse_sql("CREATE TRIGGER tg BEFORE INSERT ON t")

    def test_unknown_type_rejected(self):
        for type_name in ("BLOB", "BOOLEAN"):
            with pytest.raises(SqlSyntaxError):
                parse_sql(f"CREATE TABLE t (a {type_name})")
        with pytest.raises(CatalogError):
            parse_sql("CREATE TABLE t2 (a TEXT PRIMARY KEY, b TEXT PRIMARY KEY)")


class TestDml:
    def test_insert_multi_row(self, db):
        sql = "INSERT INTO t (a, c) VALUES (4, 'x'), (5, 'y')"
        assert parse_sql(sql) is sql  # DML reaches SQLite as written
        assert db.execute(sql).rowcount == 2
        assert db.query("SELECT a FROM t WHERE c = 'x'") == [(1,), (4,)]

    def test_insert_without_columns(self, db):
        db.execute("INSERT INTO t VALUES (4, 1, 'z')")
        assert db.query("SELECT b FROM t WHERE a = 4") == [(1.0,)]

    def test_update_with_params(self, db):
        result = db.execute("UPDATE t SET b = ?, c = c WHERE a = ?", (9.5, 3))
        assert result.rowcount == 1
        assert db.query("SELECT b, c FROM t WHERE a = 3") == [(9.5, None)]

    def test_delete(self, db):
        assert db.execute("DELETE FROM t WHERE c IS NOT NULL").rowcount == 2
        assert db.query("SELECT a FROM t") == [(3,)]


class TestSelect:
    def test_star(self, db):
        result = db.execute("SELECT * FROM t")
        assert result.columns == ["a", "b", "c"] and result.rowcount == 3

    def test_where_order_by(self, db):
        rows = db.query("SELECT a, c FROM t WHERE b > 1 AND NOT c IS NULL ORDER BY a DESC, b")
        assert rows == [(1, "x")]
        assert db.query("SELECT a FROM t ORDER BY c DESC, a") == [(2,), (1,), (3,)]

    def test_not_equal_spellings(self, db):
        for op in ("<>", "!="):
            assert db.query(f"SELECT a FROM t WHERE a {op} 1") == [(2,), (3,)]

    def test_null_true_false_literals(self, db):
        assert db.query("SELECT a FROM t WHERE b = NULL OR TRUE = FALSE") == []
        assert db.query("SELECT a FROM t WHERE b IS NULL OR FALSE") == [(2,)]


class TestErrors:
    def test_trailing_garbage(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT * FROM t extra stuff")

    def test_semicolon_allowed(self, db):
        assert len(db.query("SELECT * FROM t;")) == 3
        db.execute("CREATE TABLE u (k TEXT PRIMARY KEY);")
        db.execute("CREATE TRIGGER tu AFTER DELETE ON u;")

    def test_unsupported_statement(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("GRANT ALL ON t")
