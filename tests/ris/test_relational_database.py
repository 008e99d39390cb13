"""End-to-end tests of the relational RIS, plus property tests."""

import gc
import re
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from repro.ris.base import RISErrorCode
from repro.ris.relational import (
    ConstraintViolationError,
    RelationalDatabase,
    SqlError,
    SqlSyntaxError,
)
from repro.ris.relational.database import _idle
from repro.ris.relational.errors import (
    CatalogError,
    DatabaseBusyError,
    DatabaseUnavailableError,
    TypeMismatchError,
)


@pytest.fixture
def db() -> RelationalDatabase:
    database = RelationalDatabase("test")
    database.execute(
        "CREATE TABLE emp (empid TEXT PRIMARY KEY, name TEXT NOT NULL, "
        "salary REAL, dept TEXT)"
    )
    database.execute(
        "INSERT INTO emp (empid, name, salary, dept) VALUES "
        "('e1', 'Ada', 100.0, 'eng'), ('e2', 'Bob', 90.0, 'sales'), "
        "('e3', 'Cy', NULL, 'eng')"
    )
    return database


class TestQueries:
    def test_select_star(self, db):
        assert len(db.query("SELECT * FROM emp")) == 3

    def test_where_and_projection(self, db):
        rows = db.query("SELECT name FROM emp WHERE dept = 'eng' AND salary > 50")
        assert rows == [("Ada",)]

    def test_null_comparisons_filter_out(self, db):
        rows = db.query("SELECT name FROM emp WHERE salary > 0")
        assert ("Cy",) not in rows

    def test_is_null(self, db):
        assert db.query("SELECT name FROM emp WHERE salary IS NULL") == [("Cy",)]

    def test_order_by_multi_key(self, db):
        rows = db.query("SELECT name FROM emp ORDER BY dept, name DESC")
        assert rows == [("Cy",), ("Ada",), ("Bob",)]

    def test_parameters(self, db):
        rows = db.query("SELECT name FROM emp WHERE empid = ?", ("e2",))
        assert rows == [("Bob",)]

    def test_too_few_parameters(self, db):
        with pytest.raises(SqlError):
            db.query("SELECT name FROM emp WHERE empid = ?")

    def test_unknown_column(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT ghost FROM emp")

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM ghosts")


class TestMutations:
    def test_update_rowcount(self, db):
        result = db.execute("UPDATE emp SET salary = 95 WHERE dept = 'eng'")
        assert result.rowcount == 2

    def test_delete(self, db):
        assert db.execute("DELETE FROM emp WHERE empid = 'e3'").rowcount == 1
        assert len(db.query("SELECT * FROM emp")) == 2

    def test_primary_key_enforced(self, db):
        with pytest.raises(ConstraintViolationError):
            db.execute("INSERT INTO emp (empid, name) VALUES ('e1', 'Dup')")

    def test_not_null_enforced(self, db):
        with pytest.raises(ConstraintViolationError):
            db.execute("INSERT INTO emp (empid) VALUES ('e9')")

    def test_type_checked(self, db):
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO emp (empid, name, salary) VALUES "
                       "('e9', 'X', 'lots')")

    def test_update_to_duplicate_pk_rejected(self, db):
        with pytest.raises(ConstraintViolationError):
            db.execute("UPDATE emp SET empid = 'e1' WHERE empid = 'e2'")


class TestIndexes:
    def test_index_lookup_equals_scan(self, db):
        # ``empid = ?`` finds its row through the primary key; under OR the
        # same predicate scans every row.
        db.execute("UPDATE emp SET empid = 'e7' WHERE empid = 'e3'")
        db.execute("DELETE FROM emp WHERE empid = 'e2'")
        for empid in ("e1", "e2", "e3", "e7", None):
            by_key = db.query("SELECT name FROM emp WHERE empid = ?", (empid,))
            scanned = db.query(
                "SELECT name FROM emp WHERE empid = ? OR 1 = 0", (empid,)
            )
            assert by_key == scanned
        assert db.query("SELECT name FROM emp WHERE ? = empid", ("e7",)) == [
            ("Cy",)
        ]


class TestTriggers:
    def test_update_of_fires_on_assignment_even_if_unchanged(self, db):
        events = []
        db.execute("CREATE TRIGGER t AFTER UPDATE OF salary ON emp")
        db.set_trigger_callback("t", events.append)
        db.execute("UPDATE emp SET salary = 100.0 WHERE empid = 'e1'")
        assert len(events) == 1  # real-DBMS semantics: assigned counts

    def test_update_of_other_column_does_not_fire(self, db):
        events = []
        db.execute("CREATE TRIGGER t AFTER UPDATE OF salary ON emp")
        db.set_trigger_callback("t", events.append)
        db.execute("UPDATE emp SET dept = 'ops' WHERE empid = 'e1'")
        assert events == []

    def test_insert_and_delete_triggers(self, db):
        events = []
        db.execute("CREATE TRIGGER ti AFTER INSERT ON emp")
        db.execute("CREATE TRIGGER td AFTER DELETE ON emp")
        db.set_trigger_callback("ti", events.append)
        db.set_trigger_callback("td", events.append)
        db.execute("INSERT INTO emp (empid, name) VALUES ('e9', 'New')")
        db.execute("DELETE FROM emp WHERE empid = 'e9'")
        assert [e.operation for e in events] == ["INSERT", "DELETE"]


class TestAvailability:
    def test_unavailable(self, db):
        db.set_available(False)
        with pytest.raises(DatabaseUnavailableError):
            db.query("SELECT * FROM emp")

    def test_busy(self, db):
        db.set_busy(True)
        with pytest.raises(DatabaseBusyError):
            db.query("SELECT * FROM emp")


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(-100, 100)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_upserts_match_dict_semantics(self, operations):
        database = RelationalDatabase("prop")
        database.execute(
            "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"
        )
        model: dict[int, int] = {}
        for key, value in operations:
            if key in model:
                database.execute(
                    "UPDATE kv SET v = ? WHERE k = ?", (value, key)
                )
            else:
                database.execute(
                    "INSERT INTO kv (k, v) VALUES (?, ?)", (key, value)
                )
            model[key] = value
        rows = database.query("SELECT k, v FROM kv ORDER BY k")
        assert rows == sorted(model.items())


class TestHazards:
    """What the toolkit observes of the engine and an off-the-shelf SQL
    engine would do differently by default: row order, type rules, key
    comparisons, trigger declarations and error codes."""

    @pytest.fixture
    def kv(self) -> RelationalDatabase:
        db = RelationalDatabase("kv")
        db.execute("CREATE TABLE kv (k TEXT PRIMARY KEY, v REAL)")
        for key in ("b", "a", "c"):
            db.execute("INSERT INTO kv (k, v) VALUES (?, ?)", (key, 1.0))
        return db

    def test_unordered_select_of_the_key_is_in_insertion_order(self, kv):
        # Not key order, as a scan of the key's index would give.
        assert kv.query("SELECT k FROM kv") == [("b",), ("a",), ("c",)]
        kv.execute("DELETE FROM kv WHERE k = 'c'")
        kv.execute("INSERT INTO kv (k, v) VALUES ('0', 2.0)")
        assert kv.query("SELECT k FROM kv") == [("b",), ("a",), ("0",)]

    @pytest.mark.parametrize("key_type", ["INTEGER", "INT"])
    def test_an_integer_key_keeps_insertion_order(self, key_type):
        db = RelationalDatabase("ints")
        db.execute(f"CREATE TABLE n (k {key_type} PRIMARY KEY, v INTEGER)")
        for key in (3, 1, 2):
            db.execute("INSERT INTO n (k, v) VALUES (?, ?)", (key, key * 10))
        assert db.query("SELECT k, v FROM n") == [(3, 30), (1, 10), (2, 20)]
        assert db.query("SELECT k FROM n") == [(3,), (1,), (2,)]

    def test_a_text_column_rejects_an_int(self, kv):
        with pytest.raises(TypeMismatchError) as raised:
            kv.execute("INSERT INTO kv (k, v) VALUES (?, ?)", (5, 1.0))
        assert raised.value.code is RISErrorCode.INVALID_REQUEST
        assert kv.query("SELECT k FROM kv") == [("b",), ("a",), ("c",)]

    def test_an_integer_column_rejects_a_float_and_a_string(self):
        db = RelationalDatabase("ints")
        db.execute("CREATE TABLE n (k TEXT PRIMARY KEY, v INTEGER)")
        for value in (2.5, "7"):
            with pytest.raises(TypeMismatchError):
                db.execute("INSERT INTO n (k, v) VALUES ('a', ?)", (value,))
        assert db.query("SELECT * FROM n") == []

    def test_an_int_key_does_not_match_a_text_key(self, kv):
        kv.execute("INSERT INTO kv (k, v) VALUES ('5', 1.0)")
        assert kv.execute("UPDATE kv SET v = ? WHERE k = ?", (2.0, 5)).rowcount == 0
        assert kv.query("SELECT v FROM kv WHERE k = ?", (5,)) == []
        assert kv.query("SELECT v FROM kv WHERE k = ?", ("5",)) == [(1.0,)]

    def test_real_stores_an_int_as_a_float(self, kv):
        kv.execute("UPDATE kv SET v = ? WHERE k = ?", (5, "a"))
        [(value,)] = kv.query("SELECT v FROM kv WHERE k = 'a'")
        assert value == 5.0 and type(value) is float

    def test_update_of_an_unknown_column_is_a_catalog_error(self, kv):
        with pytest.raises(CatalogError) as raised:
            kv.execute("CREATE TRIGGER t AFTER UPDATE OF ghost ON kv")
        assert raised.value.code is RISErrorCode.NOT_FOUND

    def test_a_null_key_is_a_constraint_violation(self, kv):
        with pytest.raises(ConstraintViolationError):
            kv.execute("INSERT INTO kv (k, v) VALUES (?, ?)", (None, 1.0))

    @pytest.mark.parametrize("params", [(), ("a", "b")])
    def test_a_wrong_parameter_count_is_an_invalid_request(self, kv, params):
        with pytest.raises(SqlError) as raised:
            kv.execute("SELECT v FROM kv WHERE k = ?", params)
        assert raised.value.code is RISErrorCode.INVALID_REQUEST

    def test_rowcounts(self, kv):
        assert kv.execute("SELECT k FROM kv WHERE v > 0").rowcount == 3
        assert kv.execute("CREATE TABLE other (k TEXT PRIMARY KEY)").rowcount == 0
        assert kv.execute("DELETE FROM kv WHERE k = 'zz'").rowcount == 0

    def test_a_callback_error_reaches_the_caller(self, kv):
        class Boom(Exception):
            pass

        def explode(event):
            raise Boom(event.operation)

        kv.execute("CREATE TRIGGER t AFTER UPDATE OF v ON kv")
        kv.set_trigger_callback("t", explode)
        with pytest.raises(Boom):
            kv.execute("UPDATE kv SET v = 2.0 WHERE k = 'a'")

    def test_no_source_declares_a_boolean_column(self):
        # The relational RIS has no BOOLEAN type: Python's sqlite3 stores a
        # bool as an int.  Nothing the toolkit ships declares one.
        root = Path(__file__).resolve().parents[2]
        declared = re.compile(r"CREATE TABLE[^\n]*\bBOOL(EAN)?\b", re.IGNORECASE)
        offenders = [
            path
            for folder in ("src", "examples")
            for path in (root / folder).rglob("*.py")
            if declared.search(path.read_text())
        ]
        assert offenders == []

    def test_a_callback_may_query_its_database(self, kv):
        seen = []

        def read_back(event):
            seen.append(kv.query("SELECT v FROM kv WHERE k = ?", (event.new_row["k"],)))

        kv.execute("CREATE TRIGGER t AFTER UPDATE OF v ON kv")
        kv.set_trigger_callback("t", read_back)
        assert kv.execute("UPDATE kv SET v = 2.0 WHERE k = 'a'").rowcount == 1
        assert seen == [[(2.0,)]]

    def test_a_dropped_database_hands_over_an_empty_connection(self):
        ddl = "CREATE TABLE kv (k TEXT PRIMARY KEY, v REAL)"
        gc.collect()
        _idle.clear()  # earlier tests' connections
        dropped = RelationalDatabase("dropped")
        dropped.execute(ddl)
        dropped.execute("INSERT INTO kv (k, v) VALUES ('a', 1.0)")
        connection = dropped._connection
        del dropped
        gc.collect()
        again = RelationalDatabase("again")
        again.execute(ddl)
        assert again._connection is connection  # reused, emptied
        assert again.query("SELECT * FROM kv") == []
        with pytest.raises(CatalogError):  # the same text, run twice
            again.execute(ddl)
        again.execute("CREATE TRIGGER t AFTER DELETE ON kv")  # DDL: not reused
        connection = again._connection
        del again
        gc.collect()
        fresh = RelationalDatabase("fresh")
        fresh.execute(ddl)
        assert fresh._connection is not connection
