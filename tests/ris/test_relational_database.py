"""End-to-end tests of the mini relational DBMS, plus property tests."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.ris.base import RISErrorCode
from repro.ris.relational import (
    ConstraintViolationError,
    RelationalDatabase,
    SqlError,
    SqlSyntaxError,
)
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


#: One statement per form the engine no longer runs.
REMOVED_FORMS = {
    "BEGIN": "BEGIN",
    "CREATE INDEX": "CREATE INDEX by_dept ON emp (dept)",
    "DROP TABLE": "DROP TABLE emp",
    "LIKE": "DELETE FROM emp WHERE name LIKE 'A%'",
    "BETWEEN": "UPDATE emp SET salary = 1.0 WHERE salary BETWEEN 0 AND 200",
    "IN": "DELETE FROM emp WHERE dept IN ('eng', 'sales')",
    "COUNT": "SELECT COUNT(*) FROM emp",
    "DISTINCT": "SELECT DISTINCT dept FROM emp",
    "LIMIT": "SELECT * FROM emp ORDER BY empid LIMIT 1",
    "CHECK": "CREATE TABLE acct (id TEXT PRIMARY KEY, bal REAL, CHECK (bal >= 0))",
}


@pytest.mark.parametrize("sql", REMOVED_FORMS.values(), ids=REMOVED_FORMS.keys())
def test_removed_form_is_rejected(db, sql):
    """A statement outside the kept grammar fails in ``execute`` as
    INVALID_REQUEST, every time, and is applied to no row or catalog."""
    events = []
    for operation in ("INSERT", "UPDATE", "DELETE"):
        db.execute(f"CREATE TRIGGER t_{operation} AFTER {operation} ON emp")
        db.set_trigger_callback(f"t_{operation}", events.append)
    before = db.query("SELECT * FROM emp ORDER BY empid")
    for __ in range(2):
        with pytest.raises(SqlSyntaxError) as raised:
            db.execute(sql)
        assert raised.value.code is RISErrorCode.INVALID_REQUEST
    assert db.query("SELECT * FROM emp ORDER BY empid") == before
    assert events == []
    with pytest.raises(CatalogError):
        db.query("SELECT * FROM acct")
