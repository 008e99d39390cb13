"""The relational RIS parses each text once and binds it once per database.

Nothing observable may depend on whether a statement was already bound:
the differential tests run one script on a database that forgets every
statement before each call (cold) and on one that keeps them (warm), and
compare results, rowcounts, trigger events and error types.  The rest pins
what drops a bound statement, the fixed bounds of both caches, and — as a
count, not a timing — that a fan-out run parses per text, not per call.
"""

import random

import pytest

from repro.core.timebase import seconds
from repro.experiments.e10_scale import build_federation
from repro.ris.base import RISError, RISErrorCode
from repro.ris.relational import RelationalDatabase, SqlError, SqlSyntaxError
from repro.ris.relational import database as database_module
from repro.ris.relational import parser as parser_module
from repro.ris.relational.database import _STATEMENT_CACHE_SIZE
from repro.ris.relational.errors import (
    CatalogError,
    DatabaseBusyError,
    DatabaseUnavailableError,
)
from repro.ris.relational.parser import parse_sql

SCHEMA = [
    "CREATE TABLE emp (empid TEXT PRIMARY KEY, name TEXT NOT NULL, "
    "salary REAL, dept TEXT)",
    "CREATE TABLE acct (id TEXT PRIMARY KEY, bal REAL, CHECK (bal >= 0))",
    "CREATE TRIGGER ti AFTER INSERT ON emp",
    "CREATE TRIGGER tu AFTER UPDATE OF salary ON emp",
    "CREATE TRIGGER td AFTER DELETE ON emp",
    "CREATE TRIGGER ta AFTER UPDATE ON acct",
    "INSERT INTO emp (empid, name, salary, dept) VALUES "
    "('e1', 'Ada Lovelace', 100.0, 'eng'), ('e2', 'Alan Bob', 90.0, 'sales'), "
    "('e3', 'Grace Cy', NULL, 'eng')",
    "INSERT INTO acct VALUES ('a', 10.0), ('b', 0.0)",
]

#: The statements ``tests/ris`` exercises, on this schema, in one sequence.
CORPUS = [
    ("SELECT * FROM emp", ()),
    ("SELECT name FROM emp WHERE dept = 'eng' AND salary > 50", ()),
    ("SELECT name FROM emp WHERE salary > 0", ()),
    ("SELECT name FROM emp WHERE salary IS NULL", ()),
    ("SELECT name FROM emp ORDER BY dept, name DESC", ()),
    ("SELECT * FROM emp ORDER BY empid LIMIT 2", ()),
    ("SELECT COUNT(*), COUNT(salary), SUM(salary), MIN(salary), MAX(salary) "
     "FROM emp", ()),
    ("SELECT SUM(salary) FROM emp WHERE dept = 'hr'", ()),
    ("SELECT salary * 2 FROM emp WHERE empid = 'e1'", ()),
    ("SELECT name FROM emp WHERE empid = ?", ("e2",)),
    ("SELECT name FROM emp WHERE empid = ?", ()),
    ("SELECT name FROM emp WHERE empid = ?", ("e1", "e2", "e3")),
    ("SELECT name FROM emp WHERE empid = ?", (None,)),
    ("SELECT ghost FROM emp", ()),
    ("SELECT * FROM ghosts", ()),
    ("SELECT COUNT(*), name FROM emp", ()),
    ("SELECT DISTINCT dept FROM emp ORDER BY dept", ()),
    ("SELECT DISTINCT dept, salary FROM emp", ()),
    ("SELECT empid FROM emp WHERE salary BETWEEN ? AND ?", (95, 125)),
    ("SELECT empid FROM emp WHERE salary NOT BETWEEN 90 AND 100", ()),
    ("SELECT empid FROM emp WHERE name LIKE 'A%'", ()),
    ("SELECT empid FROM emp WHERE empid LIKE 'e_'", ()),
    ("SELECT empid FROM emp WHERE name NOT LIKE ?", ("%race%",)),
    ("SELECT empid FROM emp WHERE dept IN ('eng', 'ops')", ()),
    ("UPDATE emp SET salary = 95 WHERE dept = 'eng'", ()),
    ("UPDATE emp SET salary = 100.0 WHERE empid = 'e1'", ()),
    ("UPDATE emp SET dept = 'ops' WHERE empid = 'e1'", ()),
    ("UPDATE emp SET empid = 'e1' WHERE empid = 'e2'", ()),
    ("UPDATE emp SET salary = ? WHERE empid = ?", ()),
    ("INSERT INTO emp (empid, name) VALUES ('e1', 'Dup')", ()),
    ("INSERT INTO emp (empid) VALUES ('e9')", ()),
    ("INSERT INTO emp (empid, name, salary) VALUES ('e9', 'X', 'lots')", ()),
    ("INSERT INTO emp (empid, name) VALUES ('e7', 'Ok'), ('e8')", ()),
    ("INSERT INTO emp VALUES ('e9', 'New')", ()),
    ("SELECT name FROM emp WHERE dept = 'eng'", ()),
    ("CREATE INDEX idx_dept ON emp (dept)", ()),
    ("SELECT name FROM emp WHERE dept = 'eng'", ()),
    ("SELECT name FROM emp WHERE salary >= 95", ()),
    ("CREATE INDEX idx_salary ON emp (salary)", ()),
    ("SELECT name FROM emp WHERE salary >= 95", ()),
    ("SELECT name FROM emp WHERE 95 < salary AND dept = ?", ("eng",)),
    ("CREATE UNIQUE INDEX idx_u ON emp (dept)", ()),
    ("UPDATE acct SET bal = -5.0 WHERE id = 'a'", ()),
    ("BEGIN", ()),
    ("DELETE FROM emp WHERE dept = 'eng'", ()),
    ("UPDATE emp SET salary = 1 WHERE empid = 'e2'", ()),
    ("INSERT INTO emp (empid, name) VALUES ('e9', 'New')", ()),
    ("BEGIN", ()),
    ("ROLLBACK", ()),
    ("SELECT empid, salary FROM emp ORDER BY empid", ()),
    ("BEGIN", ()),
    ("UPDATE emp SET salary = 5 WHERE empid = 'e1'", ()),
    ("COMMIT", ()),
    ("COMMIT", ()),
    ("DELETE FROM emp WHERE empid = 'e3'", ()),
    ("CREATE TRIGGER ti AFTER INSERT ON emp", ()),
    ("DROP TRIGGER td", ()),
    ("DELETE FROM emp WHERE empid = 'e2'", ()),
    ("DROP TRIGGER td", ()),
    ("SELECT * FROM emp extra stuff", ()),
    ("GRANT ALL ON emp", ()),
    ("DROP TABLE acct", ()),
    ("UPDATE acct SET bal = 1.0 WHERE id = 'a'", ()),
    ("SELECT * FROM emp", ()),
]

_RANDOM_TEXTS = [
    ("UPDATE emp SET salary = ? WHERE empid = ?", "vk"),
    ("UPDATE emp SET salary = salary + ? WHERE dept = ?", "vd"),
    ("INSERT INTO emp (empid, name, salary, dept) VALUES (?, ?, ?, ?)", "knvd"),
    ("DELETE FROM emp WHERE empid = ?", "k"),
    ("SELECT name, salary FROM emp WHERE empid = ?", "k"),
    ("SELECT empid FROM emp WHERE salary >= ? ORDER BY empid", "v"),
    ("SELECT COUNT(*), SUM(salary) FROM emp WHERE dept = ?", "d"),
    ("SELECT * FROM emp WHERE salary < ? AND dept = ?", "vd"),
    ("SELECT empid FROM emp WHERE name LIKE ?", "l"),
    ("UPDATE acct SET bal = bal - ? WHERE id = ?", "va"),
]


def random_script(seed: int, length: int = 300):
    """Seeded DML/SELECTs over a handful of texts, so every text repeats;
    with the odd NULL key, wrong arity, literal-bearing text, index
    creation and transaction bracket thrown in."""
    rng = random.Random(seed)
    draw = {
        "k": lambda: rng.choice([f"e{rng.randint(1, 9)}", None]),
        "v": lambda: rng.choice([float(rng.randint(-20, 150)), None]),
        "d": lambda: rng.choice(["eng", "sales", "ops"]),
        "n": lambda: rng.choice(["Ada", "Bob", None]),
        "l": lambda: rng.choice(["A%", "%o_", "Ada"]),
        "a": lambda: rng.choice(["a", "b", "z"]),
    }
    script = []
    for step in range(length):
        roll = rng.random()
        if roll < 0.04:
            script.append((rng.choice(["BEGIN", "COMMIT", "ROLLBACK"]), ()))
        elif roll < 0.06:
            column = rng.choice(["dept", "salary"])
            script.append((f"CREATE INDEX i{step} ON emp ({column})", ()))
        elif roll < 0.10:
            script.append(
                (f"SELECT name FROM emp WHERE empid = 'e{rng.randint(1, 9)}'", ())
            )
        else:
            sql, kinds = rng.choice(_RANDOM_TEXTS)
            params = tuple(draw[kind]() for kind in kinds)
            if rng.random() < 0.05:
                params = params[:-1] if rng.random() < 0.5 else params + (1,)
            script.append((sql, params))
    return script


def run_script(script, cold: bool):
    """Outcomes of a script on a fresh database, its trigger events, its
    final rows, and how many calls found their statement already bound.
    Cold: both caches are emptied before every statement."""
    db = RelationalDatabase("diff")
    events = []
    for sql in SCHEMA:
        db.execute(sql)
    for name in ("ti", "tu", "td", "ta"):
        db.set_trigger_callback(
            name,
            lambda e: events.append(
                (e.trigger_name, e.table, e.operation, e.old_row, e.new_row)
            ),
        )
    outcomes, hits = [], 0
    for sql, params in script:
        if cold:
            db._statements.clear()
            parse_sql.cache_clear()
        hits += sql in db._statements
        try:
            result = db.execute(sql, params)
        except RISError as error:
            outcomes.append((type(error).__name__, error.code))
        else:
            outcomes.append((result.columns, result.rows, result.rowcount))
    if db.transactions.active:
        db.execute("ROLLBACK")
    return outcomes, events, db.query("SELECT * FROM emp"), hits


class TestColdVersusWarm:
    def test_corpus(self):
        *cold, cold_hits = run_script(CORPUS, cold=True)
        *warm, warm_hits = run_script(CORPUS, cold=False)
        assert cold == warm
        assert cold_hits == 0 < warm_hits

    def test_corpus_hits_every_error_class(self):
        outcomes, __, ___, ____ = run_script(CORPUS, cold=False)
        errors = {o[0] for o in outcomes if isinstance(o[0], str)}
        assert errors >= {
            "SqlError", "SqlSyntaxError", "CatalogError", "TypeMismatchError",
            "ConstraintViolationError", "TransactionError",
        }

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_random_scripts(self, seed):
        script = random_script(seed)
        *cold, __ = run_script(script, cold=True)
        *warm, warm_hits = run_script(script, cold=False)
        assert cold == warm
        assert warm_hits > len(script) // 2
        assert any(not isinstance(o[0], str) and o[2] for o in warm[0])
        assert warm[1], "no trigger fired: the script exercises nothing"


@pytest.fixture
def kv() -> RelationalDatabase:
    db = RelationalDatabase("kv")
    db.execute("CREATE TABLE kv (k TEXT PRIMARY KEY, v INTEGER)")
    db.execute("INSERT INTO kv VALUES ('a', 1), ('b', 2)")
    return db


class TestPlaceholderArity:
    def test_too_few_on_an_empty_table(self):
        db = RelationalDatabase("empty")
        db.execute("CREATE TABLE kv (k TEXT PRIMARY KEY, v INTEGER)")
        with pytest.raises(SqlError) as raised:
            db.execute("UPDATE kv SET v = ? WHERE k = ?", ())
        assert raised.value.code is RISErrorCode.INVALID_REQUEST

    def test_surplus_parameters_are_rejected(self, kv):
        with pytest.raises(SqlError) as raised:
            kv.execute("SELECT v FROM kv WHERE k = ?", ("a", "b", "c"))
        assert raised.value.code is RISErrorCode.INVALID_REQUEST

    def test_mismatch_touches_no_row(self, kv):
        events = []
        kv.execute("CREATE TRIGGER t AFTER UPDATE ON kv")
        kv.set_trigger_callback("t", events.append)
        with pytest.raises(SqlError):
            kv.execute("UPDATE kv SET v = 9 WHERE k = ? OR v > 0", ())
        assert kv.query("SELECT v FROM kv ORDER BY k") == [(1,), (2,)]
        assert events == []


#: Statements naming a column ``kv`` lacks, in each position one can sit.
UNKNOWN_COLUMN = [
    ("UPDATE kv SET nope = ? WHERE k = ?", (1, "a")),
    ("UPDATE kv SET v = ? WHERE nope = ?", (1, "a")),
    ("UPDATE kv SET v = nope + ? WHERE k = ?", (1, "a")),
    ("DELETE FROM kv WHERE nope = ?", ("a",)),
    ("SELECT nope FROM kv WHERE k = ?", ("a",)),
    ("SELECT k FROM kv WHERE k = ? AND nope IS NULL", ("a",)),
    ("SELECT k FROM kv ORDER BY nope", ()),
    ("SELECT SUM(nope) FROM kv", ()),
]


class TestUnknownColumns:
    """An unknown column is rejected when the statement binds, so the
    outcome cannot depend on whether any row reaches the reference."""

    @pytest.mark.parametrize("populated", [False, True], ids=["empty", "populated"])
    @pytest.mark.parametrize("sql, params", UNKNOWN_COLUMN)
    def test_rejected_whatever_the_table_holds(self, sql, params, populated):
        db = RelationalDatabase("kv")
        db.execute("CREATE TABLE kv (k TEXT PRIMARY KEY, v INTEGER)")
        if populated:
            db.execute("INSERT INTO kv VALUES ('a', 1), ('b', 2)")
        before = db.query("SELECT k, v FROM kv ORDER BY k")
        for __ in range(2):  # a bind that raises is not kept
            with pytest.raises(CatalogError):
                db.execute(sql, params)
            assert sql not in db._statements
        assert db.query("SELECT k, v FROM kv ORDER BY k") == before

    def test_insert_values_name_no_column(self, kv):
        with pytest.raises(CatalogError):
            kv.execute("INSERT INTO kv VALUES (?, v)", ("c",))
        assert kv.query("SELECT COUNT(*) FROM kv") == [(2,)]


class TestTriggerCatalog:
    def test_drop_table_drops_its_triggers(self, kv):
        events = []
        kv.execute("CREATE TRIGGER t AFTER INSERT ON kv")
        kv.set_trigger_callback("t", events.append)
        kv.execute("DROP TABLE kv")
        kv.execute("CREATE TABLE kv (k TEXT PRIMARY KEY, v INTEGER)")
        kv.execute("INSERT INTO kv VALUES ('a', 1)")
        assert events == []
        assert kv.triggers.names() == []
        kv.execute("CREATE TRIGGER t AFTER INSERT ON kv")  # the name is free

    def test_update_of_an_unknown_column_is_rejected(self, kv):
        with pytest.raises(CatalogError):
            kv.execute("CREATE TRIGGER t AFTER UPDATE OF ghost ON kv")
        assert kv.triggers.names() == []


class TestInvalidation:
    def test_drop_and_recreate_with_another_schema(self, kv):
        assert kv.execute("SELECT * FROM kv").columns == ["k", "v"]
        kv.execute("INSERT INTO kv VALUES (?, ?)", ("c", 3))
        kv.execute("DROP TABLE kv")
        kv.execute("CREATE TABLE kv (a INTEGER, b TEXT, c REAL)")
        with pytest.raises(CatalogError):
            kv.execute("INSERT INTO kv VALUES (?, ?)", (1, "x"))
        kv.execute("INSERT INTO kv VALUES (1, 'x', 2.5)")
        result = kv.execute("SELECT * FROM kv")
        assert result.columns == ["a", "b", "c"]
        assert result.rows == [(1, "x", 2.5)]

    def test_create_index_after_first_execution_replans(self, kv):
        query = "SELECT k FROM kv WHERE v >= ?"
        kv.execute("INSERT INTO kv VALUES ('c', 0)")
        assert kv.query(query, (0,)) == [("a",), ("b",), ("c",)]  # scan order
        kv.execute("CREATE INDEX by_v ON kv (v)")
        assert kv.query(query, (0,)) == [("c",), ("a",), ("b",)]  # index order
        assert kv.query(query, (2,)) == [("b",)]

    def test_new_trigger_reaches_a_bound_statement(self, kv):
        events = []
        update = "UPDATE kv SET v = ? WHERE k = ?"
        kv.execute(update, (5, "a"))
        kv.execute("CREATE TRIGGER t AFTER UPDATE OF v ON kv")
        kv.set_trigger_callback("t", events.append)
        kv.execute(update, (6, "a"))
        kv.execute("DROP TRIGGER t")
        kv.execute(update, (7, "a"))
        assert [(e.old_row["v"], e.new_row["v"]) for e in events] == [(5, 6)]

    def test_bound_update_in_a_rolled_back_transaction(self, kv):
        update = "UPDATE kv SET v = ? WHERE k = ?"
        kv.execute(update, (5, "a"))
        kv.execute("BEGIN")
        assert kv.execute(update, (6, "a")).rowcount == 1
        kv.execute("ROLLBACK")
        assert kv.query("SELECT v FROM kv WHERE k = ?", ("a",)) == [(5,)]

    def test_failure_injection_after_warm_up(self, kv):
        query = "SELECT v FROM kv WHERE k = ?"
        kv.query(query, ("a",))
        executed = kv.statements_executed
        kv.set_available(False)
        with pytest.raises(DatabaseUnavailableError):
            kv.query(query, ("a",))
        kv.set_available(True)
        kv.set_busy(True)
        with pytest.raises(DatabaseBusyError):
            kv.query(query, ("a",))
        kv.set_busy(False)
        assert kv.query(query, ("a",)) == [(1,)]
        assert kv.statements_executed == executed + 1

    def test_a_syntax_error_is_raised_anew_each_time(self, kv):
        cached = parse_sql.cache_info().currsize
        seen = []
        for __ in range(2):
            with pytest.raises(SqlSyntaxError) as raised:
                kv.execute("SELECT * FROM kv WHERE")
            seen.append((str(raised.value), raised.value.position))
        assert seen[0] == seen[1]
        assert parse_sql.cache_info().currsize == cached
        assert "SELECT * FROM kv WHERE" not in kv._statements


class TestBounds:
    def test_distinct_texts_do_not_grow_the_caches(self):
        db = RelationalDatabase("many")
        db.execute("CREATE TABLE n (i INTEGER PRIMARY KEY, sq INTEGER)")
        for i in range(10_000):
            db.execute(f"INSERT INTO n VALUES ({i}, {i * i})")
            assert len(db._statements) <= _STATEMENT_CACHE_SIZE
        info = parse_sql.cache_info()
        assert info.currsize <= info.maxsize == _STATEMENT_CACHE_SIZE
        for i in (0, 77, 9_999):
            assert db.query(f"SELECT sq FROM n WHERE i = {i}") == [(i * i,)]
        assert db.query("SELECT COUNT(*) FROM n") == [(10_000,)]


def test_fanout_parses_per_text_not_per_call(monkeypatch):
    """4 replicas, 50 hub updates: 250 writes, and a handful of parses."""

    def counting(calls, real):
        def wrapper(sql):
            calls.append(sql)
            return real(sql)

        return wrapper

    asked, parsed = [], []
    monkeypatch.setattr(
        database_module, "parse_sql", counting(asked, database_module.parse_sql)
    )
    monkeypatch.setattr(
        parser_module, "tokenize_sql", counting(parsed, parser_module.tokenize_sql)
    )
    parse_sql.cache_clear()
    cm, __ = build_federation(4, seed=3)
    rng = random.Random(3)

    def update() -> None:
        phone = f"555-{rng.randint(1000, 9999)}"
        cm.spontaneous_write("phone0", (f"p{rng.randint(0, 4)}",), phone)

    for tick in sorted(rng.randrange(seconds(50)) for __ in range(50)):
        cm.scenario.sim.at(tick, update)
    cm.run(until=seconds(80))
    databases = [
        translator.source
        for shell in cm.shells.values()
        for translator in shell.translators.values()
    ]
    assert sum(db.statements_executed for db in databases) >= 250
    # Each database asks for a text at most once; the process parses it once.
    assert len(asked) <= len(databases) * len(set(asked))
    assert len(parsed) <= len(set(asked)) <= 8
    assert all(r.valid for r in cm.check_guarantees().values())
