"""The relational RIS translates each text once per database.

``parse_sql`` (memoized per process) turns the toolkit's dialect into
SQLite's, and each database asks it once per text, on first sight.  Nothing
observable may depend on whether a text was seen before: the differential
tests run one script on a database that forgets every text before each call
(cold) and on one that keeps them (warm), and compare results, rowcounts,
trigger events and error types.  The rest pins errors raised whatever the
cache holds, the fixed bounds of both caches, and — as a count, not a
timing — that a fan-out run parses per text, not per call.
"""

import random

import pytest

from repro.core.timebase import seconds
from repro.experiments.e10_scale import build_federation
from repro.ris.base import RISError, RISErrorCode
from repro.ris.relational import RelationalDatabase, SqlError, SqlSyntaxError
from repro.ris.relational import database as database_module
from repro.ris.relational.database import _STATEMENT_CACHE_SIZE, parse_sql
from repro.ris.relational.errors import (
    CatalogError,
    DatabaseBusyError,
    DatabaseUnavailableError,
)

SCHEMA = [
    "CREATE TABLE emp (empid TEXT PRIMARY KEY, name TEXT NOT NULL, "
    "salary REAL, dept TEXT)",
    "CREATE TABLE acct (id TEXT PRIMARY KEY, bal REAL)",
    "CREATE TRIGGER ti AFTER INSERT ON emp",
    "CREATE TRIGGER tu AFTER UPDATE OF salary ON emp",
    "CREATE TRIGGER td AFTER DELETE ON emp",
    "CREATE TRIGGER ta AFTER UPDATE ON acct",
    "INSERT INTO emp (empid, name, salary, dept) VALUES "
    "('e1', 'Ada Lovelace', 100.0, 'eng'), ('e2', 'Alan Bob', 90.0, 'sales'), "
    "('e3', 'Grace Cy', NULL, 'eng')",
    "INSERT INTO acct VALUES ('a', 10.0), ('b', 0.0)",
]

#: Every statement shape the toolkit sends and every error class, on this
#: schema, in one sequence (statements it never sends among them).
CORPUS = [
    ("SELECT * FROM emp", ()),
    ("SELECT name FROM emp WHERE dept = 'eng' AND salary > 50", ()),
    ("SELECT name FROM emp WHERE salary > 0", ()),
    ("SELECT name FROM emp WHERE salary IS NULL", ()),
    ("SELECT name FROM emp WHERE NOT salary IS NOT NULL OR dept <> 'eng'", ()),
    ("SELECT name FROM emp ORDER BY dept, name DESC", ()),
    ("SELECT name FROM emp WHERE empid = ?", ("e2",)),
    ("SELECT name FROM emp WHERE empid = ?", ()),
    ("SELECT name FROM emp WHERE empid = ?", ("e1", "e2", "e3")),
    ("SELECT name FROM emp WHERE empid = ?", (None,)),
    ("SELECT name FROM emp WHERE ? = empid AND salary >= ?", ("e1", 100)),
    ("SELECT ghost FROM emp", ()),
    ("SELECT * FROM ghosts", ()),
    ("SELECT * FROM emp ORDER BY ghost", ()),
    ("SELECT COUNT(*) FROM emp", ()),
    ("UPDATE emp SET salary = 95 WHERE dept = 'eng'", ()),
    ("UPDATE emp SET salary = 100.0 WHERE empid = 'e1'", ()),
    ("UPDATE emp SET dept = 'ops' WHERE empid = 'e1'", ()),
    ("UPDATE emp SET empid = 'e1' WHERE empid = 'e2'", ()),
    ("UPDATE emp SET salary = ? WHERE empid = ?", ()),
    ("UPDATE emp SET empid = 'e4', name = dept WHERE empid = 'e3'", ()),
    ("SELECT empid, name FROM emp WHERE empid = 'e4'", ()),
    ("UPDATE acct SET bal = ? WHERE id = ?", (5.0, "a")),
    ("UPDATE acct SET bal = 'x' WHERE id = 'a'", ()),
    ("INSERT INTO emp (empid, name) VALUES ('e1', 'Dup')", ()),
    ("INSERT INTO emp (empid) VALUES ('e9')", ()),
    ("INSERT INTO emp (empid, name, salary) VALUES ('e9', 'X', 'lots')", ()),
    ("INSERT INTO emp (empid, name) VALUES ('e7', 'Ok'), ('e8')", ()),
    ("INSERT INTO emp VALUES ('e9', 'New')", ()),
    ("INSERT INTO emp VALUES ('e9', 'New', NULL, 'ops')", ()),
    ("DELETE FROM emp WHERE dept = 'eng'", ()),
    ("DELETE FROM emp WHERE empid = ?", ("e9",)),
    ("CREATE TRIGGER ti AFTER INSERT ON emp", ()),
    ("CREATE TRIGGER tx AFTER UPDATE OF ghost ON emp", ()),
    ("CREATE TRIGGER tx AFTER DELETE ON ghosts", ()),
    ("CREATE TABLE emp (a TEXT)", ()),
    ("CREATE TABLE t2 (a TEXT PRIMARY KEY, b TEXT PRIMARY KEY)", ()),
    ("CREATE TABLE t2 (k TEXT PRIMARY KEY, v INTEGER)", ()),
    ("CREATE TRIGGER t2u AFTER UPDATE ON t2", ()),
    ("INSERT INTO t2 VALUES ('a', 1)", ()),
    ("UPDATE t2 SET v = 2 WHERE k = 'a'", ()),
    ("SELECT * FROM t2", ()),
    ("SELECT * FROM emp extra stuff", ()),
    ("GRANT ALL ON emp", ()),
    ("DROP TABLE acct", ()),
    ("UPDATE acct SET bal = 1.0 WHERE id = 'a'", ()),
    ("SELECT * FROM emp", ()),
]

_RANDOM_TEXTS = [
    ("UPDATE emp SET salary = ? WHERE empid = ?", "vk"),
    ("UPDATE emp SET salary = ? WHERE dept = ?", "vd"),
    ("UPDATE emp SET empid = ? WHERE empid = ?", "kk"),
    ("INSERT INTO emp (empid, name, salary, dept) VALUES (?, ?, ?, ?)", "knvd"),
    ("DELETE FROM emp WHERE empid = ?", "k"),
    ("SELECT name, salary FROM emp WHERE empid = ?", "k"),
    ("SELECT empid FROM emp WHERE salary >= ? ORDER BY empid", "v"),
    ("SELECT * FROM emp WHERE salary < ? AND dept = ?", "vd"),
    ("SELECT empid FROM emp WHERE dept = ? OR salary IS NULL "
     "ORDER BY salary DESC, empid", "d"),
    ("UPDATE acct SET bal = ? WHERE id = ?", "va"),
]


def random_script(seed: int, length: int = 300):
    """Seeded DML/SELECTs over a handful of texts, so every text repeats;
    with the odd NULL key, wrong arity, literal-bearing text, new trigger
    and statement SQLite runs but the toolkit never sends thrown in."""
    rng = random.Random(seed)
    draw = {
        "k": lambda: rng.choice([f"e{rng.randint(1, 9)}", None]),
        "v": lambda: rng.choice([float(rng.randint(-20, 150)), None]),
        "d": lambda: rng.choice(["eng", "sales", "ops"]),
        "n": lambda: rng.choice(["Ada", "Bob", None]),
        "a": lambda: rng.choice(["a", "b", "z"]),
    }
    script = []
    for step in range(length):
        roll = rng.random()
        if roll < 0.03:
            script.append((rng.choice(["BEGIN", "SELECT COUNT(*) FROM emp"]), ()))
        elif roll < 0.05:
            script.append((f"CREATE TRIGGER g{step} AFTER DELETE ON emp", ()))
        elif roll < 0.09:
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
    final rows, and how many calls found their text already seen.
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
            "ConstraintViolationError",
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
    ("UPDATE kv SET v = nope WHERE k = ?", ("a",)),
    ("DELETE FROM kv WHERE nope = ?", ("a",)),
    ("SELECT nope FROM kv WHERE k = ?", ("a",)),
    ("SELECT k FROM kv WHERE k = ? AND nope IS NULL", ("a",)),
    ("SELECT k FROM kv ORDER BY nope", ()),
]


class TestUnknownColumns:
    """An unknown column is rejected when SQLite prepares the statement, so
    the outcome cannot depend on whether any row reaches the reference."""

    @pytest.mark.parametrize("populated", [False, True], ids=["empty", "populated"])
    @pytest.mark.parametrize("sql, params", UNKNOWN_COLUMN)
    def test_rejected_whatever_the_table_holds(self, sql, params, populated):
        db = RelationalDatabase("kv")
        db.execute("CREATE TABLE kv (k TEXT PRIMARY KEY, v INTEGER)")
        if populated:
            db.execute("INSERT INTO kv VALUES ('a', 1), ('b', 2)")
        before = db.query("SELECT k, v FROM kv ORDER BY k")
        for __ in range(2):
            with pytest.raises(CatalogError):
                db.execute(sql, params)
        assert db.query("SELECT k, v FROM kv ORDER BY k") == before

    def test_insert_values_name_no_column(self, kv):
        with pytest.raises(CatalogError):
            kv.execute("INSERT INTO kv VALUES (?, v)", ("c",))
        assert len(kv.query("SELECT * FROM kv")) == 2

    def test_a_short_values_row_applies_none(self, kv):
        with pytest.raises(CatalogError):
            kv.execute("INSERT INTO kv (k, v) VALUES ('c', 3), ('d')")
        assert kv.query("SELECT k FROM kv") == [("a",), ("b",)]


class TestTriggerCatalog:
    def test_update_of_an_unknown_column_is_rejected(self, kv):
        with pytest.raises(CatalogError):
            kv.execute("CREATE TRIGGER t AFTER UPDATE OF ghost ON kv")
        with pytest.raises(CatalogError):
            kv.set_trigger_callback("t", print)
        kv.execute("CREATE TRIGGER t AFTER UPDATE OF v ON kv")  # the name is free


class TestInvalidation:
    def test_new_trigger_reaches_a_bound_statement(self, kv):
        events = []
        update = "UPDATE kv SET v = ? WHERE k = ?"
        kv.execute(update, (5, "a"))
        kv.execute("CREATE TRIGGER t AFTER UPDATE OF v ON kv")
        kv.set_trigger_callback("t", events.append)
        kv.execute(update, (6, "a"))
        assert [(e.old_row["v"], e.new_row["v"]) for e in events] == [(5, 6)]

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
        seen = []
        for __ in range(2):
            with pytest.raises(SqlSyntaxError) as raised:
                kv.execute("SELECT * FROM kv WHERE")
            seen.append((str(raised.value), raised.value.position))
        assert seen[0] == seen[1]
        # A malformed CREATE fails in parse_sql, which memoizes no failure.
        cached = parse_sql.cache_info().currsize
        for __ in range(2):
            with pytest.raises(SqlSyntaxError):
                kv.execute("CREATE TABLE t (a BLOB)")
        assert parse_sql.cache_info().currsize == cached


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
        assert len(db.query("SELECT i FROM n")) == 10_000


def test_fanout_parses_per_text_not_per_call(monkeypatch):
    """4 replicas, 50 hub updates: 250 writes, and a handful of parses."""

    def counting(calls, real):
        def wrapper(sql):
            calls.append(sql)
            return real(sql)

        return wrapper

    asked = []
    monkeypatch.setattr(
        database_module, "parse_sql", counting(asked, database_module.parse_sql)
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
    # Each database asks for a text at most once.
    assert len(asked) <= len(databases) * len(set(asked))
    assert len(set(asked)) <= 8
    assert all(r.valid for r in cm.check_guarantees().values())
