"""Tests for the ConstraintManager façade."""

import pytest

from cm_helpers import two_site_relational

from repro.cm import CMRID, ConstraintManager, Scenario
from repro.constraints import CopyConstraint
from repro.core.errors import ConfigurationError
from repro.core.events import EventKind
from repro.core.interfaces import InterfaceKind
from repro.core.timebase import seconds
from repro.ris.relational import RelationalDatabase


class TestTopology:
    def test_duplicate_site_rejected(self):
        cm = ConstraintManager(Scenario())
        cm.add_site("a")
        with pytest.raises(ConfigurationError):
            cm.add_site("a")

    def test_unknown_site_rejected(self):
        cm = ConstraintManager(Scenario())
        with pytest.raises(ConfigurationError):
            cm.shell("ghost")

    def test_peers_updated_as_sites_join(self):
        cm = ConstraintManager(Scenario())
        a = cm.add_site("a")
        b = cm.add_site("b")
        cm.add_site("c")
        assert sorted(a.peers) == ["b", "c"]
        assert sorted(b.peers) == ["a", "c"]

    def test_family_registered_at_site(self):
        cm, *__ = two_site_relational()
        assert cm.locations.site_of("salary1") == "sf"
        assert cm.locations.site_of("salary2") == "ny"

    def test_one_shell_can_host_multiple_sources(self):
        # Figure 1's Site 3: a database without its own shell is managed by
        # a neighbouring shell.
        cm = ConstraintManager(Scenario())
        cm.add_site("hub")
        for index in (1, 2):
            db = RelationalDatabase(f"db{index}")
            db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v REAL)")
            rid = CMRID("relational", f"db{index}").bind(
                f"item{index}",
                params=("n",),
                table="t",
                key_column="k",
                value_column="v",
            ).offer(f"item{index}", InterfaceKind.READ, bound_seconds=1.0)
            cm.add_source("hub", db, rid)
        assert cm.locations.site_of("item1") == "hub"
        assert cm.locations.site_of("item2") == "hub"


class TestSeeding:
    def test_existing_data_seeds_the_trace(self):
        scenario = Scenario()
        cm = ConstraintManager(scenario)
        cm.add_site("a")
        db = RelationalDatabase("db")
        db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v REAL)")
        db.execute("INSERT INTO t VALUES ('x', 5.0)")
        rid = CMRID("relational", "db").bind(
            "f", params=("n",), table="t", key_column="k", value_column="v"
        ).offer("f", InterfaceKind.READ, bound_seconds=1.0)
        cm.add_source("a", db, rid)
        from repro.core.items import DataItemRef

        assert scenario.trace.value_at(DataItemRef("f", ("x",)), 0) == 5.0

    def test_seeding_can_be_disabled(self):
        scenario = Scenario()
        cm = ConstraintManager(scenario)
        cm.add_site("a")
        db = RelationalDatabase("db")
        db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v REAL)")
        db.execute("INSERT INTO t VALUES ('x', 5.0)")
        rid = CMRID("relational", "db").bind(
            "f", params=("n",), table="t", key_column="k", value_column="v"
        ).offer("f", InterfaceKind.READ, bound_seconds=1.0)
        cm.add_source("a", db, rid, seed_existing=False)
        from repro.core.items import MISSING, DataItemRef

        assert scenario.trace.value_at(DataItemRef("f", ("x",)), 0) is MISSING


class TestInstallation:
    def test_install_registers_guarantees_with_board(self):
        cm, *__ = two_site_relational()
        constraint = cm.declare(
            CopyConstraint("salary1", "salary2", params=("n",))
        )
        suggestions = cm.suggest(constraint)
        installed = cm.install(constraint, suggestions[0])
        assert len(cm.board.guarantees()) == len(installed.guarantees)
        for guarantee in installed.guarantees:
            assert cm.board.is_valid(guarantee)

    def test_install_sets_up_notify_hooks(self):
        cm, *__ = two_site_relational()
        constraint = cm.declare(
            CopyConstraint("salary1", "salary2", params=("n",))
        )
        cm.install(constraint, cm.suggest(constraint)[0])
        translator = cm.shell("sf").translator_for("salary1")
        assert "salary1" in translator._notify_families

    def test_check_guarantees_covers_all_installed(self):
        cm, *__ = two_site_relational()
        constraint = cm.declare(
            CopyConstraint("salary1", "salary2", params=("n",))
        )
        installed = cm.install(constraint, cm.suggest(constraint)[0])
        cm.run(until=seconds(10))
        reports = cm.check_guarantees()
        assert set(reports) == {g.name for g in installed.guarantees}

    def test_install_rejects_strategy_missing_interfaces(self):
        from repro.core.catalog import Suggestion
        from repro.core.strategies import polling

        # Hand-build a polling suggestion against a scenario whose source
        # never offered a read interface: installation must fail up front.
        cm, *_ = two_site_relational(offer_notify=True)
        # Rebuild the source rid without READ by using a fresh scenario.
        from cm_helpers import EXACT_SERVICE
        from repro.cm import CMRID, ConstraintManager, Scenario
        from repro.ris.relational import RelationalDatabase

        scenario = Scenario()
        cm = ConstraintManager(scenario)
        cm.add_site("sf")
        cm.add_site("ny")
        db_a = RelationalDatabase("a")
        db_a.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v REAL)")
        rid_a = CMRID("relational", "a").bind(
            "salary1", params=("n",), table="t",
            key_column="k", value_column="v",
        ).offer("salary1", InterfaceKind.NOTIFY, bound_seconds=1.0)
        cm.add_source("sf", db_a, rid_a)
        db_b = RelationalDatabase("b")
        db_b.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v REAL)")
        rid_b = CMRID("relational", "b").bind(
            "salary2", params=("n",), table="t",
            key_column="k", value_column="v",
        ).offer("salary2", InterfaceKind.WRITE, bound_seconds=1.0)
        cm.add_source("ny", db_b, rid_b)
        constraint = cm.declare(
            CopyConstraint("salary1", "salary2", params=("n",))
        )
        bogus = Suggestion(
            polling("salary1", "salary2", seconds(10), seconds(1), ("n",)),
            (),
            "hand-built against missing interfaces",
        )
        with pytest.raises(ConfigurationError, match="read"):
            cm.install(constraint, bogus)

    def test_stop_halts_timers(self):
        cm, *__ = two_site_relational(offer_notify=False)
        constraint = cm.declare(
            CopyConstraint("salary1", "salary2", params=("n",))
        )
        polling = next(
            s for s in cm.suggest(constraint, polling_period=seconds(5))
            if s.strategy.kind == "polling"
        )
        cm.install(constraint, polling)
        cm.run(until=seconds(12))
        reads_before = len(cm.scenario.trace.events)
        cm.stop()
        cm.run(until=seconds(60))
        # Nothing new after stopping (no timers left to fire).
        assert len(cm.scenario.trace.events) == reads_before


class TestEqualPeriodPolling:
    def _relational(self, cm, site, family, *offers):
        db = RelationalDatabase(site)
        db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v REAL)")
        db.execute("INSERT INTO t VALUES ('e1', 1.0)")
        rid = CMRID("relational", site).bind(
            family, params=("n",), table="t", key_column="k", value_column="v"
        )
        for kind in offers:
            if kind is InterfaceKind.NO_SPONTANEOUS_WRITE:
                rid.offer(family, kind)
            else:
                rid.offer(family, kind, bound_seconds=1.0)
        cm.add_site(site)
        cm.add_source(site, db, rid)

    def test_two_pairs_on_one_period_validate_clean(self):
        """A shell only dispatches its own site's events: branch1's P(10)
        is not an unanswered trigger of branch0's polling rule."""
        from repro.core.trace import validate_trace, validate_trace_naive

        cm = ConstraintManager(Scenario(seed=1))
        for i in range(2):
            self._relational(cm, f"branch{i}", f"src{i}", InterfaceKind.READ)
            self._relational(
                cm,
                f"hq{i}",
                f"dst{i}",
                InterfaceKind.WRITE,
                InterfaceKind.NO_SPONTANEOUS_WRITE,
            )
            constraint = cm.declare(
                CopyConstraint(f"src{i}", f"dst{i}", params=("n",))
            )
            polling = next(
                s
                for s in cm.suggest(constraint, polling_period=seconds(10))
                if s.strategy.kind == "polling"
            )
            cm.install(constraint, polling)
        cm.run(until=seconds(60))
        rules = [
            rule
            for installed in cm.installed
            for rule in installed.strategy.rules
        ]
        trace = cm.scenario.trace
        assert len(list(trace.events_of_kind(EventKind.PERIODIC))) >= 10
        assert validate_trace(trace, rules) == []
        assert validate_trace_naive(trace, rules) == []
