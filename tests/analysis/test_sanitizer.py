"""Unit tests for the dynamic race sanitizer.

The sanitizer is the static analysis' adversary, so these tests drive
its hooks directly: a certified-independent pair that collides must
flag (that is the soundness alarm), a pair the plan already keeps
serial must count as a predicted conflict, and read-read sharing must
never flag at all.
"""

from __future__ import annotations

from repro.cm import ConstraintManager, Scenario
from repro.core.dsl import parse_rule
from repro.core.items import item


def _sanitized_shell(rules, families=("OutA", "OutB", "Total")):
    """One registered shell with ``rules`` installed and the scenario's
    sanitizer attached."""
    cm = ConstraintManager(Scenario(seed=0, sanitize=True))
    cm.add_site("s")
    shell = cm.shell("s")
    for family in families:
        cm.locations.register(family, "s")
    for text, name in rules:
        shell.install(parse_rule(text, name=name))
    return cm, shell, cm.scenario.sanitizer


DISJOINT = [
    ("N(alpha(n), b) -> [0] W(OutA(n), b)", "ra"),
    ("N(beta(n), b) -> [0] W(OutB(n), b)", "rb"),
]
CONFLICTING = [
    ("N(alpha(n), b) -> [0] W(Total, b)", "ra"),
    ("N(beta(n), b) -> [0] W(Total, b)", "rb"),
]


class TestFlagPredicate:
    def test_certified_pair_colliding_flags(self):
        # The plan certifies ra/rb independent (disjoint static
        # footprints); an observed collision is exactly the soundness
        # bug the sanitizer exists to catch.
        cm, shell, san = _sanitized_shell(DISJOINT)
        assert san.plan_for("s").independent("ra", "rb")
        ref = item("OutA", "k")
        san.on_write("s", "ra", ref, 0)
        san.on_write("s", "rb", ref, 1)
        assert not san.ok
        (flag,) = san.flags
        assert {flag.rule_a, flag.rule_b} == {"ra", "rb"}
        assert flag.kind == "ww"
        assert san.predicted_conflicts == 0

    def test_serial_pair_colliding_is_a_predicted_conflict(self):
        cm, shell, san = _sanitized_shell(CONFLICTING)
        assert not san.plan_for("s").independent("ra", "rb")
        ref = item("Total")
        san.on_write("s", "ra", ref, 0)
        san.on_write("s", "rb", ref, 1)
        assert san.ok
        assert san.predicted_conflicts == 1

    def test_read_read_sharing_never_flags(self):
        cm, shell, san = _sanitized_shell(DISJOINT)
        ref = item("OutA", "k")
        san.on_read("s", "ra", ref, 0)
        san.on_read("s", "rb", ref, 1)
        assert san.ok
        assert san.predicted_conflicts == 0

    def test_read_vs_certified_write_flags_rw(self):
        cm, shell, san = _sanitized_shell(DISJOINT)
        ref = item("OutB", "k")
        san.on_write("s", "rb", ref, 0)
        san.on_read("s", "ra", ref, 1)
        assert not san.ok
        assert san.flags[0].kind in ("rw", "wr")

    def test_same_rule_accessing_twice_never_flags(self):
        cm, shell, san = _sanitized_shell(DISJOINT)
        ref = item("OutA", "k")
        san.on_write("s", "ra", ref, 0)
        san.on_write("s", "ra", ref, 1)
        assert san.ok

    def test_flags_dedupe_per_site_item_pair(self):
        cm, shell, san = _sanitized_shell(DISJOINT)
        ref = item("OutA", "k")
        san.on_write("s", "ra", ref, 0)
        san.on_write("s", "rb", ref, 1)
        san.on_write("s", "ra", ref, 2)
        san.on_write("s", "rb", ref, 3)
        assert len(san.flags) == 1


class TestClocks:
    def test_writes_advance_the_site_clock(self):
        cm, shell, san = _sanitized_shell(DISJOINT)
        san.on_write("s", "ra", item("OutA", "k1"), 0)
        san.on_write("s", "ra", item("OutA", "k2"), 1)
        assert san._clocks["s"]["s"] == 2

    def test_receive_merges_the_senders_clock(self):
        cm, shell, san = _sanitized_shell(DISJOINT)
        san._clocks["peer"] = {"peer": 7}
        san.on_receive("s", "peer")
        assert san._clocks["s"]["peer"] == 7
        assert san._clocks["s"]["s"] == 1  # the receive is a local step
        assert san.receives == 1


class TestReporting:
    def test_report_shape_and_counters(self):
        cm, shell, san = _sanitized_shell(DISJOINT)
        san.on_write("s", "ra", item("OutA", "k"), 0)
        san.on_read("s", "ra", item("OutA", "k"), 1)
        report = san.report()
        assert set(report) == {
            "enabled", "ok", "races", "race_count", "predicted_conflicts",
            "reads", "writes", "receives", "sites",
        }
        assert report["enabled"] is True
        assert report["ok"] is True
        assert report["reads"] == 1 and report["writes"] == 1
        assert report["sites"] == ["s"]

    def test_flag_dumps_the_flight_recorder(self):
        cm, shell, san = _sanitized_shell(DISJOINT)
        flight = cm.scenario.obs.enable_flight()
        ref = item("OutA", "k")
        san.on_write("s", "ra", ref, 0)
        san.on_write("s", "rb", ref, 1)
        assert flight.dumps, "a flagged race freezes context like a failure"
        assert flight.dumps[0]["reason"].startswith("race:s:")

    def test_plan_for_unknown_site_is_none(self):
        cm, shell, san = _sanitized_shell(DISJOINT)
        assert san.plan_for("nowhere") is None

    def test_plan_invalidated_when_rules_grow(self):
        cm, shell, san = _sanitized_shell(DISJOINT)
        before = san.plan_for("s")
        cm.locations.register("OutC", "s")
        shell.install(
            parse_rule("N(gamma(n), b) -> [0] W(OutC(n), b)", name="rc")
        )
        after = san.plan_for("s")
        assert after is not before
        assert after.independent("ra", "rc")


class TestEndToEnd:
    def test_salary_run_is_observed_and_clean(self):
        from repro.core.timebase import seconds
        from repro.experiments.common import build_salary_scenario

        salary = build_salary_scenario("propagation", sanitize=True)
        cm = salary.cm
        cm.spontaneous_write("salary1", ("e1",), 50_000.0)
        cm.run(seconds(30))
        report = salary.scenario.sanitizer.report()
        assert report["ok"] is True
        assert report["writes"] > 0, "the run must actually be observed"
        cm.stop()

    def test_salary_run_with_sanitizer_matches_serial(self):
        from repro.core.timebase import seconds
        from repro.experiments.common import build_salary_scenario

        def verdicts(**kwargs):
            salary = build_salary_scenario("propagation", seed=3, **kwargs)
            salary.cm.spontaneous_write("salary1", ("e1",), 50_000.0)
            salary.cm.run(seconds(40))
            reports = salary.cm.check_guarantees()
            result = {name: r.valid for name, r in reports.items()}
            salary.cm.stop()
            return result, salary

        serial, __ = verdicts()
        sanitized, salary = verdicts(sanitize=True)
        assert sanitized == serial
        assert salary.scenario.sanitizer.ok
        report = salary.cm.run_report()
        assert report.to_dict()["sanitizer"]["enabled"] is True
        assert "sanitizer: ok" in report.render()
