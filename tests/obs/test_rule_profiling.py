"""Tests for opt-in per-rule profiling in the dispatch hot path."""

import pytest

from repro.core.timebase import seconds
from repro.experiments.common import build_salary_scenario
from repro.workloads import PersonnelWorkload


def run_salary(profiled: bool):
    salary = build_salary_scenario("propagation")
    cm = salary.cm
    if profiled:
        cm.scenario.obs.enable_rule_profiling()
    cm.spontaneous_write("salary1", ("e1",), 50_000.0)
    cm.spontaneous_write("salary1", ("e2",), 60_000.0)
    cm.run(seconds(30))
    return salary, cm


def workload_trace(strategy_kind: str, seed: int, profiled: bool) -> list:
    salary = build_salary_scenario(
        strategy_kind=strategy_kind, seed=seed, polling_period=10.0
    )
    if profiled:
        salary.scenario.obs.enable_rule_profiling()
    PersonnelWorkload(
        salary.cm, employee_count=6, rate=0.5, duration=seconds(120)
    )
    salary.cm.run(until=seconds(200))
    events = salary.scenario.trace.events
    base = events[0].seq
    return [
        (
            event.time,
            event.site,
            str(event.desc),
            event.rule.name if event.rule is not None else None,
            event.trigger.seq - base if event.trigger is not None else None,
            event.seq - base,
        )
        for event in events
    ]


@pytest.mark.parametrize(
    "strategy_kind", ["propagation", "cached-propagation", "polling"]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_profiled_trace_is_byte_identical(strategy_kind, seed):
    """The profiled loop runs the same kernel: same events, same order,
    same provenance as the plain loop."""
    plain = workload_trace(strategy_kind, seed, profiled=False)
    assert plain
    assert workload_trace(strategy_kind, seed, profiled=True) == plain


class TestRuleProfiling:
    def test_off_by_default_and_stats_stay_zero(self):
        __, cm = run_salary(profiled=False)
        assert not cm.scenario.obs.rule_profiling
        total = cm.stats()["total"]
        assert total["match_hits"] == 0
        assert total["match_misses"] == 0
        for site in ("sf", "ny"):
            assert cm.shell(site).rule_profile() == {}

    def test_profiled_run_fires_the_same_rules(self):
        __, plain = run_salary(profiled=False)
        __, profiled = run_salary(profiled=True)
        assert (
            plain.stats()["total"]["rules_fired"]
            == profiled.stats()["total"]["rules_fired"]
        )

    def test_profile_counts_hits_misses_and_latency(self):
        __, cm = run_salary(profiled=True)
        profile = cm.shell("sf").rule_profile()
        assert profile, "the LHS shell should have profiled its rules"
        for name, entry in profile.items():
            assert entry["match_hits"] + entry["match_misses"] > 0
            assert entry["fired"] == entry["match_hits"]
        fired = [e for e in profile.values() if e["fired"]]
        assert fired, "the propagation rule should have fired"
        exec_summary = fired[0]["exec_ns"]
        assert exec_summary["unit"] == "ns"
        assert exec_summary["count"] == fired[0]["fired"]
        assert exec_summary["mean"] > 0

    def test_stats_aggregate_matches_per_rule_profile(self):
        __, cm = run_salary(profiled=True)
        for site in ("sf", "ny"):
            stats = cm.shell(site).stats()
            profile = cm.shell(site).rule_profile()
            assert stats["match_hits"] == sum(
                e["match_hits"] for e in profile.values()
            )
            assert stats["match_misses"] == sum(
                e["match_misses"] for e in profile.values()
            )
        total = cm.stats()["total"]
        assert total["match_hits"] == sum(
            cm.shell(site).stats()["match_hits"] for site in ("sf", "ny")
        )
        assert total["match_hits"] >= total["rules_fired"] > 0

    def test_run_report_carries_rule_profiles(self):
        __, cm = run_salary(profiled=True)
        report = cm.run_report()
        assert "sf" in report.rule_profile
        data = report.to_dict()["rule_profile"]
        assert data == report.rule_profile
        entry = next(iter(data["sf"].values()))
        assert {"match_hits", "match_misses", "fired", "exec_ns"} <= set(entry)

    def test_unprofiled_run_report_omits_section(self):
        __, cm = run_salary(profiled=False)
        assert cm.run_report().rule_profile == {}
