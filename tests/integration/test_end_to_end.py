"""End-to-end integration tests: full toolkit stacks, checked traces.

Each test stands up a complete scenario (sources, translators, shells,
manager, strategy), runs a workload, and asserts both the guarantee-checker
verdicts and the Appendix-A valid-execution properties.
"""

import pytest

from repro.core.events import EventKind
from repro.core.guarantees import leads
from repro.core.timebase import DAY, clock_time, seconds
from repro.core.trace import ExecutionTrace, validate_trace, validate_trace_naive
from repro.experiments.common import build_salary_scenario
from repro.workloads import UpdateStream
from repro.workloads.generators import random_walk


def run_with_workload(salary, rate=1.0, duration=120.0, keys=("e1", "e2")):
    UpdateStream(
        salary.cm,
        "salary1",
        list(keys),
        rate=rate,
        duration=seconds(duration),
        value_model=random_walk(step=100.0, start=1000.0),
    )
    salary.cm.run(until=seconds(duration + 60))
    return salary


class TestPropagationStack:
    def test_all_guarantees_and_trace_valid(self):
        salary = run_with_workload(
            build_salary_scenario("propagation", seed=1)
        )
        reports = salary.cm.check_guarantees()
        assert reports and all(r.valid for r in reports.values())
        violations = validate_trace(
            salary.scenario.trace, list(salary.installed.strategy.rules)
        )
        assert violations == []

    def test_databases_converge(self):
        salary = run_with_workload(
            build_salary_scenario("propagation", seed=2)
        )
        branch_rows = dict(
            salary.branch_db.query("SELECT empid, salary FROM employees")
        )
        hq_rows = dict(
            salary.hq_db.query("SELECT empid, salary FROM employees")
        )
        assert branch_rows == hq_rows

    def test_every_write_at_hq_has_full_provenance(self):
        salary = run_with_workload(
            build_salary_scenario("propagation", seed=3), duration=60
        )
        hq_writes = [
            e
            for e in salary.scenario.trace.events
            if e.desc.kind is EventKind.WRITE and e.site == "ny"
        ]
        assert hq_writes
        for event in hq_writes:
            origin = event
            while origin.trigger is not None:
                origin = origin.trigger
            assert origin.desc.kind is EventKind.SPONTANEOUS_WRITE


def _replayed(trace, triggers):
    """A copy of a recorded trace with the triggers of some events (by seq)
    replaced: a planted reordering the run itself never produced."""
    copy = ExecutionTrace()
    for ref, value in trace.seeded.items():
        copy.seed(ref, value)
    for event in trace.events:
        copy.record(
            event.time,
            event.site,
            event.desc,
            rule=event.rule,
            trigger=triggers.get(event.seq, event.trigger),
            seq=event.seq,
        )
    copy.close(trace.horizon)
    return copy


def _late(violations):
    return {v.event.seq for v in violations if v.property_number == 7}


class TestPlantedReorderings:
    """Property 7 on a FIFO propagation run with provenance swapped after
    the fact; both validators must single out the same events."""

    @pytest.fixture(scope="class")
    def run(self):
        salary = run_with_workload(
            build_salary_scenario("propagation", seed=4), duration=60
        )
        trace = salary.scenario.trace
        rules = list(salary.installed.strategy.rules)
        assert validate_trace(trace, rules) == []
        return trace, rules

    def _group(self, trace, source, site):
        return [
            e
            for e in trace.generated_events
            if (e.trigger.site, e.site) == (source, site)
        ]

    def test_swap_inside_a_group_flags_exactly_the_later_event(self, run):
        trace, rules = run
        earlier, later = self._group(trace, "sf", "ny")[7:9]
        assert earlier.trigger.time < later.trigger.time
        planted = _replayed(
            trace, {earlier.seq: later.trigger, later.seq: earlier.trigger}
        )
        assert _late(validate_trace(planted, rules)) == {later.seq}
        assert _late(validate_trace_naive(planted, rules)) == {later.seq}

    def test_swap_across_groups_is_not_flagged(self, run):
        trace, rules = run
        # One propagation chain, Ws -> N (sf to sf) -> WR (sf to ny), that
        # overlaps neither neighbour: both events keep a trigger from site
        # sf, so they stay in their groups, in trigger order.
        before, request, after = self._group(trace, "sf", "ny")[6:9]
        notify = request.trigger
        assert notify in self._group(trace, "sf", "sf")
        assert before.time < notify.trigger.time
        assert request.time < after.trigger.trigger.time
        planted = _replayed(
            trace, {notify.seq: request.trigger, request.seq: notify.trigger}
        )
        assert _late(validate_trace(planted, rules)) == set()
        assert _late(validate_trace_naive(planted, rules)) == set()


class TestPollingStack:
    def test_misses_updates_but_keeps_follows(self):
        salary = build_salary_scenario(
            "polling", seed=4, polling_period=20.0
        )
        # Two quick updates inside one polling interval: one must be missed.
        for offset, value in ((0.0, 111.0), (1.0, 222.0)):
            salary.cm.scenario.sim.at(
                seconds(30 + offset),
                lambda v=value: salary.cm.spontaneous_write(
                    "salary1", ("e1",), v
                ),
            )
        salary.cm.run(until=seconds(120))
        reports = salary.cm.check_guarantees()
        assert all(r.valid for r in reports.values())
        leads_report = leads("salary1", "salary2").check(
            salary.scenario.trace
        )
        assert not leads_report.valid
        assert leads_report.stats["values_missed"] >= 1


class TestCachedStack:
    def test_duplicate_values_produce_no_write_requests(self):
        salary = build_salary_scenario("cached-propagation", seed=5)
        for offset in range(4):
            salary.cm.scenario.sim.at(
                seconds(10 + offset * 10),
                lambda: salary.cm.spontaneous_write(
                    "salary1", ("e1",), 42.0  # always the same value
                ),
            )
        salary.cm.run(until=seconds(120))
        write_requests = [
            e
            for e in salary.scenario.trace.events
            if e.desc.kind is EventKind.WRITE_REQUEST
        ]
        assert len(write_requests) == 1  # only the first one propagates
        reports = salary.cm.check_guarantees()
        assert all(r.valid for r in reports.values())


class TestMultiSiteStack:
    def test_three_site_chain(self):
        """sf -> ny -> eu, two chained copy constraints.

        Hop 1 uses propagation (sf notifies).  Hop 2 cannot: ny's writes are
        CM-originated (W, not Ws), so a notify interface at ny would never
        fire for them — the Ws/W distinction of the formalism.  The catalog
        therefore only offers polling for hop 2, and the chain still
        converges with the follows guarantee at every hop.
        """
        from repro.cm import CMRID, ConstraintManager, Scenario
        from repro.constraints import CopyConstraint
        from repro.core.interfaces import InterfaceKind
        from repro.ris.relational import RelationalDatabase

        scenario = Scenario(seed=6)
        cm = ConstraintManager(scenario)
        databases = {}
        families = {"sf": "copy0", "ny": "copy1", "eu": "copy2"}
        for site, family in families.items():
            cm.add_site(site)
            db = RelationalDatabase(f"db-{site}")
            db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v REAL)")
            databases[site] = db
            rid = CMRID("relational", f"db-{site}").bind(
                family, params=("n",), table="t",
                key_column="k", value_column="v",
            )
            rid.offer(family, InterfaceKind.READ, bound_seconds=1.0)
            if site == "sf":
                rid.offer(family, InterfaceKind.NOTIFY, bound_seconds=2.0)
            else:
                rid.offer(family, InterfaceKind.WRITE, bound_seconds=2.0)
                rid.offer(family, InterfaceKind.NO_SPONTANEOUS_WRITE)
            cm.add_source(site, db, rid)

        hop1 = cm.declare(CopyConstraint("copy0", "copy1", params=("n",)))
        suggestions1 = cm.suggest(hop1)
        assert any(s.strategy.kind == "propagation" for s in suggestions1)
        cm.install(
            hop1,
            next(s for s in suggestions1
                 if s.strategy.kind == "propagation"),
        )

        hop2 = cm.declare(CopyConstraint("copy1", "copy2", params=("n",)))
        suggestions2 = cm.suggest(hop2, polling_period=seconds(5))
        # No notify offered at ny -> only polling applies.
        assert {s.strategy.kind for s in suggestions2} == {"polling"}
        cm.install(hop2, suggestions2[0])

        for offset, value in enumerate((10.0, 20.0, 30.0)):
            cm.scenario.sim.at(
                seconds(5 + offset * 20),
                lambda v=value: cm.spontaneous_write("copy0", ("k",), v),
            )
        cm.run(until=seconds(120))
        assert databases["eu"].query("SELECT v FROM t WHERE k = 'k'") == [
            (30.0,)
        ]
        reports = cm.check_guarantees()
        assert all(r.valid for r in reports.values())
