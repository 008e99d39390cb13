"""Tests for the guarantee-consuming applications (Section 7.1)."""

from cm_helpers_root import build_two_site

from repro.apps import AnalystApp, AuditorApp, PlotterApp
from repro.apps.auditor import AuditVerdict
from repro.constraints import CopyConstraint
from repro.core.items import DataItemRef
from repro.core.timebase import seconds


def install_propagation(cm, **options):
    constraint = cm.declare(CopyConstraint("salary1", "salary2", params=("n",)))
    suggestion = next(
        s for s in cm.suggest(constraint, **options)
        if s.strategy.kind == "propagation"
    )
    return cm.install(constraint, suggestion)


class TestPlotter:
    def test_ordered_path_audits_clean(self):
        cm, *_ = build_two_site()
        install_propagation(cm)
        app = PlotterApp(
            cm,
            DataItemRef("salary1", ("robot",)),
            DataItemRef("salary2", ("robot",)),
        )
        for index in range(5):
            cm.scenario.sim.at(
                seconds(5 + index * 5),
                lambda v=float(index): cm.spontaneous_write(
                    "salary1", ("robot",), v
                ),
            )
        cm.run(until=seconds(60))
        audit = app.audit()
        assert audit.points_plotted == 5
        assert audit.ordered


class TestAuditor:
    def test_inconclusive_when_flag_false(self):
        cm, *_ = build_two_site()
        shell = cm.shell("ny")
        flag = DataItemRef("Flag")
        tb = DataItemRef("Tb")
        auditor = AuditorApp(shell, flag, tb, kappa=seconds(1))
        cm.run(until=seconds(10))
        assert auditor.audit_query(seconds(5)) is AuditVerdict.INCONCLUSIVE

    def test_consistent_inside_certified_interval(self):
        cm, *_ = build_two_site()
        shell = cm.shell("ny")
        flag = DataItemRef("Flag")
        tb = DataItemRef("Tb")
        shell.store.write(tb, seconds(2), 0)
        shell.store.write(flag, True, 0)
        auditor = AuditorApp(shell, flag, tb, kappa=seconds(1))
        cm.run(until=seconds(10))
        assert auditor.audit_query(seconds(5)) is AuditVerdict.CONSISTENT
        # Before Tb: not covered.
        assert auditor.audit_query(seconds(1)) is AuditVerdict.INCONCLUSIVE
        # Inside the kappa blind spot at the end: not covered.
        assert auditor.audit_query(
            seconds(9.5)
        ) is AuditVerdict.INCONCLUSIVE


class TestAnalyst:
    def test_totals_match_under_synchrony(self):
        cm, *_ = build_two_site()
        install_propagation(cm)
        for account, value in (("a1", 10.0), ("a2", 20.0)):
            cm.scenario.sim.at(
                seconds(1),
                lambda k=account, v=value: cm.spontaneous_write(
                    "salary1", (k,), v
                ),
            )
        analyst = AnalystApp(
            cm, "salary1", "salary2", run_at=seconds(30), days=1
        )
        cm.run(until=seconds(60))
        reports = analyst.reports()
        assert len(reports) == 1
        assert reports[0].consistent
        assert reports[0].copy_total == 30.0
