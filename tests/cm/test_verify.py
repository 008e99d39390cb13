"""Tests for the one-call verification facade."""

import pytest

from cm_helpers import two_site_relational

from repro.cm.verify import verify
from repro.constraints import CopyConstraint
from repro.core.dsl import parse_rule
from repro.core.timebase import seconds
from repro.sim.failures import FailureKind, FailurePlan, FailureWindow


def install_and_drive(cm, updates=((1, 10.0), (5, 20.0))):
    constraint = cm.declare(
        CopyConstraint("salary1", "salary2", params=("n",))
    )
    cm.install(constraint, cm.suggest(constraint)[0])
    for at, value in updates:
        cm.scenario.sim.at(
            seconds(at),
            lambda v=value: cm.spontaneous_write("salary1", ("e1",), v),
        )
    cm.run(until=seconds(60))


class TestVerify:
    def test_clean_run_verifies_ok(self):
        cm, *_ = two_site_relational()
        install_and_drive(cm)
        report = verify(cm)
        assert report.ok, report.render()
        assert report.guarantee_reports
        assert "OK" in report.render()

    def test_trace_stats_surfaced(self):
        cm, *_ = two_site_relational()
        install_and_drive(cm)
        report = verify(cm)
        stats = report.trace_stats
        assert stats["events_recorded"] == len(cm.scenario.trace.events)
        assert stats["state_versions"] > 0
        assert "trace:" in report.render()

    def test_silent_failure_is_surfaced_as_a_gap(self):
        plan = FailurePlan()
        plan.add(
            FailureWindow(
                site="sf",
                kind=FailureKind.SILENT_NOTIFY_LOSS,
                start=seconds(0),
                end=seconds(30),
                drop_probability=1.0,
            )
        )
        cm, *_ = two_site_relational(failure_plan=plan)
        install_and_drive(cm, updates=((1, 10.0), (5, 20.0), (40, 30.0)))
        report = verify(cm)
        assert not report.ok
        # The board was never told anything went wrong...
        assert any("leads(" in name for name in report.silent_gaps)
        assert "SILENT GAP" in report.render()

    def test_detected_failure_is_not_a_silent_gap(self):
        cm, __, hq, *_ = two_site_relational()
        cm.scenario.sim.at(seconds(3), lambda: hq.set_available(False))
        cm.scenario.sim.at(seconds(8), lambda: hq.set_available(True))
        install_and_drive(cm)
        report = verify(cm)
        # Guarantees are refuted, but the board knows (logical failure was
        # detected), so this is not a *silent* gap.
        assert not report.guarantees_ok
        assert report.silent_gaps == []


class TestHandWrittenRules:
    """``verify()`` validates every rule installed at a shell, so a rule
    placed by ``cm.install_rule`` is held to Appendix A like a catalog
    strategy's rules."""

    def test_dropped_firing_is_a_property_6_violation(self):
        # ny is down when sf's firing reaches it: the network drops the
        # firing, no WR follows the notification, and property 6 says so.
        plan = FailurePlan()
        plan.add(FailureWindow("ny", FailureKind.LOGICAL, 0, seconds(10)))
        cm, __, hq, *_ = two_site_relational(failure_plan=plan)
        cm.install_rule(
            "sf",
            parse_rule("N(salary1(n), b) -> [5] WR(salary2(n), b)", name="sync"),
        )
        cm.scenario.sim.at(
            seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 9.0)
        )
        cm.run(until=seconds(20))
        assert cm.scenario.network.messages_dropped == 1
        assert hq.query("SELECT empid FROM employees") == []
        report = verify(cm)
        assert [v.property_number for v in report.trace_violations] == [6]
        assert "rule 'sync'" in report.trace_violations[0].message
        assert not report.ok

    def test_delivered_firing_verifies_clean(self):
        cm, *_ = two_site_relational()
        cm.install_rule(
            "sf",
            parse_rule("N(salary1(n), b) -> [5] WR(salary2(n), b)", name="sync"),
        )
        cm.scenario.sim.at(
            seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 9.0)
        )
        cm.run(until=seconds(20))
        assert verify(cm).trace_violations == []


def silent_notify_loss_until(end_seconds):
    plan = FailurePlan()
    plan.add(
        FailureWindow(
            site="sf",
            kind=FailureKind.SILENT_NOTIFY_LOSS,
            start=seconds(0),
            end=seconds(end_seconds),
            drop_probability=1.0,
        )
    )
    return plan


class TestSilentGapsAreJudgedWhenTheViolationHappened:
    """``silent_gaps`` asks the board about the end of the run, not about
    when a guarantee was violated (ROADMAP item 4).  The two defects below
    are pinned until violations carry the intervals that settle them."""

    UPDATES = ((1, 10.0), (5, 20.0), (40, 30.0), (52, 40.0))

    def test_violation_while_vouched_is_a_gap(self):
        # The control: updates lost silently at sf leave salary2 behind while
        # the board stands behind every guarantee, and the report says so.
        cm, *_ = two_site_relational(failure_plan=silent_notify_loss_until(30))
        install_and_drive(cm, updates=self.UPDATES)
        report = verify(cm)
        assert "leads(salary1 -> salary2)" in report.silent_gaps

    @pytest.mark.xfail(
        strict=True,
        reason="masked gap: a failure detected after the violation, still "
        "open at the horizon, hides it (verify reads the board at the end)",
    )
    def test_later_detected_failure_does_not_mask_a_gap(self):
        cm, __, hq, *_ = two_site_relational(
            failure_plan=silent_notify_loss_until(30)
        )
        # A logical failure noticed at ny at 52.09 s, open at the horizon.
        cm.scenario.sim.at(seconds(50), lambda: hq.set_available(False))
        install_and_drive(cm, updates=self.UPDATES)
        report = verify(cm)
        assert not report.guarantee_reports["leads(salary1 -> salary2)"].valid
        assert "leads(salary1 -> salary2)" in report.silent_gaps

    @pytest.mark.xfail(
        strict=True,
        reason="false alarm: a violation inside the interval the board had "
        "withdrawn the guarantee for is reported once the site is reset",
    )
    def test_violation_while_withdrawn_is_not_a_gap(self):
        cm, __, hq, *_ = two_site_relational()
        # A logical failure noticed at 5.09 s; the operator resets ny at 20 s.
        cm.scenario.sim.at(seconds(3), lambda: hq.set_available(False))
        cm.scenario.sim.at(seconds(8), lambda: hq.set_available(True))
        cm.scenario.sim.at(
            seconds(20), lambda: cm.board.reset_site("ny", seconds(20))
        )
        install_and_drive(cm, updates=((1, 10.0), (5, 20.0), (12, 30.0)))
        report = verify(cm)
        # Its only counterexample lies in [11 s, 12.09 s), inside [5.09, 20).
        bounded = "follows(salary1 -> salary2, κ=6s)"
        assert not report.guarantee_reports[bounded].valid
        assert bounded not in report.silent_gaps
