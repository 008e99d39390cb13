"""Tests for the shell's one ``install()`` surface and failure relay.

``CMShell.install()`` is the shell's one installation entry point (the old
``install_rule`` / ``install_periodic_rule`` aliases are gone); the
manager's placement routine is its only caller in the library, and its
tests are in ``test_manager.py``.  Also covered here: the
failure-propagation fix — remote notices now reach ``on_failure``
listeners, and the status board stays deduplicated under the resulting
fan-in.
"""

import pytest

from cm_helpers import two_site_relational

from repro.cm import FailureNotice
from repro.core.errors import SpecError
from repro.core.dsl import parse_rule
from repro.core.timebase import seconds


class TestUnifiedInstall:
    def test_install_handles_both_rule_shapes(self):
        cm, __, ___, ____, _____ = two_site_relational()
        shell = cm.shell("sf")
        cm.locations.register("Tick", "sf")
        shell.install(
            parse_rule("N(salary1(n), b) -> [5] WR(salary2(n), b)", name="old"),
            "ny",
        )
        shell.install(
            parse_rule("P(10) -> [1] W(Tick(), 1)", name="tick"), "sf"
        )
        assert {r.name for r in shell.rules} == {"old", "tick"}

    def test_deprecated_aliases_are_gone(self):
        cm, __, ___, ____, _____ = two_site_relational()
        shell = cm.shell("sf")
        assert not hasattr(shell, "install_rule")
        assert not hasattr(shell, "install_periodic_rule")

    def test_install_rejects_phase_on_non_periodic_rule(self):
        cm, __, ___, ____, _____ = two_site_relational()
        rule = parse_rule("N(salary1(n), b) -> [5] W(salary2(n), b)")
        with pytest.raises(SpecError):
            cm.shell("sf").install(rule, "ny", phase=seconds(5))


class TestFailurePropagation:
    @staticmethod
    def notice(time, recovered=False):
        return FailureNotice(
            site="sf",
            source_name="branch",
            kind="crash",
            time=time,
            detail="test",
            recovered=recovered,
        )

    def test_remote_notice_reaches_peer_listeners(self):
        cm, __, ___, ____, _____ = two_site_relational()
        seen_at_ny = []
        cm.shell("ny").on_failure.append(seen_at_ny.append)
        notice = self.notice(seconds(5))
        cm.scenario.sim.at(
            seconds(5), lambda: cm.shell("sf").report_failure(notice)
        )
        cm.run(until=seconds(10))
        # The remote shell both logs the notice and fires its listeners —
        # previously only the log was updated.
        assert cm.shell("ny").failure_log == [notice]
        assert seen_at_ny == [notice]

    def test_board_deduplicates_fan_in(self):
        cm, __, ___, ____, _____ = two_site_relational()
        failure = self.notice(seconds(5))
        recovery = self.notice(seconds(8), recovered=True)
        cm.scenario.sim.at(
            seconds(5), lambda: cm.shell("sf").report_failure(failure)
        )
        cm.scenario.sim.at(
            seconds(8), lambda: cm.shell("sf").report_failure(recovery)
        )
        cm.run(until=seconds(15))
        # Every shell's listeners saw both notices, but the board — which
        # observes all shells — records each exactly once.
        assert cm.board.notices.count(failure) == 1
        assert cm.board.notices.count(recovery) == 1
