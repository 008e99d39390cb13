"""The process runtime: shells as OS processes, held to the sim verdicts.

Three angles:

- **Equivalence**: ``run_equivalence(seed, runtime="proc")`` — every proc
  execution must be Appendix-A valid with guarantee verdicts identical to
  the deterministic kernel's, exactly like the wire runtime's contract.
- **Hostile transport**: the mirror of
  ``tests/runtime/test_failure_relay_wire.py`` with every frame duplicated
  and held for reordering — except the frames now cross *process*
  boundaries, so nothing can lean on shared memory even by accident.
- **Supervision**: SIGKILL one shell process mid-run; the run must
  complete (not hang) and the dead site must surface as a FailureNotice.
"""

import os
import signal

import pytest

from repro.cm import ConstraintManager, Scenario
from repro.cm.failures import FailureNotice
from repro.core.timebase import seconds
from repro.runtime import ChannelFaults, ProcRuntime, WireFaultPlan
from repro.runtime.equivalence import run_equivalence

HOSTILE = WireFaultPlan(default=ChannelFaults(dup=1.0, reorder=1.0))


def federation_bootstrap(n_sites=3, runtime="sim"):
    """Module-level (picklable) bootstrap: n empty sites, fully meshed."""
    cm = ConstraintManager(Scenario(seed=0, runtime=runtime))
    for i in range(n_sites):
        cm.add_site(f"s{i}")
    return cm


def make_federation(n_sites=3, faults=None, time_scale=100.0):
    runtime = ProcRuntime(
        bootstrap=federation_bootstrap,
        bootstrap_kwargs={"n_sites": n_sites},
        time_scale=time_scale,
        faults=faults,
    )
    cm = federation_bootstrap(n_sites, runtime=runtime)
    sites = [f"s{i}" for i in range(n_sites)]
    return cm, sites


def notice(origin, time, detail, recovered=False):
    return FailureNotice(
        site=origin,
        source_name="src",
        kind="crash",
        time=time,
        detail=detail,
        recovered=recovered,
    )


class TestProcEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_proc_matches_sim_verdicts(self, seed):
        report = run_equivalence(seed, runtime="proc")
        assert report.ok, report.render()
        assert report.wire.runtime == "proc"
        # Real work happened in the shell processes, not a silent no-op.
        assert report.wire.events_recorded > 0
        assert report.wire.rules_fired > 0
        assert report.wire.messages_sent > 0


class TestProcRelayUnderFaults:
    def test_exactly_once_in_order_despite_dup_and_reorder(self):
        cm, sites = make_federation(4, faults=HOSTILE)
        try:
            seen = {site: [] for site in sites}
            for site in sites:
                cm.shell(site).on_failure.append(seen[site].append)

            first = notice("s0", seconds(1), "first")
            second = notice("s0", seconds(2), "second")
            cm.scenario.sim.at(
                seconds(1), lambda: cm.shell("s0").report_failure(first)
            )
            cm.scenario.sim.at(
                seconds(2), lambda: cm.shell("s0").report_failure(second)
            )
            cm.run(until=seconds(30))

            for site in sites:
                assert seen[site] == [first, second], site
                assert cm.shell(site).failure_log == [first, second], site

            # The faults actually happened across process boundaries and
            # the resequencers healed them.
            stats = cm.scenario.network.channel_stats()
            assert sum(s["frames_duplicated"] for s in stats.values()) >= 1
            assert sum(s["duplicates_discarded"] for s in stats.values()) >= 1
        finally:
            cm.scenario.shutdown()

    def test_notices_cross_as_json_not_by_reference(self):
        cm, sites = make_federation(3, faults=HOSTILE)
        try:
            seen = {site: [] for site in sites}
            for site in sites:
                cm.shell(site).on_failure.append(seen[site].append)
            original = notice("s0", seconds(1), "crash")
            cm.scenario.sim.at(
                seconds(1), lambda: cm.shell("s0").report_failure(original)
            )
            cm.run(until=seconds(20))
            for peer in ("s1", "s2"):
                assert len(seen[peer]) == 1, peer
                received = seen[peer][0]
                # Equal but a different object: rebuilt from JSON twice
                # (once across the wire, once at harvest) in a different
                # address space.
                assert received == original
                assert received is not original
        finally:
            cm.scenario.shutdown()

    def test_remote_shells_do_not_reforward(self):
        cm, __ = make_federation(3, faults=HOSTILE)
        try:
            only = notice("s0", seconds(1), "only")
            cm.scenario.sim.at(
                seconds(1), lambda: cm.shell("s0").report_failure(only)
            )
            cm.run(until=seconds(20))
            # One origin, two peers: exactly two messages enter the wire.
            assert cm.scenario.network.messages_sent == 2
        finally:
            cm.scenario.shutdown()


class TestProcSupervision:
    def test_killed_shell_becomes_failure_notice_not_hang(self):
        cm, sites = make_federation(3, time_scale=50.0)
        runtime = cm.scenario.runtime_impl
        try:
            cm.run(until=seconds(5))  # spawns and registers the children
            info = runtime.process_info()
            assert sorted(info) == sites
            assert all(entry["alive"] for entry in info.values())
            assert all(entry["pid"] for entry in info.values())

            victim_pid = info["s2"]["pid"]
            cm.scenario.sim.at(
                seconds(10), lambda: os.kill(victim_pid, signal.SIGKILL)
            )
            cm.run(until=seconds(20))  # must complete, not hang

            info = runtime.process_info()
            assert not info["s2"]["alive"]
            assert info["s2"]["exit_code"] == -signal.SIGKILL
            assert info["s0"]["alive"] and info["s1"]["alive"]

            deaths = [
                n
                for n in cm.shell("s2").failure_log
                if n.source_name == "cm-shell-process"
            ]
            assert len(deaths) == 1
            assert deaths[0].site == "s2"
            assert not deaths[0].recovered
            assert "exited" in deaths[0].detail

            report = runtime.process_report()
            assert report["enabled"] is True
            assert report["sites"]["s2"]["alive"] is False
        finally:
            cm.scenario.shutdown()

    def test_shutdown_harvests_exit_codes(self):
        cm, sites = make_federation(2, time_scale=100.0)
        runtime = cm.scenario.runtime_impl
        cm.run(until=seconds(5))
        pids = {s: runtime.process_info()[s]["pid"] for s in sites}
        cm.scenario.shutdown()
        info = runtime.process_info()
        for site in sites:
            assert info[site]["alive"] is False
            assert info[site]["exit_code"] == 0, info
            assert info[site]["pid"] == pids[site]
