"""Acceptance: causal chains and the flight recorder over the wire.

A wire-runtime (``runtime="async"``) run with duplicating, reordering
sockets must leave, for every remote ``W``, a trigger chain that resolves
through the trace back to the ``Ws`` on the other site — the firing that
crossed the socket carried its trigger by value, and the trace recorded
it by ``(site, seq)`` — whose lag respects the metric guarantee's kappa;
and a guarantee violation must dump a flight-recorder digest into the run
report.
"""

from trigger_chains import chains, lag, shape

from repro.cm.failures import FailureNotice
from repro.core.timebase import seconds, to_seconds
from repro.experiments.common import build_salary_scenario
from repro.runtime import AsyncRuntime, ChannelFaults, WireFaultPlan
from repro.sim.failures import FailureKind

#: Socket-level fault injection: every frame duplicated and held for
#: reordering — noise the channel layer must absorb without breaking a
#: causal chain.
HOSTILE = WireFaultPlan(default=ChannelFaults(dup=1.0, reorder=1.0))


def run_wire(faults=HOSTILE, fail_site=None):
    salary = build_salary_scenario(
        "propagation",
        runtime=lambda: AsyncRuntime(time_scale=20.0, faults=faults),
    )
    cm = salary.cm
    flight = cm.scenario.obs.enable_flight()
    cm.spontaneous_write("salary1", ("emp1",), 64_000.0)
    cm.scenario.sim.at(
        seconds(5),
        lambda: cm.spontaneous_write("salary1", ("emp2",), 71_000.0),
    )
    if fail_site is not None:
        notice = FailureNotice(
            site=fail_site,
            source_name="hq",
            kind=FailureKind.LOGICAL,
            time=seconds(12),
            detail="injected outage",
        )
        cm.scenario.sim.at(
            seconds(12), lambda: cm.shell(fail_site).report_failure(notice)
        )
    cm.run(until=seconds(30))
    return salary, cm, flight


class TestWireTriggerChains:
    def test_cross_shell_chains_resolve_and_respect_kappa(self):
        salary, cm, __ = run_wire()
        metric = [g for g in salary.installed.guarantees if g.metric]
        assert metric, "scenario should issue a metric follows-guarantee"
        kappa = metric[0].within

        found = chains(cm.scenario.trace)
        assert len(found) == 2  # one chain per spontaneous write
        for chain in found:
            # Resolved despite the socket hop: the firing's trigger came
            # by value in the frame and names an event sf recorded.
            assert shape(chain) == ["Ws@sf", "N@sf", "WR@ny", "W@ny"]
            assert 0 < lag(chain) <= kappa
        (entry,) = cm.run_report().propagation
        assert entry["max_s"] == to_seconds(max(lag(c) for c in found))

    def test_faults_actually_happened(self):
        __, cm, __ = run_wire()
        stats = cm.scenario.network.channel_stats()
        # reorder=1.0 always holds a channel's first frame back; dup only
        # strikes frames that are not already held, so on a two-frame run
        # either counter proves the transport was genuinely hostile.
        injected = sum(
            s["frames_duplicated"] + s["frames_reordered"]
            for s in stats.values()
        )
        assert injected >= 1, stats

    def test_flight_rings_fill_on_both_shells(self):
        __, __, flight = run_wire()
        assert set(flight.sites) == {"sf", "ny"}
        kinds = {row["kind"] for row in flight.digest()}
        assert {"event", "net.send", "net.recv", "fire"} <= kinds


class TestGuaranteeViolationDumps:
    def test_violation_dumps_flight_digest_into_run_report(self):
        salary, cm, flight = run_wire(fail_site="ny")
        report = cm.run_report()

        # The logical failure took the guarantees down ...
        assert report.failures["logical"] == 1
        down = [g for g in report.guarantees if not g["standing"]]
        assert down, "a logical failure must invalidate the guarantees"

        # ... and both the failure intake and the report builder froze
        # the rings: one dump for the notice, one per violated guarantee.
        reasons = [dump["reason"] for dump in report.flight["dumps"]]
        assert any(r.startswith("failure:ny:hq:") for r in reasons)
        for entry in down:
            assert f"guarantee:{entry['name']}" in reasons
        for dump in report.flight["dumps"]:
            assert dump["records"], "dumps carry the last-N digest"
        assert report.flight == flight.to_dict()
        assert "flight:" in report.render()

    def test_healthy_run_report_has_no_dumps(self):
        __, cm, __ = run_wire()
        report = cm.run_report()
        assert report.flight["dumps"] == []
        assert all(g["standing"] for g in report.guarantees)
