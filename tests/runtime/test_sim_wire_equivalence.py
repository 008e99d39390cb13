"""Randomized sim-vs-wire equivalence on seeded scenarios.

The contract is NOT identical interleavings — a wall clock and real
sockets cannot replay the discrete-event kernel tick for tick.  It is:
for the same seeded scenario, the wire runtime produces a *valid*
execution (all seven Appendix A trace properties) with the *same
guarantee verdicts* as the sim kernel, and the same logical work
(updates applied, rules fired, messages sent).
"""

import pytest

from equivalence import EquivalenceReport, RuntimeObservation, run_equivalence


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_propagation_scenario_equivalent(seed):
    report = run_equivalence(seed=seed, strategy_kind="propagation")
    assert report.ok, report.render()
    assert report.wire.trace_valid
    assert report.sim.verdicts == report.wire.verdicts
    assert report.sim.updates == report.wire.updates
    assert report.sim.rules_fired == report.wire.rules_fired


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trigger_chains_equivalent_across_runtimes(seed):
    """The wire runtime's trigger chains (the cross-site step a trigger
    carried by value in a ``cm.deliver`` frame) must reach the same
    lag-vs-kappa verdicts as the sim kernel's — every ``W`` resolving back
    to a ``Ws`` or ``P`` root, every cross-site chain within the metric
    guarantee's bound."""
    report = run_equivalence(seed=seed, strategy_kind="propagation")
    assert report.chains_match, report.render()
    for obs in (report.sim, report.wire):
        assert obs.chains > 0
        assert obs.cross_site_chains > 0, obs.runtime
        assert obs.unrooted_chains == 0, obs.runtime
        assert obs.chains_over_kappa == 0, obs.runtime
        assert obs.chains_valid
    # Same workload on both sides: same number of causal chains, and the
    # same number of them crossed sites.
    assert report.sim.chains == report.wire.chains
    assert report.sim.cross_site_chains == report.wire.cross_site_chains


def test_polling_scenario_equivalent():
    # The salary scenario polls every 60 virtual seconds: a 115 s workload
    # run to 125 s spans two polls, so both runtimes really propagate.
    report = run_equivalence(seed=0, strategy_kind="polling", duration_seconds=115.0)
    assert report.ok, report.render()
    assert report.sim.chains == report.wire.chains, report.render()


def test_report_serializes_for_artifacts():
    report = run_equivalence(seed=1, duration_seconds=10.0)
    data = report.to_dict()
    assert data["seed"] == 1
    assert data["ok"] is True
    assert set(data["sim"]["verdicts"]) == set(data["wire"]["verdicts"])
    for side in ("sim", "wire"):
        assert data[side]["chains_valid"] is True
        assert data[side]["unrooted_chains"] == 0
        assert data[side]["chains"] >= data[side]["cross_site_chains"]


def test_two_runs_that_did_nothing_are_not_equivalent():
    def report(sim_counts, wire_counts):
        return EquivalenceReport(
            0,
            "polling",
            RuntimeObservation("sim", **sim_counts),
            RuntimeObservation("async", **wire_counts),
        )

    work = dict(rules_fired=3, messages_sent=3, chains=2)
    assert report(work, work).ok
    for idle in work:
        assert not report(work, dict(work, **{idle: 0})).ok, idle
    assert not report({}, {}).ok
