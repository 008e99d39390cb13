"""Randomized sim-vs-wire equivalence on seeded scenarios.

The contract is NOT identical interleavings — a wall clock and real
sockets cannot replay the discrete-event kernel tick for tick.  It is:
for the same seeded scenario, the wire runtime produces a *valid*
execution (all seven Appendix A trace properties) with the *same
guarantee verdicts* as the sim kernel, and the same logical work
(updates applied, rules fired, messages sent).
"""

import pytest

from equivalence import run_equivalence


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_propagation_scenario_equivalent(seed):
    report = run_equivalence(seed=seed, strategy_kind="propagation")
    assert report.ok, report.render()
    assert report.wire.trace_valid
    assert report.sim.verdicts == report.wire.verdicts
    assert report.sim.updates == report.wire.updates
    assert report.sim.rules_fired == report.wire.rules_fired


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_span_trees_equivalent_across_runtimes(seed):
    """The wire runtime's *reconnected* span trees (trace contexts carried
    in ``cm.deliver`` frames) must reach the same ``end_to_end()``-vs-kappa
    verdicts as the sim kernel's in-process trees — every tree connected,
    every cross-site chain within the metric guarantee's bound."""
    report = run_equivalence(seed=seed, strategy_kind="propagation")
    assert report.spans_match, report.render()
    for obs in (report.sim, report.wire):
        assert obs.span_trees > 0
        assert obs.cross_site_trees > 0, obs.runtime
        assert obs.disconnected_trees == 0, obs.runtime
        assert obs.trees_over_kappa == 0, obs.runtime
        assert obs.spans_valid
    # Same workload on both sides: same number of causal chains, and the
    # same number of them crossed sites.
    assert report.sim.span_trees == report.wire.span_trees
    assert report.sim.cross_site_trees == report.wire.cross_site_trees


def test_polling_scenario_equivalent():
    report = run_equivalence(seed=0, strategy_kind="polling")
    assert report.ok, report.render()


def test_report_serializes_for_artifacts():
    report = run_equivalence(seed=1, duration_seconds=10.0)
    data = report.to_dict()
    assert data["seed"] == 1
    assert data["ok"] is True
    assert set(data["sim"]["verdicts"]) == set(data["wire"]["verdicts"])
    for side in ("sim", "wire"):
        assert data[side]["spans_valid"] is True
        assert data[side]["disconnected_trees"] == 0
        assert data[side]["span_trees"] >= data[side]["cross_site_trees"]
