"""Unit tests for the parallel-phase planner.

``plan_from_entries`` is exercised shell-free (the form CM-Lint uses);
``TestAdversarialNeverCertified`` goes through the shell-backed
``build_parallel_plan`` (the form the race sanitizer uses).
"""

from __future__ import annotations

from repro.analysis.parplan import (
    REASON_SEND,
    REASON_WILDCARD_WRITE,
    build_parallel_plan,
    effective_summaries,
    plan_from_entries,
)
from repro.cm import ConstraintManager, Scenario
from repro.core.compile import compile_rule
from repro.core.dsl import parse_rule
from repro.core.errors import CompileError
from repro.core.events import EventKind
from repro.core.rules import RhsStep
from repro.core.templates import Template
from repro.core.terms import FAMILY_WILDCARD, ItemPattern, Var


def entry(text, name, sends=False, rule=None):
    rule = rule if rule is not None else parse_rule(text, name=name)
    try:
        program = compile_rule(rule)
    except CompileError:
        program = None
    return (rule, program, sends)


def plan_of(*entries):
    return plan_from_entries("s", list(entries))


class TestPhasePartition:
    def test_commuting_rules_share_one_phase(self):
        plan = plan_of(
            entry("N(alpha(n), b) -> [0] W(OutA(n), b)", "ra"),
            entry("N(beta(n), b) -> [0] W(OutB(n), b)", "rb"),
            entry("N(gamma(n), b) -> [0] W(OutC(n), b)", "rc"),
        )
        assert len(plan.phases) == 1
        assert not plan.phases[0].barrier
        assert plan.certified_pairs == 3
        assert plan.independent("ra", "rb")
        assert plan.independent("rb", "rc")

    def test_conflicting_writers_split_into_phases(self):
        plan = plan_of(
            entry("N(alpha(n), b) -> [0] W(Total, b)", "ra"),
            entry("N(beta(n), b) -> [0] W(Total, b)", "rb"),
        )
        assert len(plan.phases) == 2
        assert not plan.independent("ra", "rb")
        assert plan.certified_pairs == 0
        (conflict,) = plan.conflicts
        assert {conflict.rule_a, conflict.rule_b} == {"ra", "rb"}
        assert conflict.kind == "ww"

    def test_a_rule_is_never_independent_of_itself(self):
        plan = plan_of(entry("N(alpha(n), b) -> [0] W(Out(n), b)", "ra"))
        assert not plan.independent("ra", "ra")

    def test_unknown_rule_is_not_independent(self):
        plan = plan_of(entry("N(alpha(n), b) -> [0] W(Out(n), b)", "ra"))
        assert not plan.independent("ra", "ghost")


class TestBarriers:
    def test_cross_site_send_forces_the_barrier(self):
        plan = plan_of(
            entry("N(alpha(n), b) -> [0] WR(remote(n), b)", "push", sends=True),
            entry("N(beta(n), b) -> [0] W(Out(n), b)", "local"),
        )
        assert plan.barrier_reasons == {"push": REASON_SEND}
        barrier = plan.phases[-1]
        assert barrier.barrier and barrier.rules == ("push",)
        # Barrier members are certified against nothing, even each other.
        assert not plan.independent("push", "local")

    def test_wildcard_write_forces_the_barrier(self):
        base = parse_rule("W(Mid(n), b) -> [0] W(Shadow, b)", name="mirror")
        wildcard = Template(
            EventKind.WRITE,
            ItemPattern(FAMILY_WILDCARD, (Var("n"),)),
            (Var("b"),),
        )
        from dataclasses import replace

        rule = replace(base, steps=(RhsStep(wildcard),))
        plan = plan_of(
            entry(None, "mirror", rule=rule),
            entry("N(beta(n), b) -> [0] W(Out(n), b)", "local"),
        )
        assert plan.barrier_reasons == {"mirror": REASON_WILDCARD_WRITE}
        assert not plan.independent("mirror", "local")

    def test_two_barrier_rules_share_the_single_barrier_phase(self):
        plan = plan_of(
            entry("N(a(n), b) -> [0] WR(ra(n), b)", "p1", sends=True),
            entry("N(b(n), b) -> [0] WR(rb(n), b)", "p2", sends=True),
        )
        assert len(plan.phases) == 1
        assert plan.phases[0].barrier
        assert plan.certified_pairs == 0
        assert not plan.independent("p1", "p2")


class TestChainedWrites:
    def test_chained_private_write_absorbs_target_footprint(self):
        # ra's W(Mid) triggers chain's RHS inline, so ra effectively
        # writes Out too — and must conflict with rc, which also writes
        # Out, even though ra's own template never mentions it.
        entries = [
            entry("N(alpha(n), b) -> [0] W(Mid, b)", "ra"),
            entry("W(Mid, b) -> [0] W(Out, b)", "chain"),
            entry("N(beta(n), b) -> [0] W(Out, b)", "rc"),
        ]
        summaries = effective_summaries(entries)
        assert any(t.family == "Out" for t in summaries["ra"].writes)
        plan = plan_from_entries("s", entries)
        assert not plan.independent("ra", "rc")

    def test_chaining_reaches_fixpoint_over_two_hops(self):
        entries = [
            entry("N(alpha(n), b) -> [0] W(MidA, b)", "ra"),
            entry("W(MidA, b) -> [0] W(MidB, b)", "hop1"),
            entry("W(MidB, b) -> [0] W(Out, b)", "hop2"),
        ]
        summaries = effective_summaries(entries)
        assert any(t.family == "Out" for t in summaries["ra"].writes)


class TestHoistingGates:
    def test_conditionless_rule_is_store_free_and_hoistable(self):
        plan = plan_of(entry("N(alpha(n), b) -> [0] W(Out(n), b)", "ra"))
        assert "ra" in plan.store_free
        assert "ra" in plan.hoistable

    def test_condition_over_unwritten_item_is_hoistable_not_store_free(self):
        plan = plan_of(
            entry("N(alpha(n), b) & (b > Limit) -> [0] W(Out(n), b)", "ra"),
        )
        assert "ra" in plan.hoistable
        assert "ra" not in plan.store_free

    def test_condition_over_locally_written_item_is_not_hoistable(self):
        # rb writes Limit, so ra's condition verdict can change mid-batch:
        # hoisting it would be unsound.
        plan = plan_of(
            entry("N(alpha(n), b) & (b > Limit) -> [0] W(Out(n), b)", "ra"),
            entry("N(beta(n), b) -> [0] W(Limit, b)", "rb"),
        )
        assert "ra" not in plan.hoistable

    def test_own_write_blocks_hoisting(self):
        # An earlier firing of the same rule in a batch writes before a
        # later firing's condition would have run serially.
        plan = plan_of(
            entry("N(alpha(n), b) & (b > Acc) -> [0] W(Acc, b)", "ra"),
        )
        assert "ra" not in plan.hoistable


class TestPlanShape:
    def test_to_dict_shape(self):
        plan = plan_of(
            entry("N(alpha(n), b) -> [0] W(Out(n), b)", "ra"),
            entry("N(b(n), b) -> [0] WR(rb(n), b)", "push", sends=True),
        )
        data = plan.to_dict()
        assert set(data) == {
            "site", "phases", "certified_pairs", "barrier_reasons",
            "conflicts", "hoistable", "store_free", "fallback_rules",
        }
        assert data["site"] == "s"
        assert data["phases"][-1]["barrier"] is True

    def test_uncompilable_rule_listed_as_fallback(self):
        plan = plan_of(
            entry("N(alpha(n), b) -> [0] N(echo(n), b)", "bad"),
        )
        assert plan.to_dict()["fallback_rules"] == ["bad"]
        assert plan.summaries["bad"].fallback

    def test_enumerating_conflict_is_marked(self):
        plan = plan_of(
            entry("P(60) -> [0] RR(pos(m))", "scan"),
            entry("N(fill(n), b) -> [0] WR(pos(n), b)", "record"),
        )
        (conflict,) = plan.conflicts
        assert conflict.enumerating
        assert not plan.independent("scan", "record")


class TestAdversarialNeverCertified:
    """One rule pair per non-commuting shape: whatever else the planner
    does, ``independent()`` must stay False for these."""

    def _plan(self, rules, rhs_sites=()):
        cm = ConstraintManager(Scenario(seed=0))
        cm.add_site("s")
        cm.add_site("peer")
        shell = cm.shell("s")
        sites = dict(rhs_sites)
        for text, name in rules:
            shell.install(parse_rule(text, name=name), sites.get(name))
        return build_parallel_plan(shell)

    def test_write_write_on_the_same_item(self):
        plan = self._plan([
            ("N(a(n), b) -> [0] W(Total, b)", "ra"),
            ("N(b(n), b) -> [0] W(Total, b)", "rb"),
        ])
        assert not plan.independent("ra", "rb")

    def test_read_vs_write(self):
        plan = self._plan([
            ("N(a(n), b) & (b > Total) -> [0] W(Out(n), b)", "ra"),
            ("N(b(n), b) -> [0] W(Total, b)", "rb"),
        ])
        assert not plan.independent("ra", "rb")

    def test_enumerating_read_vs_family_write(self):
        plan = self._plan([
            ("N(a(n), b) -> [0] RR(pos(x))", "scan"),
            ("N(b(n), b) -> [0] W(pos(n), b)", "record"),
        ])
        assert not plan.independent("scan", "record")

    def test_cross_site_sender_is_never_certified(self):
        plan = self._plan(
            [
                ("N(a(n), b) -> [0] W(Far(n), b)", "push"),
                ("N(b(n), b) -> [0] W(Out(n), b)", "local"),
            ],
            rhs_sites={"push": "peer"},
        )
        assert plan.barrier_reasons["push"]
        assert not plan.independent("push", "local")

    def test_chained_write_collision_is_never_certified(self):
        # ra only writes Mid, but Mid triggers the chain rule which
        # writes Total — colliding with rb's direct write.
        plan = self._plan([
            ("N(a(n), b) -> [0] W(Mid, b)", "ra"),
            ("W(Mid, b) -> [0] W(Total, b)", "chain"),
            ("N(b(n), b) -> [0] W(Total, b)", "rb"),
        ])
        assert not plan.independent("ra", "rb")

    def test_overlap_must_be_proven_absent_not_just_unlikely(self):
        # ANY-keyed writes to the same family may alias: not certifiable.
        plan = self._plan([
            ("N(a(n), b) -> [0] W(Out(n), b)", "ra"),
            ("N(b(n), b) -> [0] W(Out(n), b)", "rb"),
        ])
        assert not plan.independent("ra", "rb")
