"""Tests for indexed rule dispatch (RuleIndex + compiled matchers).

The load-bearing property: for any rule mix and any event stream, the index
must yield *exactly* the rules, bindings, and firing order that the linear
scan over all installed rules produces.  The randomized equivalence tests
below drive that over generated rule/event mixes; the directed tests cover
the catch-all bucket and family-variable (parameterized) templates.
"""

import random

import pytest

from cm_helpers import two_site_relational

from repro.cm import ConstraintManager, Scenario
from repro.cm.dispatch import RuleIndex
from repro.core.dsl import parse_rule
from repro.core.errors import BindingError, SpecError
from repro.core.events import (
    EventDesc,
    EventKind,
    notify_desc,
    periodic_desc,
    read_response_desc,
    spontaneous_write_desc,
    write_desc,
)
from repro.core.items import DataItemRef
from repro.core.rules import RhsStep, Rule
from repro.core.templates import (
    FALSE_TEMPLATE,
    Template,
    compile_fields_matcher,
    match_desc,
)
from repro.core.terms import (
    FAMILY_WILDCARD,
    WILDCARD,
    Const,
    ItemPattern,
    Var,
    ground_item,
)
from repro.core.timebase import seconds
from repro.core.trace import ExecutionTrace, validate_trace

FAMILIES = ["alpha", "beta", "gamma", "delta"]
ITEM_KINDS = [
    EventKind.WRITE,
    EventKind.SPONTANEOUS_WRITE,
    EventKind.WRITE_REQUEST,
    EventKind.READ_REQUEST,
    EventKind.READ_RESPONSE,
    EventKind.NOTIFY,
]
KEYS = ["e1", "e2", "e3"]
VALUES = [1.0, 2.0, "x"]


def random_template(rng: random.Random) -> Template:
    """A random LHS template, occasionally family-variable."""
    kind = rng.choice(ITEM_KINDS + [EventKind.PERIODIC])
    if kind is EventKind.PERIODIC:
        return Template(kind, None, (Const(seconds(rng.choice([5, 10]))),))
    name = rng.choice(FAMILIES + [FAMILY_WILDCARD])
    arg_terms = []
    for __ in range(rng.choice([0, 1, 1, 2])):
        arg_terms.append(
            rng.choice([Var("n"), Var("m"), Const(rng.choice(KEYS)), WILDCARD])
        )
    value_terms = tuple(
        rng.choice([Var("b"), Const(rng.choice(VALUES)), WILDCARD])
        for __ in range(kind.value_arity)
    )
    return Template(kind, ItemPattern(name, tuple(arg_terms)), value_terms)


def random_rule(rng: random.Random, serial: int) -> Rule:
    """A random prohibition rule (RHS irrelevant to dispatch)."""
    return Rule(
        name=f"r{serial}",
        lhs=random_template(rng),
        delay=0,
        steps=(RhsStep(FALSE_TEMPLATE),),
    )


def random_desc(rng: random.Random) -> EventDesc:
    kind = rng.choice(ITEM_KINDS + [EventKind.PERIODIC])
    if kind is EventKind.PERIODIC:
        return periodic_desc(seconds(rng.choice([5, 10])))
    ref = DataItemRef(
        rng.choice(FAMILIES),
        tuple(rng.choice(KEYS) for __ in range(rng.choice([0, 1, 1, 2]))),
    )
    values = tuple(rng.choice(VALUES) for __ in range(kind.value_arity))
    return EventDesc(kind, ref, values)


def desc_matcher(tmpl: Template):
    """``tmpl``'s fields matcher, called on a descriptor's fields."""
    match = compile_fields_matcher(tmpl)

    def on_desc(desc: EventDesc):
        first, second = (desc.values + (None, None))[:2]
        return match(desc.kind._value_, desc.item, first, second)

    return on_desc


def ground(tmpl: Template, bindings: dict, rng: random.Random) -> EventDesc:
    """A descriptor ``tmpl`` matches under ``bindings``, but for a variable
    occurrence now and then drawn afresh (a repeated variable that may
    disagree); wildcards (a family wildcard too) take random values."""

    def value(term):
        if isinstance(term, Var):
            if rng.random() < 0.1:
                return rng.choice(KEYS + VALUES)
            return bindings[term.name]
        if isinstance(term, Const):
            return term.value
        return rng.choice(KEYS + VALUES)

    ref = None
    if tmpl.item is not None:
        family = tmpl.item.name
        if family == FAMILY_WILDCARD:
            family = rng.choice(FAMILIES)
        ref = DataItemRef(family, tuple(value(term) for term in tmpl.item.args))
    return EventDesc(tmpl.kind, ref, tuple(value(term) for term in tmpl.values))


def random_rule_templates(rng: random.Random) -> tuple[Template, Template]:
    """An LHS and an RHS step a rule accepts: every step variable bound on
    the LHS, but for a read request's (an enumerating read's)."""
    while True:
        lhs, step = random_template(rng), random_template(rng)
        try:
            Rule("r", lhs, 0, (RhsStep(step),))
        except SpecError:
            continue
        return lhs, step


def property_5_findings(lhs: Template, step: Template, trigger, generated):
    """What ``validate_trace`` says of ``generated`` fired by a one-step rule
    ``lhs -> step`` on ``trigger``: its property-5 messages."""
    rule = Rule("r", lhs, seconds(10), (RhsStep(step),))
    trace = ExecutionTrace()
    source = trace.record(seconds(1), "s", trigger)
    trace.record(seconds(1), "s", generated, rule=rule, trigger=source)
    return [
        v.message for v in validate_trace(trace, []) if v.property_number == 5
    ]


class TestCompiledMatcherEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_interpreted_match_desc(self, seed):
        rng = random.Random(seed)
        templates = [random_template(rng) for __ in range(60)]
        matchers = [desc_matcher(t) for t in templates]
        descs = [random_desc(rng) for __ in range(200)]
        for desc in descs:
            for tmpl, matcher in zip(templates, matchers):
                assert matcher(desc) == match_desc(tmpl, desc), (
                    f"compiled and interpreted matching disagree for "
                    f"{tmpl} vs {desc}"
                )

    def test_positional_plan_agrees_with_both_matches(self):
        # Property 5 asks of a generated event that its trigger matches the
        # rule's LHS and that it instantiates the RHS step *under* the LHS
        # interpretation: both match on their own and agree on every
        # variable they share.  The random templates cover constants,
        # WILDCARD, FAMILY_WILDCARD and repeated variables; the events are
        # grounded from them (or drawn at random), under bindings that
        # sometimes agree and sometimes do not.
        rng = random.Random(1000)
        outcomes = {"match": 0, "no LHS": 0, "no step": 0, "disagree": 0}
        for __ in range(3200):
            lhs, step = random_rule_templates(rng)
            given = {name: rng.choice(KEYS + VALUES) for name in "nmb"}
            trigger = ground(lhs, given, rng)
            if rng.random() < 0.2:
                trigger = random_desc(rng)
            redrawn = dict(given, **{rng.choice("nmb"): rng.choice(KEYS + VALUES)})
            generated = ground(step, redrawn if rng.random() < 0.5 else given, rng)
            if rng.random() < 0.2:
                generated = random_desc(rng)
            bound = match_desc(lhs, trigger)
            alone = match_desc(step, generated)
            if bound is None:
                expected, outcome = ["trigger does not match the rule's LHS"], "no LHS"
            elif alone is None or any(
                alone[name] != value for name, value in bound.items() if name in alone
            ):
                expected = ["event is not an instantiation of any RHS template"]
                outcome = "no step" if alone is None else "disagree"
            else:
                expected, outcome = [], "match"
            found = property_5_findings(lhs, step, trigger, generated)
            assert found == expected, f"{lhs} -> {step} on {trigger}, {generated}"
            outcomes[outcome] += 1
        assert all(outcomes.values()), outcomes  # every outcome was exercised

    def test_false_step_is_never_instantiated(self):
        lhs = Template(EventKind.NOTIFY, ItemPattern("alpha", ()), (Var("b"),))
        trigger = notify_desc(DataItemRef("alpha"), 1.0)
        generated = write_desc(DataItemRef("alpha"), 1.0)
        assert property_5_findings(lhs, FALSE_TEMPLATE, trigger, generated) == [
            "event is not an instantiation of any RHS template"
        ]

    def test_false_template_never_matches(self):
        matcher = desc_matcher(FALSE_TEMPLATE)
        assert matcher(notify_desc(DataItemRef("alpha"), 1.0)) is None

    def test_repeated_variable_must_agree(self):
        tmpl = Template(
            EventKind.SPONTANEOUS_WRITE,
            ItemPattern("alpha", ()),
            (Var("b"), Var("b")),
        )
        matcher = desc_matcher(tmpl)
        ref = DataItemRef("alpha")
        assert matcher(spontaneous_write_desc(ref, 5.0, 5.0)) == {"b": 5.0}
        assert matcher(spontaneous_write_desc(ref, 4.0, 5.0)) is None


class TestIndexEquivalence:
    """Indexed candidate selection == linear scan, including firing order."""

    @staticmethod
    def linear_matches(index: RuleIndex, desc: EventDesc):
        """Reference semantics: scan every rule in install order."""
        out = []
        for installed in index:
            bindings = match_desc(installed.rule.lhs, desc)
            if bindings is not None:
                out.append((installed.rule.name, bindings))
        return out

    @staticmethod
    def indexed_matches(index: RuleIndex, desc: EventDesc):
        out = []
        for installed in index.candidates(desc):
            program = installed.program
            slots = program.match(desc)
            if slots is not None:
                lhs_vars = installed.rule.lhs.variables()
                bindings = {
                    name: value
                    for name, value in zip(program.slot_names, slots)
                    if name in lhs_vars
                }
                out.append((installed.rule.name, bindings))
        return out

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_rule_event_mixes(self, seed):
        rng = random.Random(1000 + seed)
        index = RuleIndex()
        for serial in range(rng.choice([3, 20, 80])):
            index.add(random_rule(rng, serial), None)
            # Lookups between installs: the memoized merged buckets must
            # follow every add and stay in installation order.
            desc = random_desc(rng)
            assert self.indexed_matches(index, desc) == self.linear_matches(
                index, desc
            )
        for __ in range(300):
            desc = random_desc(rng)
            assert self.indexed_matches(index, desc) == self.linear_matches(
                index, desc
            )

    def test_candidates_are_a_strict_subset_under_many_families(self):
        rng = random.Random(7)
        index = RuleIndex()
        for serial in range(200):
            rule = parse_rule(
                f"N(fam{serial}(n), b) -> [1] FALSE", name=f"r{serial}"
            )
            index.add(rule, None)
        desc = notify_desc(DataItemRef("fam7", ("k",)), 1.0)
        candidates = index.candidates(desc)
        assert [c.rule.name for c in candidates] == ["r7"]
        # ... and the pruning never drops a real match (cross-check):
        assert self.indexed_matches(index, desc) == self.linear_matches(
            index, desc
        )
        del rng


class TestCatchAllBucket:
    def test_family_variable_template_lands_in_catch_all(self):
        index = RuleIndex()
        keyed = Rule(
            name="keyed",
            lhs=Template(
                EventKind.NOTIFY, ItemPattern("alpha", (Var("n"),)), (Var("b"),)
            ),
            delay=0,
            steps=(RhsStep(FALSE_TEMPLATE),),
        )
        any_family = Rule(
            name="any-family",
            lhs=Template(
                EventKind.NOTIFY,
                ItemPattern(FAMILY_WILDCARD, (Var("n"),)),
                (Var("b"),),
            ),
            delay=0,
            steps=(RhsStep(FALSE_TEMPLATE),),
        )
        index.add(keyed, None)
        index.add(any_family, None)
        alpha = notify_desc(DataItemRef("alpha", ("e1",)), 1.0)
        beta = notify_desc(DataItemRef("beta", ("e1",)), 1.0)
        assert [c.rule.name for c in index.candidates(alpha)] == [
            "keyed",
            "any-family",
        ]
        assert [c.rule.name for c in index.candidates(beta)] == ["any-family"]

    def test_merge_preserves_installation_order(self):
        index = RuleIndex()

        def rule(name, family):
            return Rule(
                name=name,
                lhs=Template(
                    EventKind.NOTIFY,
                    ItemPattern(family, (Var("n"),)),
                    (Var("b"),),
                ),
                delay=0,
                steps=(RhsStep(FALSE_TEMPLATE),),
            )

        index.add(rule("k1", "alpha"), None)
        index.add(rule("w1", FAMILY_WILDCARD), None)
        index.add(rule("k2", "alpha"), None)
        index.add(rule("w2", FAMILY_WILDCARD), None)
        index.add(rule("k3", "alpha"), None)
        desc = notify_desc(DataItemRef("alpha", ("e1",)), 1.0)
        assert [c.rule.name for c in index.candidates(desc)] == [
            "k1",
            "w1",
            "k2",
            "w2",
            "k3",
        ]

    def test_catch_all_only_sees_matching_kinds(self):
        index = RuleIndex()
        any_notify = Rule(
            name="any-notify",
            lhs=Template(
                EventKind.NOTIFY, ItemPattern(FAMILY_WILDCARD, ()), (Var("b"),)
            ),
            delay=0,
            steps=(RhsStep(FALSE_TEMPLATE),),
        )
        index.add(any_notify, None)
        assert index.candidates(write_desc(DataItemRef("alpha"), 1.0)) == []
        assert [
            c.rule.name
            for c in index.candidates(notify_desc(DataItemRef("zeta"), 1.0))
        ] == ["any-notify"]


class TestFamilyVariableTemplates:
    def test_wildcard_family_matches_and_binds_args(self):
        tmpl = Template(
            EventKind.READ_RESPONSE,
            ItemPattern(FAMILY_WILDCARD, (Var("n"),)),
            (Var("b"),),
        )
        matcher = desc_matcher(tmpl)
        desc = read_response_desc(DataItemRef("anything", ("e9",)), 3.5)
        assert matcher(desc) == {"n": "e9", "b": 3.5}
        assert matcher(desc) == match_desc(tmpl, desc)

    def test_wildcard_family_still_checks_arity(self):
        tmpl = Template(
            EventKind.NOTIFY,
            ItemPattern(FAMILY_WILDCARD, (Var("n"),)),
            (Var("b"),),
        )
        matcher = desc_matcher(tmpl)
        assert matcher(notify_desc(DataItemRef("alpha"), 1.0)) is None

    def test_wildcard_family_cannot_be_grounded(self):
        pattern = ItemPattern(FAMILY_WILDCARD, (Const("e1"),))
        with pytest.raises(BindingError):
            ground_item(pattern, {})


class TestShellDispatchCounters:
    def test_counters_show_pruning(self):
        cm, __, ___, ____, _____ = two_site_relational()
        shell = cm.shell("sf")
        for index in range(50):
            cm.locations.register(f"Private{index}", "sf")
            shell.install(
                parse_rule(
                    f"N(other{index}(n), b) -> [5] W(Private{index}(n), b)",
                    name=f"miss{index}",
                )
            )
        shell.install(
            parse_rule("N(salary1(n), b) -> [5] W(Seen(n), b)", name="hit")
        )
        cm.locations.register("Seen", "sf")
        shell.translator_for("salary1").setup_notify("salary1")
        cm.scenario.sim.at(
            seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 7.0)
        )
        cm.run(until=seconds(10))
        stats = shell.stats()
        assert stats["rules_installed"] == 51
        assert stats["rules_fired"] == 1
        # The N(salary1) event consults only its bucket (1 rule), not all
        # 51; the chained W(Seen) event consults nothing.
        assert stats["candidates_considered"] < stats["events_processed"] * 5
        assert cm.stats()["sf"] == stats
        assert cm.stats()["total"]["rules_fired"] >= 1

    def test_index_prunes_five_fold_at_1000_rules(self):
        # One prohibition rule per family plus a family-wildcard rule per
        # 50, which every event still consults: 4 196 candidates for 200
        # events, against 200 000 for a linear scan.
        cm = ConstraintManager(Scenario(seed=0))
        shell = cm.add_site("bench")
        wildcard = Template(
            EventKind.NOTIFY,
            ItemPattern(FAMILY_WILDCARD, (Var("n"),)),
            (Var("b"),),
        )
        for i in range(1000):
            if i % 50 == 49:
                shell.install(Rule(f"r{i}", wildcard, 0, (RhsStep(FALSE_TEMPLATE),)))
            else:
                shell.install(parse_rule(f"N(fam{i}(n), b) -> [1] FALSE", name=f"r{i}"))
        for i in range(200):
            desc = notify_desc(DataItemRef(f"fam{i}", ("e",)), float(i))
            shell.deliver_local_event(
                cm.scenario.trace.record(seconds(i + 1), "bench", desc)
            )
        stats = shell.stats()
        assert stats["events_processed"] == 200
        assert (
            stats["candidates_considered"] * 5
            <= stats["rules_installed"] * stats["events_processed"]
        )

    def test_firing_order_matches_install_order_across_buckets(self):
        cm, __, ___, ____, _____ = two_site_relational()
        shell = cm.shell("sf")
        for family in ("First", "Second", "Third"):
            cm.locations.register(family, "sf")
        shell.install(
            parse_rule("N(salary1(n), b) -> [5] W(First(n), b)", name="a")
        )
        wildcard_rule = Rule(
            name="b",
            lhs=Template(
                EventKind.NOTIFY,
                ItemPattern(FAMILY_WILDCARD, (Var("n"),)),
                (Var("b"),),
            ),
            delay=0,
            steps=(
                RhsStep(
                    Template(
                        EventKind.WRITE,
                        ItemPattern("Second", (Var("n"),)),
                        (Var("b"),),
                    )
                ),
            ),
        )
        shell.install(wildcard_rule)
        shell.install(
            parse_rule("N(salary1(n), b) -> [5] W(Third(n), b)", name="c")
        )
        shell.translator_for("salary1").setup_notify("salary1")
        cm.scenario.sim.at(
            seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 7.0)
        )
        cm.run(until=seconds(10))
        fired = [
            event.rule.name
            for event in cm.scenario.trace.events
            if event.desc.kind is EventKind.WRITE and event.rule is not None
        ]
        assert fired == ["a", "b", "c"]


class TestCandidateMemo:
    """A rule added to the set shows on the next ``candidates()``."""

    def test_rule_installed_between_blocks_fires_on_the_second(self):
        cm = ConstraintManager(Scenario(seed=0))
        shell = cm.add_site("s")
        cm.locations.register("Seen", "s")
        block = [notify_desc(DataItemRef("fam", ("k1",)), 1.0)]
        shell.ingest_batch(block)  # memoizes "no candidates" for N(fam)
        shell.install(parse_rule("N(fam(n), b) -> [0] W(Seen(n), b)", name="seen"))
        shell.ingest_batch(block)
        assert shell.stats()["rules_fired"] == 1
