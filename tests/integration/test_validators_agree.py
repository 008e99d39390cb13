"""The indexed validator and the naive specification agree on the traces the
experiments' own wirings produce.

``validate_trace`` reads the trace's rows; ``validate_trace_naive`` reads the
event views built from them.  Random traces and one scenario cover the
properties clause by clause (``tests/core/test_trace_equivalence.py``); here
every experiment's ``build_for_lint()`` wiring is driven at test scale —
a few spontaneous writes per writable family, then two virtual minutes —
and both validators must flag the same events for the same reasons.  So that
agreement is not over an idle trace, every rule the workload drives must
have generated an event.
"""

import importlib
from collections import Counter

import pytest

from repro.analysis.targets import EXPERIMENT_TARGETS
from repro.core.events import EventKind
from repro.core.interfaces import InterfaceKind
from repro.core.timebase import seconds
from repro.core.trace import validate_trace, validate_trace_naive

UPDATES = 6
HORIZON = seconds(120)
#: What the toolkit records after a generated event of the first kind.
_FOLLOWS = {
    EventKind.WRITE_REQUEST: EventKind.WRITE,
    EventKind.READ_REQUEST: EventKind.READ_RESPONSE,
}


def _value(translator, family: str, index: int):
    """A value the family's store accepts: text for a TEXT column."""
    binding = translator.rid.bindings[family]
    db = getattr(translator, "db", None)
    if db is not None:
        [(schema,)] = db.query(
            "SELECT sql FROM sqlite_schema WHERE name = ?",
            (binding.locator["table"],),
        )
        if f'"{binding.locator["value_column"]} expects TEXT"' in schema:
            return f"v{index}"
    return index


def _drive(cm) -> set[str]:
    """Schedule spontaneous writes on every family that takes them and run;
    returns the families written."""
    written: set[str] = set()
    for shell in cm.shells.values():
        for family, translator in shell.translators.items():
            offered = translator.offered_interfaces()
            if offered.has(family, InterfaceKind.NO_SPONTANEOUS_WRITE):
                continue
            arity = len(translator.rid.bindings[family].params)
            for index in range(UPDATES):
                args = (f"k{index % 2}",) * arity
                value = _value(translator, family, index + 1)
                cm.scenario.sim.at(
                    seconds(1 + 7 * index + len(written) % 3),
                    lambda f=family, a=args, v=value: cm.spontaneous_write(f, a, v),
                )
            written.add(family)
    cm.run(until=HORIZON)
    return written


def _driven(rules, written: set[str]) -> list:
    """The rules the workload drives: a periodic rule whose period falls
    inside the run, and a rule whose LHS kind and family the workload's
    spontaneous writes (``Ws``, their ``N``) or a driven rule's RHS (and
    the ``W`` / ``R`` that answers a ``WR`` / ``RR``) produce."""
    produced = {
        (kind, family)
        for family in written
        for kind in (EventKind.SPONTANEOUS_WRITE, EventKind.NOTIFY)
    }
    driven: list = []
    while True:
        more = [
            rule
            for rule in rules
            if rule not in driven
            and (
                rule.lhs.values[0].value <= HORIZON
                if rule.lhs.kind is EventKind.PERIODIC
                else (rule.lhs.kind, rule.lhs.item_family) in produced
            )
        ]
        if not more:
            return driven
        driven += more
        for rule in more:
            for step in rule.steps:
                kind, family = step.template.kind, step.template.item_family
                produced.add((kind, family))
                produced.add((_FOLLOWS.get(kind, kind), family))


def _split(violations):
    """(Properties 1-6 verbatim, the event seqs property 7 flags): the
    scan reports each late event once, the pairwise reference once per
    inverted pair it is the late member of."""
    exact = [
        (v.property_number, v.message, v.event.seq if v.event else None)
        for v in violations
        if v.property_number != 7
    ]
    return exact, {v.event.seq for v in violations if v.property_number == 7}


def _wirings(module_name):
    built = importlib.import_module(module_name).build_for_lint()
    return built if isinstance(built, (list, tuple)) else [built]


@pytest.mark.parametrize("target", sorted(EXPERIMENT_TARGETS))
def test_indexed_and_naive_validators_agree(target):
    for cm in _wirings(EXPERIMENT_TARGETS[target]):
        written = _drive(cm)
        assert written
        trace = cm.scenario.trace
        assert len(trace) > 0
        for installed in cm.installed:
            # A strategy that runs on rules installed some.
            assert installed.native_protocol or installed.strategy.rules
        rules = [
            rule for installed in cm.installed for rule in installed.strategy.rules
        ]
        fired = Counter(id(event.rule) for event in trace.generated_events)
        idle = [r.name for r in _driven(rules, written) if not fired[id(r)]]
        assert idle == [], f"driven rules that generated nothing: {idle}"
        assert _split(validate_trace(trace, rules)) == _split(
            validate_trace_naive(trace, rules)
        )
