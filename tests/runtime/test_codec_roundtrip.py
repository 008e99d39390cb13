"""Codec round-trip property: real traces survive by-value encoding.

The firing codec is what crosses every channel of the wire runtime, so
the property is checked against *real* executions, not synthetic
descriptors: run the Section 4.2 salary scenario on the deterministic
kernel for each catalog strategy and each seed, then encode → decode
every recorded event and demand the diff be empty — same time, site,
sequence number, descriptor, and trigger provenance chain (depth-bounded
exactly like the wire), with the rule's name in the encoded frame.
"""

import pytest

from repro.core.timebase import seconds
from repro.experiments.common import build_salary_scenario
from repro.runtime.codec import (
    MAX_TRIGGER_DEPTH,
    decode_desc,
    decode_event,
    decode_value,
    encode_desc,
    encode_event,
    encode_value,
)
from repro.workloads import PersonnelWorkload

STRATEGIES = ["propagation", "cached-propagation", "polling"]
SEEDS = [0, 1, 2]


def _trace_for(strategy_kind, seed):
    salary = build_salary_scenario(strategy_kind=strategy_kind, seed=seed)
    PersonnelWorkload(
        salary.cm, employee_count=6, rate=0.5, duration=seconds(20)
    )
    salary.cm.run(until=seconds(30))
    return salary.scenario.trace


def _diff(original, encoded, decoded, depth=MAX_TRIGGER_DEPTH):
    """Field-level differences between an event and its round-trip."""
    problems = []
    for field in ("time", "site", "seq"):
        a, b = getattr(original, field), getattr(decoded, field)
        if a != b:
            problems.append(f"{field}: {a!r} != {b!r}")
    if original.desc != decoded.desc:
        problems.append(f"desc: {original.desc!r} != {decoded.desc!r}")
    # A decoded event carries no rule object; the name rides in the frame.
    rule_a = original.rule.name if original.rule is not None else None
    rule_b = encoded["rule"]
    if rule_a != rule_b:
        problems.append(f"rule: {rule_a!r} != {rule_b!r}")
    if depth > 0 and original.trigger is not None:
        if decoded.trigger is None:
            problems.append("trigger chain truncated early")
        else:
            problems.extend(
                f"trigger.{p}"
                for p in _diff(
                    original.trigger,
                    encoded["trigger"],
                    decoded.trigger,
                    depth - 1,
                )
            )
    return problems


class TestEventRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("strategy_kind", STRATEGIES)
    def test_trace_diff_is_empty(self, strategy_kind, seed):
        events = _trace_for(strategy_kind, seed).events
        assert events, "scenario produced no events"
        problems = []
        for event in events:
            encoded = encode_event(event)
            problems.extend(
                f"event ({event.site}, {event.seq}): {p}"
                for p in _diff(event, encoded, decode_event(encoded))
            )
        assert not problems, "\n".join(problems[:20])

    def test_desc_roundtrip_preserves_descriptor_equality(self):
        trace = _trace_for("cached-propagation", 0)
        for event in trace.events:
            assert decode_desc(encode_desc(event.desc)) == event.desc

    def test_value_roundtrip_on_observed_values(self):
        trace = _trace_for("polling", 0)
        seen = 0
        for event in trace.events:
            for value in event.desc.values:
                assert decode_value(encode_value(value)) == value
                seen += 1
        assert seen > 0
