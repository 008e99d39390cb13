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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timebase import seconds
from repro.experiments.common import build_salary_scenario
from repro.runtime.channels import decode_payload
from repro.runtime.codec import (
    MAX_TRIGGER_DEPTH,
    CodecError,
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


def _chain(length: int) -> dict:
    """An encoded event whose trigger chain holds ``length`` events."""
    data = None
    for seq in range(length):
        data = {
            "time": seq,
            "site": "sf",
            "seq": seq,
            "desc": {"kind": "W", "item": {"name": "F", "args": []}, "values": [seq]},
            "rule": None,
            "trigger": data,
        }
    return data


class TestHostileChains:
    def test_chain_the_encoder_emits_decodes(self):
        event = decode_event(_chain(MAX_TRIGGER_DEPTH))
        depth = 0
        while event is not None:
            depth, event = depth + 1, event.trigger
        assert depth == MAX_TRIGGER_DEPTH

    @pytest.mark.parametrize("length", [MAX_TRIGGER_DEPTH + 1, 960])
    def test_deeper_chain_is_a_codec_error(self, length):
        with pytest.raises(CodecError, match="trigger chain deeper"):
            decode_event(_chain(length))


# -- properties ------------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)

#: Tagged values as the value codec writes them, with arbitrary fields.
tagged_values = st.recursive(
    json_values,
    lambda children: st.fixed_dictionaries(
        {"$": st.sampled_from(["missing", "item", "tuple", "list", "dict", "?"])},
        optional={
            "name": st.text(max_size=6) | children,
            "args": st.lists(children, max_size=3) | children,
            "v": st.lists(children, max_size=3)
            | st.lists(st.lists(children, max_size=2), max_size=3)
            | children,
        },
    ),
    max_leaves=10,
)

descs = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(["W", "WR", "N", "Ws", "P", "?"]) | json_values,
        "item": st.none()
        | st.fixed_dictionaries(
            {},
            optional={
                "name": st.text(max_size=6) | json_values,
                "args": st.lists(tagged_values, max_size=3) | json_values,
            },
        ),
        "values": st.lists(tagged_values, max_size=3) | json_values,
    },
)

events = st.recursive(
    st.none() | json_values,
    lambda trigger: st.fixed_dictionaries(
        {},
        optional={
            "time": st.integers(min_value=0) | json_values,
            "site": st.text(max_size=4) | json_values,
            "seq": st.integers(min_value=0) | json_values,
            "desc": descs | json_values,
            "rule": st.none() | st.text(max_size=6),
            "trigger": trigger,
        },
    ),
    max_leaves=12,
)

payloads = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {
            "type": st.sampled_from(
                ["failure-notice", "fire", "limit-request", "limit-grant", "value", "?"]
            )
        },
        optional={
            "rule": st.text(max_size=6) | json_values,
            "trigger": events,
            "slots": st.lists(tagged_values, max_size=3) | json_values,
            "bindings": st.lists(
                st.tuples(st.text(max_size=4), tagged_values).map(list),
                max_size=3,
            )
            | json_values,
            "v": tagged_values,
            "site": st.text(max_size=4) | json_values,
            "source": st.text(max_size=4) | json_values,
            "kind": st.text(max_size=8) | json_values,
            "time": st.integers() | json_values,
            "detail": json_values,
            "recovered": st.booleans() | json_values,
            "origin": json_values,
            "needed": json_values,
            "granted": json_values,
            "request_id": json_values,
        },
    ),
)


class TestPayloadDecodeProperties:
    @settings(max_examples=400, deadline=None)
    @given(payloads)
    def test_any_payload_decodes_or_raises_what_arrival_catches(self, data):
        # The gateway's arrival path drops a frame whose payload raises one
        # of these three; anything else would escape the loop callback.
        try:
            decode_payload(data)
        except (ValueError, KeyError, TypeError):
            pass
