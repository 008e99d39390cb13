"""A malformed ``cm.deliver`` frame is dropped, never fatal to its channel.

Each case opens a real ``a -> b`` channel connection, writes the frames by
hand, and checks what ``b``'s handler saw: a frame with a bad envelope is
dropped before the resequencer, one whose payload fails to decode — or a
firing that ``b``'s shell cannot run — after it, all are counted in
``messages_dropped``, and the connection keeps serving the frames behind
them.  A frame that breaks the framing itself closes its own connection,
and no other.
"""

import asyncio
import copy
import struct

import pytest

from repro.cm import ConstraintManager, Scenario
from repro.cm.shell import FireMessage
from repro.core.compile import compile_rule
from repro.core.dsl import parse_rule
from repro.core.events import notify_desc
from repro.core.items import MISSING, item
from repro.core.trace import ExecutionTrace
from repro.runtime.channels import DELIVER_METHOD, decode_payload, encode_payload
from repro.runtime.clock import WallClock
from repro.runtime.codec import MAX_VALUE_DEPTH, CodecError
from repro.runtime.gateway import WireNetwork
from repro.runtime.jsonrpc import Notification
from repro.runtime.transport import MAX_FRAME_BYTES, encode_frame


def deliver(seq, payload=None):
    return {
        "src": "a",
        "dst": "b",
        "seq": seq,
        "sent_at": 0,
        "deliver_at": 0,
        "payload": encode_payload(f"m{seq}") if payload is None else payload,
    }


def nested_tuple(depth):
    """An encoded tuple nested ``depth`` deep: JSON that parses, a value
    the codec refuses above :data:`MAX_VALUE_DEPTH`."""
    value = 0
    for __ in range(depth):
        value = {"$": "tuple", "v": [value]}
    return value


def serve(frames, expected, network=None):
    """Write ``frames`` on one ``a -> b`` connection; return the network and
    the payloads ``b`` received once ``expected`` were delivered (or 5 s
    passed).  Without a ``network``, ``b`` is a handler that records
    payloads; given one, its sites are whatever the caller registered."""
    received = []
    if network is None:
        network = WireNetwork(WallClock())
        network.register_site("a", lambda message: None)
        network.register_site(
            "b", lambda message: received.append(message.payload)
        )

    async def session():
        await network.start()
        try:
            transport = await network.gateway.dial("a", "b")
            for params in frames:
                transport.write(encode_frame(Notification(DELIVER_METHOD, params)))
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5.0
            while (
                network.messages_delivered < expected
                and loop.time() < deadline
            ):
                await asyncio.sleep(0.002)
            transport.close()
            await transport.get_protocol().closed
        finally:
            await network.stop()

    asyncio.run(session())
    return network, received


@pytest.mark.parametrize(
    "payload",
    [
        {"type": "bogus"},  # ValueError: unknown encoding
        "not-an-object",  # ValueError: no encoding at all
        {"type": "fire"},  # KeyError: no rule, no trigger
        {"type": "value", "v": {"$": "tuple", "v": 3}},  # TypeError
        {"type": "value", "v": {"$": "mystery"}},  # CodecError
        {"type": "value", "v": nested_tuple(MAX_VALUE_DEPTH + 1)},  # CodecError
    ],
    ids=[
        "unknown-type",
        "not-an-object",
        "fire-no-fields",
        "tuple-of-int",
        "bad-tag",
        "too-deep",
    ],
)
def test_undecodable_payload_is_dropped_and_the_channel_keeps_serving(payload):
    network, received = serve(
        [deliver(0, payload), deliver(1), deliver(2)], expected=2
    )
    assert received == ["m1", "m2"]
    assert network.messages_dropped == 1
    assert network.messages_delivered == 2


SEEN = parse_rule("N(alpha(n), v) -> [1] W(Seen(n), v)", name="seen")


def firing(key, value, **overrides):
    """The encoded payload of a ``seen`` firing for ``alpha(key) = value``."""
    program = compile_rule(SEEN)
    trigger = ExecutionTrace().record(0, "a", notify_desc(item("alpha", key), value))
    slots = tuple(program.match(trigger.desc))
    return dict(encode_payload(FireMessage(program, slots, trigger)), **overrides)


@pytest.mark.parametrize(
    "overrides",
    [{"rule": "unregistered"}, {"slots": [0.0]}],
    ids=["unknown-rule", "too-few-slots"],
)
def test_firing_the_shell_cannot_run_is_dropped_and_the_channel_keeps_serving(
    overrides,
):
    cm = ConstraintManager(Scenario(runtime="async"))
    cm.add_site("a")
    b = cm.add_site("b")
    b.register_remote_rule(SEEN)
    frames = [
        deliver(0, firing("e0", 1.0, **overrides)),
        deliver(1, firing("e1", 2.0)),
        deliver(2, firing("e2", 3.0)),
    ]
    network, __ = serve(frames, expected=2, network=cm.scenario.network)
    seen = {
        key: b.store.read_local(item("Seen", key)) for key in ("e0", "e1", "e2")
    }
    assert seen == {"e0": MISSING, "e1": 2.0, "e2": 3.0}
    assert b.rules_fired == 0  # the RHS ran; the LHS fired at the peer
    assert network.messages_dropped == 1
    assert network.messages_delivered == 2


@pytest.mark.parametrize(
    "field, changes",
    [
        ("desc", {"values": [1.0, 2.0]}),
        ("desc", {"kind": "P", "values": [1]}),
        ("desc", {"kind": "Q"}),
        ("desc", {"kind": ["N"]}),
        (None, {"time": "noon"}),
        (None, {"site": ["a"]}),
    ],
    ids=[
        "wrong-value-arity",
        "item-on-item-less-kind",
        "unknown-kind",
        "unhashable-kind",
        "str-time",
        "list-site",
    ],
)
def test_malformed_trigger_is_a_codec_error_and_the_channel_keeps_serving(
    field, changes
):
    # Dropped at arrival, before the shell records an event with it: a
    # trigger with a text time would reach the verdict's lag arithmetic.
    bad = copy.deepcopy(firing("e0", 1.0))
    (bad["trigger"] if field is None else bad["trigger"][field]).update(changes)
    with pytest.raises(CodecError):
        decode_payload(bad)
    cm = ConstraintManager(Scenario(runtime="async"))
    cm.add_site("a")
    b = cm.add_site("b")
    b.register_remote_rule(SEEN)
    frames = [
        deliver(0, bad),
        deliver(1, firing("e1", 2.0)),
        deliver(2, firing("e2", 3.0)),
    ]
    network, __ = serve(frames, expected=2, network=cm.scenario.network)
    seen = {
        key: b.store.read_local(item("Seen", key)) for key in ("e0", "e1", "e2")
    }
    assert seen == {"e0": MISSING, "e1": 2.0, "e2": 3.0}
    assert network.messages_dropped == 1
    assert network.messages_delivered == 2


ABSENT = object()


@pytest.mark.parametrize(
    "key, value",
    [
        ("seq", ABSENT),
        ("seq", "0"),
        ("src", ABSENT),
        ("src", ["a"]),
        ("dst", "nowhere"),
        ("sent_at", True),
        ("deliver_at", 1.5),
    ],
    ids=[
        "no-seq",
        "str-seq",
        "no-src",
        "list-src",
        "unknown-dst",
        "bool-sent_at",
        "float-deliver_at",
    ],
)
def test_bad_envelope_is_dropped_before_the_resequencer(key, value):
    bad = deliver(0)
    if value is ABSENT:
        del bad[key]
    else:
        bad[key] = value
    network, received = serve([bad, deliver(0)], expected=1)
    # The bad frame took no resequencer slot: seq 0 is still the next.
    assert received == ["m0"]
    assert network.messages_dropped == 1
    assert network.messages_delivered == 1


@pytest.mark.parametrize(
    "trace",
    [
        {"trace_id": 7, "span_id": 12},
        {"trace_id": "7", "span_id": None},
        [7, 12],
        "7:12",
    ],
    ids=["well-formed-dict", "malformed-dict", "list", "string"],
)
def test_trace_field_is_delivered_like_a_frame_without_it(trace):
    # Frames carry no causal context — a firing carries its trigger in its
    # payload — so an extra ``trace`` field is ignored, whatever it holds.
    plain, plain_received = serve([deliver(0), deliver(1)], expected=2)
    network, received = serve([dict(deliver(0), trace=trace), deliver(1)], expected=2)
    assert received == plain_received == ["m0", "m1"]
    assert network.messages_dropped == plain.messages_dropped == 0
    assert network.messages_delivered == plain.messages_delivered == 2


def test_oversized_declared_length_closes_only_its_own_connection():
    network = WireNetwork(WallClock())
    received = []
    network.register_site("a", lambda message: None)
    network.register_site("b", lambda message: received.append(message.payload))
    network.register_site("c", lambda message: None)

    async def session():
        await network.start()
        try:
            hostile = await network.gateway.dial("a", "b")
            honest = await network.gateway.dial("c", "b")
            hostile.write(struct.pack(">I", MAX_FRAME_BYTES + 1))
            await asyncio.wait_for(hostile.get_protocol().closed, 5.0)
            for seq in range(2):
                params = dict(deliver(seq), src="c")
                honest.write(encode_frame(Notification(DELIVER_METHOD, params)))
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5.0
            while len(received) < 2 and loop.time() < deadline:
                await asyncio.sleep(0.002)
            closed = honest.is_closing()
            honest.close()
            await honest.get_protocol().closed
            return closed
        finally:
            await network.stop()

    honest_closed = asyncio.run(session())
    assert received == ["m0", "m1"]
    assert not honest_closed
    assert network.messages_dropped == 0
