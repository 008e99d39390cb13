"""A malformed ``cm.deliver`` frame is dropped, never fatal to its channel.

Each case opens a real ``a -> b`` channel connection, writes the frames by
hand, and checks what ``b``'s handler saw: a frame with a bad envelope is
dropped before the resequencer, one whose payload fails to decode after
it, both are counted in ``messages_dropped``, and the connection keeps
serving the frames behind them.
"""

import asyncio

import pytest

from repro.runtime.channels import DELIVER_METHOD, encode_payload
from repro.runtime.clock import WallClock
from repro.runtime.gateway import WireNetwork
from repro.runtime.jsonrpc import Notification


def deliver(seq, payload=None):
    return {
        "src": "a",
        "dst": "b",
        "seq": seq,
        "sent_at": 0,
        "deliver_at": 0,
        "payload": encode_payload(f"m{seq}") if payload is None else payload,
    }


def serve(frames, expected):
    """Write ``frames`` on one ``a -> b`` connection; return the network and
    the payloads ``b`` received once ``expected`` arrived (or 5 s passed)."""
    network = WireNetwork(WallClock())
    received = []
    network.register_site("a", lambda message: None)
    network.register_site("b", lambda message: received.append(message.payload))

    async def session():
        await network.start()
        try:
            stream = await network.gateway.dial("a", "b")
            for params in frames:
                await stream.send(Notification(DELIVER_METHOD, params))
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5.0
            while len(received) < expected and loop.time() < deadline:
                await asyncio.sleep(0.002)
            await stream.close()
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
    ],
    ids=["unknown-type", "not-an-object", "fire-no-fields", "tuple-of-int", "bad-tag"],
)
def test_undecodable_payload_is_dropped_and_the_channel_keeps_serving(payload):
    network, received = serve(
        [deliver(0, payload), deliver(1), deliver(2)], expected=2
    )
    assert received == ["m1", "m2"]
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
