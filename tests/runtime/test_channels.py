"""Tests for channel fault plans, the payload codec, and the resequencer."""

import asyncio
import random

import pytest

from repro.cm.failures import FailureNotice
from repro.core.timebase import seconds
from repro.runtime.channels import (
    ChannelFaults,
    ChannelReceiver,
    ChannelSender,
    WireFaultPlan,
    decode_payload,
    encode_payload,
)
from repro.runtime.transport import FrameProtocol
from repro.sim.failures import FailureKind


class TestChannelFaults:
    def test_defaults_are_clean(self):
        faults = ChannelFaults()
        assert not faults.any

    @pytest.mark.parametrize("name", ["dup", "reorder"])
    def test_probability_bounds_enforced(self, name):
        with pytest.raises(ValueError):
            ChannelFaults(**{name: 1.5})
        with pytest.raises(ValueError):
            ChannelFaults(**{name: -0.1})

    def test_any_triggers_on_each_knob(self):
        assert ChannelFaults(dup=0.1).any
        assert ChannelFaults(reorder=0.1).any

    def test_plan_per_channel_override(self):
        plan = WireFaultPlan(default=ChannelFaults(reorder=0.5)).set(
            "a", "b", ChannelFaults(dup=1.0)
        )
        assert plan.for_channel("a", "b").dup == 1.0
        assert plan.for_channel("a", "b").reorder == 0.0
        assert plan.for_channel("b", "a").reorder == 0.5


class TestPayloadCodec:
    def notice(self, kind):
        return FailureNotice(
            site="sf",
            source_name="branch",
            kind=kind,
            time=seconds(5),
            detail="db wedged",
            recovered=False,
        )

    def test_failure_notice_serializes_fully(self):
        original = self.notice(FailureKind.LOGICAL)
        encoded = encode_payload(original)
        assert encoded["type"] == "failure-notice"
        decoded = decode_payload(encoded)
        # Equal but not identical: the notice really crossed the codec.
        assert decoded == original
        assert decoded is not original
        assert decoded.kind is FailureKind.LOGICAL

    def test_translator_defined_kind_passes_through_as_string(self):
        decoded = decode_payload(encode_payload(self.notice("crash")))
        assert decoded.kind == "crash"

    def test_unencodable_payload_rejected(self):
        # No handle table remains: a payload the by-value codec cannot
        # represent is an error, never an in-process reference.
        from repro.runtime.codec import CodecError

        with pytest.raises(CodecError):
            encode_payload(object())

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError):
            decode_payload({"type": "mystery"})


def frame(seq):
    return {"src": "a", "dst": "b", "seq": seq, "payload": seq}


class _Inbox(FrameProtocol):
    """One end of a raw channel connection: keeps the ``seq`` of every
    frame it reads."""

    def __init__(self, seqs: list) -> None:
        super().__init__()
        self.seqs = seqs

    def on_message(self, message):
        self.seqs.append(message.params["seq"])


async def until(done, timeout=5.0):
    async def poll():
        while not done():
            await asyncio.sleep(0.002)

    await asyncio.wait_for(poll(), timeout)


def run_channel(scenario):
    """Run ``scenario(sender_for, received)`` against a loopback endpoint
    that records each frame's ``seq``; ``sender_for(dial_gate=None,
    refuse=0, **options)`` builds a :class:`ChannelSender` whose first
    ``refuse`` dials are refused and whose dials wait for ``dial_gate``."""
    dials = []

    async def session():
        loop = asyncio.get_running_loop()
        received: list[int] = []
        server = await loop.create_server(
            lambda: _Inbox(received), "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]

        def sender_for(dial_gate=None, refuse=0, **options):
            async def dial():
                dials.append(loop.time())
                if dial_gate is not None:
                    await dial_gate.wait()
                if len(dials) <= refuse:
                    raise ConnectionRefusedError("endpoint is down")
                transport, _ = await loop.create_connection(
                    lambda: _Inbox([]), "127.0.0.1", port
                )
                return transport

            return ChannelSender(dial, **options)

        try:
            return await asyncio.wait_for(scenario(sender_for, received), 10.0)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(session()), len(dials)


def send(sender):
    sender.enqueue({"src": "a", "dst": "b", "seq": sender.next_seq()})


class TestSenderSurvivesDeadEndpoint:
    def test_refused_dial_drops_one_frame_and_the_task_carries_on(self):
        async def scenario(sender_for, received):
            sender = sender_for(refuse=1)
            for _ in range(3):
                send(sender)
            await until(lambda: len(received) == 2)
            send(sender)  # the connection is up: written right away
            await until(lambda: len(received) == 3)
            await sender.close()
            return sender, received

        (sender, received), dials = run_channel(scenario)
        assert sender.frames_dropped_dead == 1
        assert sender.frames_written == 3
        # The refused frame is gone; its successors crossed the socket.
        assert received == [1, 2, 3]
        assert dials == 2


class TestSenderSurvivesTeardownMidDial:
    def test_frames_of_a_cancelled_first_dial_go_out_first_next_time(self):
        # A run torn down while the channel's first dial is in flight
        # cancels the dial.  The frames waiting for it have spent their
        # sequence numbers, so the receiver would wait for them for good:
        # the next run's dial writes them first, each exactly once.
        async def scenario(sender_for, received):
            gate = asyncio.Event()
            sender = sender_for(dial_gate=gate)
            send(sender)
            send(sender)
            await asyncio.sleep(0)
            await sender.close()  # the teardown: cancels the dial in flight
            assert sender.frames_written == sender.frames_dropped_dead == 0
            gate.set()
            sender.resume()  # the next run's start
            await until(lambda: len(received) == 2)
            send(sender)
            await until(lambda: len(received) == 3)
            await sender.close()
            return sender.frames_written, received

        (written, received), dials = run_channel(scenario)
        assert received == [0, 1, 2]
        assert written == 3
        assert dials == 2


class TestCallbackSender:
    def test_frames_enqueued_while_dialing_leave_in_sequence_order(self):
        async def scenario(sender_for, received):
            gate = asyncio.Event()
            sender = sender_for(dial_gate=gate)
            for _ in range(10):
                send(sender)
                await asyncio.sleep(0)
            assert sender.frames_written == 0
            gate.set()
            await until(lambda: len(received) == 10)
            await sender.close()
            return received

        received, dials = run_channel(scenario)
        assert received == list(range(10))
        assert dials == 1

    def test_enqueue_writes_in_the_callback_once_connected(self):
        async def scenario(sender_for, received):
            sender = sender_for()
            send(sender)
            await until(lambda: len(received) == 1)
            send(sender)
            written_in_call = sender.frames_written
            await until(lambda: len(received) == 2)
            await sender.close()
            return written_in_call, received

        (written_in_call, received), _ = run_channel(scenario)
        assert written_in_call == 2
        assert received == [0, 1]

    def test_held_frame_without_successor_is_flushed_after_the_wall_delay(self):
        flush_wall = 0.1

        async def scenario(sender_for, received):
            sender = sender_for(
                faults=ChannelFaults(reorder=1.0, reorder_flush_wall=flush_wall),
                fault_rng=random.Random(0),
            )
            loop = asyncio.get_running_loop()
            started = loop.time()
            send(sender)
            assert sender.frames_reordered == 1
            await asyncio.sleep(flush_wall / 2)
            assert received == [] and sender.frames_written == 0
            await until(lambda: received)
            waited = loop.time() - started
            await sender.close()
            return waited, received

        (waited, received), _ = run_channel(scenario)
        assert received == [0]
        assert waited >= flush_wall

    def test_a_successor_overtakes_the_held_frame(self):
        async def scenario(sender_for, received):
            sender = sender_for(
                faults=ChannelFaults(reorder=1.0, reorder_flush_wall=5.0),
                fault_rng=random.Random(0),
            )
            send(sender)
            send(sender)
            await until(lambda: len(received) == 2)
            await sender.close()
            return received

        received, _ = run_channel(scenario)
        assert received == [1, 0]


class TestResequencer:
    def test_in_order_frames_pass_straight_through(self):
        receiver = ChannelReceiver()
        assert receiver.accept(frame(0)) == [frame(0)]
        assert receiver.accept(frame(1)) == [frame(1)]

    def test_gap_buffers_until_filled(self):
        receiver = ChannelReceiver()
        assert receiver.accept(frame(1)) == []
        assert receiver.accept(frame(2)) == []
        assert receiver.accept(frame(0)) == [frame(0), frame(1), frame(2)]
        assert receiver.frames_buffered_high == 3

    def test_duplicates_discarded(self):
        receiver = ChannelReceiver()
        receiver.accept(frame(0))
        assert receiver.accept(frame(0)) == []  # already delivered
        receiver.accept(frame(2))
        assert receiver.accept(frame(2)) == []  # already buffered
        assert receiver.duplicates_discarded == 2

    def test_raw_mode_passes_duplicates_and_reorders(self):
        # in_order=False is the Appendix A ablation: the misbehaviour the
        # resequencer exists to heal reaches the shell unfiltered.
        receiver = ChannelReceiver(in_order=False)
        assert receiver.accept(frame(1)) == [frame(1)]
        assert receiver.accept(frame(0)) == [frame(0)]
        assert receiver.accept(frame(0)) == [frame(0)]
        assert receiver.duplicates_discarded == 0
