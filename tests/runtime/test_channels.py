"""Tests for channel fault plans, the payload codec, and the resequencer."""

import asyncio

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
from repro.runtime.transport import FrameStream
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


class TestSenderSurvivesDeadEndpoint:
    def test_refused_dial_drops_one_frame_and_the_task_carries_on(self):
        async def scenario():
            received = []

            async def serve(reader, writer):
                stream = FrameStream(reader, writer)
                while (frame := await stream.recv()) is not None:
                    received.append(frame.params["seq"])
                writer.close()

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            dials = 0

            async def dial():
                nonlocal dials
                dials += 1
                if dials == 1:
                    raise ConnectionRefusedError("endpoint is down")
                return await FrameStream.open("127.0.0.1", port)

            sender = ChannelSender(dial)
            for _ in range(3):
                sender.enqueue({"src": "a", "dst": "b", "seq": sender.next_seq()})

            async def until(done):
                while not done():
                    await asyncio.sleep(0.002)

            await asyncio.wait_for(
                until(
                    lambda: sender.frames_written + sender.frames_dropped_dead
                    == 3
                ),
                timeout=5.0,
            )
            alive = not sender._task.done()
            await asyncio.wait_for(sender.close(), timeout=5.0)
            await asyncio.wait_for(until(lambda: len(received) == 2), 5.0)
            server.close()
            await asyncio.wait_for(server.wait_closed(), timeout=5.0)
            return sender, alive, received

        sender, alive, received = asyncio.run(scenario())
        assert alive, "the sending task died with the endpoint"
        assert sender.frames_dropped_dead == 1
        assert sender.frames_written == 2
        # The refused frame is gone; its successors crossed the socket.
        assert received == [1, 2]


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
