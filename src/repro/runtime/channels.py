"""FIFO channels over the wire: fault injection, payload codec, ordering.

The sim kernel's :class:`~repro.sim.network.Network` gets FIFO "for free"
by clamping delivery times in one global event queue.  The wire runs the
same network, clamp included, but a clamped deadline is not an order on a
real socket: asyncio fires equal deadlines in any order, and frames can be
duplicated or overtaken.  So the channel layer has to *earn* the property
— and that is exactly what Appendix A property 7 requires of any
deployment: in-order message delivery between sites, in-order processing
at each site.

Three pieces live here:

- :class:`ChannelFaults` / :class:`WireFaultPlan` — injectable socket-level
  misbehaviour per directed channel: **dup** (the frame is written twice)
  and **reorder** (the frame is held back and overtaken by its
  successor).  They are what show the resequencer is load-bearing; the
  ``in_order=False`` ablation is "reorder with the healing resequencer
  turned off".  There is no drop fault: the paper's network is reliable,
  and a lost message is a logical failure, which the failure plan injects
  for both runtimes.  A slower channel is a latency model
  (``set_channel_latency``), not a fault.
- the **payload codec** — every payload travels fully by value
  (:mod:`repro.runtime.codec`): failure notices and demarcation-protocol
  messages as plain field dicts, rule firings as rule name + encoded slot
  values + trigger provenance chain, re-resolved against the receiving
  shell's own installed rules.  Nothing in a frame references sender
  memory, so the same frames work across a real process boundary.
- :class:`ChannelSender` / :class:`ChannelReceiver` — the sending task
  that writes each frame as its delivery timer hands it over and applies
  dup / reorder at the frame layer, and the per-channel resequencer that
  restores exactly-once, in-order delivery from sequence numbers.
"""

from __future__ import annotations

import asyncio
from collections.abc import Awaitable, Callable
from dataclasses import dataclass, field
from typing import Any

from repro.cm.failures import FailureNotice
from repro.runtime.codec import (
    decode_firing,
    decode_value,
    encode_firing,
    encode_value,
)
from repro.runtime.jsonrpc import Notification
from repro.runtime.transport import FrameStream
from repro.sim.failures import FailureKind

DELIVER_METHOD = "cm.deliver"
HELLO_METHOD = "cm.hello"


# -- fault injection ----------------------------------------------------------


@dataclass(frozen=True)
class ChannelFaults:
    """Socket-level fault probabilities for one directed channel.

    ``dup`` / ``reorder`` are per-frame probabilities.  Reordered frames
    are flushed after ``reorder_flush_wall`` wall seconds if no successor
    overtakes them, so a reorder fault can never stall a channel forever.
    """

    dup: float = 0.0
    reorder: float = 0.0
    reorder_flush_wall: float = 0.02

    def __post_init__(self) -> None:
        for name in ("dup", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"bad {name} probability: {value}")

    @property
    def any(self) -> bool:
        return bool(self.dup or self.reorder)


NO_FAULTS = ChannelFaults()


@dataclass
class WireFaultPlan:
    """Per-channel socket faults for a wire-runtime scenario."""

    #: Faults applied to every channel without a specific entry.
    default: ChannelFaults = NO_FAULTS
    channels: dict[tuple[str, str], ChannelFaults] = field(default_factory=dict)

    def set(self, src: str, dst: str, faults: ChannelFaults) -> "WireFaultPlan":
        """Set the faults for one directed channel (chainable)."""
        self.channels[(src, dst)] = faults
        return self

    def for_channel(self, src: str, dst: str) -> ChannelFaults:
        """The faults in effect on ``src -> dst``."""
        return self.channels.get((src, dst), self.default)


# -- payload codec ------------------------------------------------------------

_FAILURE_NOTICE = "failure-notice"
_FIRE = "fire"
_LIMIT_REQUEST = "limit-request"
_LIMIT_GRANT = "limit-grant"
_VALUE = "value"


def encode_payload(payload: Any) -> dict[str, Any]:
    """Encode a message payload for the frame body, fully by value.

    Every payload kind the shells and protocols send is self-contained in
    the frame: a rule firing carries the rule *name* plus its encoded slot
    values and trigger chain (the receiving shell re-resolves and
    re-compiles from its own rule set — CM-RID is the shared contract), a
    failure notice or demarcation message carries its plain fields.
    """
    if isinstance(payload, FailureNotice):
        return {
            "type": _FAILURE_NOTICE,
            "site": payload.site,
            "source": payload.source_name,
            "kind": getattr(payload.kind, "value", str(payload.kind)),
            "time": payload.time,
            "detail": payload.detail,
            "recovered": payload.recovered,
        }
    from repro.cm.shell import FireMessage

    if isinstance(payload, FireMessage):
        data = encode_firing(payload)
        data["type"] = _FIRE
        return data
    from repro.protocols.demarcation import _LimitGrant, _LimitRequest

    if isinstance(payload, _LimitRequest):
        return {
            "type": _LIMIT_REQUEST,
            "origin": payload.origin,
            "needed": payload.needed,
            "request_id": payload.request_id,
        }
    if isinstance(payload, _LimitGrant):
        return {
            "type": _LIMIT_GRANT,
            "origin": payload.origin,
            "granted": payload.granted,
            "request_id": payload.request_id,
        }
    # Plain values (test harnesses, ad-hoc probes) cross by value too;
    # anything the value codec cannot represent raises CodecError — no
    # payload ever rides by in-process reference.
    return {"type": _VALUE, "v": encode_value(payload)}


def decode_payload(data: dict[str, Any]) -> Any:
    """Reverse :func:`encode_payload` at the receiving endpoint.

    Firings decode to a :class:`~repro.runtime.codec.WireFiring` — a
    neutral record the shell resolves against its own installed rules.
    """
    kind_tag = data.get("type") if isinstance(data, dict) else None
    if kind_tag == _FAILURE_NOTICE:
        kind: Any = data["kind"]
        try:
            kind = FailureKind(kind)
        except ValueError:
            pass  # translator-defined string kinds pass through unchanged
        return FailureNotice(
            site=data["site"],
            source_name=data["source"],
            kind=kind,
            time=data["time"],
            detail=data["detail"],
            recovered=data["recovered"],
        )
    if kind_tag == _FIRE:
        return decode_firing(data)
    if kind_tag == _LIMIT_REQUEST:
        from repro.protocols.demarcation import _LimitRequest

        return _LimitRequest(
            origin=data["origin"],
            needed=data["needed"],
            request_id=data["request_id"],
        )
    if kind_tag == _LIMIT_GRANT:
        from repro.protocols.demarcation import _LimitGrant

        return _LimitGrant(
            origin=data["origin"],
            granted=data["granted"],
            request_id=data["request_id"],
        )
    if kind_tag == _VALUE:
        return decode_value(data["v"])
    raise ValueError(f"unknown payload encoding: {kind_tag!r}")


# -- sending ------------------------------------------------------------------


class ChannelSender:
    """The per-channel sending task.

    Frames enter via :meth:`enqueue` (synchronous — called from the
    message's delivery timer inside the loop) already sequenced; the task
    writes them as ``cm.deliver`` notification frames in the order they
    arrive.  Dup and reorder faults are applied *here*, at the frame layer,
    after sequencing — which is what makes the receiver's resequencer an
    honest reimplementation of property 7 rather than a formality.

    A sender outlives a run: its sequence counter and frame counts carry
    over, and :meth:`close` rebuilds only what belongs to one event loop
    (queue, task, stream).
    """

    def __init__(
        self,
        dial: Callable[[], Awaitable[FrameStream]],
        faults: ChannelFaults = NO_FAULTS,
        fault_rng: Any = None,
    ) -> None:
        self.dial = dial
        self.faults = faults
        self.fault_rng = fault_rng
        self.frames_written = 0
        self.frames_duplicated = 0
        self.frames_reordered = 0
        self.frames_dropped_dead = 0
        self._next_seq = 0
        self._outbox: asyncio.Queue[dict[str, Any] | None] = asyncio.Queue()
        self._held: bytes | None = None
        self._stream: FrameStream | None = None
        self._task: asyncio.Task | None = None

    def next_seq(self) -> int:
        """Allocate the next channel sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def enqueue(self, params: dict[str, Any]) -> None:
        """Queue one sequenced frame and make sure the task is writing."""
        self._outbox.put_nowait(params)
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        while True:
            params = await self._next_item()
            if params is None:
                break
            try:
                stream = await self._ensure_stream()
                frame_bytes = _frame_for(params)
                rng, faults = self.fault_rng, self.faults
                if faults.reorder and self._held is None:
                    if rng.random() < faults.reorder:
                        # Hold this frame back; its successor overtakes it.
                        self._held = frame_bytes
                        self.frames_reordered += 1
                        continue
                self._write(stream, frame_bytes)
                if faults.dup and rng.random() < faults.dup:
                    self._write(stream, frame_bytes)
                    self.frames_duplicated += 1
                self._flush_held(stream)
                await stream.drain()
            except OSError:
                # The endpoint is gone (dial refused or the connection
                # died mid-write).  Drop this frame and count it instead of
                # crashing the sending task; the next frame redials.
                self.frames_dropped_dead += 1
                self._stream = None
        if self._stream is not None:
            try:
                self._flush_held(self._stream)
                await self._stream.drain()
                await self._stream.close()
            except OSError:
                self.frames_dropped_dead += 1
            self._stream = None

    async def _next_item(self) -> dict[str, Any] | None:
        """Dequeue the next frame; flush a held-back frame on idle."""
        if self._held is None:
            return await self._outbox.get()
        try:
            return await asyncio.wait_for(
                self._outbox.get(), timeout=self.faults.reorder_flush_wall
            )
        except asyncio.TimeoutError:  # noqa: UP041 — alias only on 3.11+
            if self._stream is not None:
                self._flush_held(self._stream)
                await self._stream.drain()
            return await self._outbox.get()

    def _write(self, stream: FrameStream, frame_bytes: bytes) -> None:
        stream.writer.write(frame_bytes)
        self.frames_written += 1

    def _flush_held(self, stream: FrameStream) -> None:
        if self._held is not None:
            held, self._held = self._held, None
            self._write(stream, held)

    async def _ensure_stream(self) -> FrameStream:
        if self._stream is None:
            self._stream = await self.dial()
        return self._stream

    async def close(self) -> None:
        """Write what is queued, stop the task and close the stream; the
        next run starts a fresh queue on its own loop."""
        if self._task is not None:
            self._outbox.put_nowait(None)
            await self._task
            self._task = None
        self._outbox = asyncio.Queue()


def _frame_for(params: dict[str, Any]) -> bytes:
    from repro.runtime.transport import encode_frame

    return encode_frame(Notification(DELIVER_METHOD, params))


# -- receiving ----------------------------------------------------------------


class ChannelReceiver:
    """Per-channel resequencer: exactly-once, in-order delivery.

    ``accept(params)`` returns the (possibly empty) list of messages that
    became deliverable, in channel order.  Duplicate sequence numbers are
    discarded; out-of-order frames are buffered until the gap fills.  With
    ``in_order=False`` (the Appendix A ablation) frames pass through in
    raw arrival order — duplicates included — which is exactly the
    misbehaviour the paper's property 7 exists to forbid.
    """

    def __init__(self, in_order: bool = True) -> None:
        self.in_order = in_order
        self.next_seq = 0
        self.duplicates_discarded = 0
        self.frames_buffered_high = 0
        self._buffer: dict[int, dict[str, Any]] = {}

    def accept(self, params: dict[str, Any]) -> list[dict[str, Any]]:
        if not self.in_order:
            return [params]
        seq = params["seq"]
        if seq < self.next_seq or seq in self._buffer:
            self.duplicates_discarded += 1
            return []
        self._buffer[seq] = params
        if len(self._buffer) > self.frames_buffered_high:
            self.frames_buffered_high = len(self._buffer)
        ready: list[dict[str, Any]] = []
        while self.next_seq in self._buffer:
            ready.append(self._buffer.pop(self.next_seq))
            self.next_seq += 1
        return ready
