"""FIFO channels over the wire: fault injection, payload codec, ordering.

The sim kernel's :class:`~repro.sim.network.Network` gets FIFO "for free"
by clamping delivery times in one global event queue.  On a real socket
the channel layer has to *earn* the same property — and that is exactly
what Appendix A property 7 requires of any deployment: in-order message
delivery between sites, in-order processing at each site.

Three pieces live here:

- :class:`ChannelFaults` / :class:`WireFaultPlan` — injectable socket-level
  misbehaviour per directed channel: **drop** (the frame never leaves the
  sender — a lost datagram), **dup** (the frame is written twice),
  **reorder** (the frame is held back and overtaken by its successor),
  and **extra delay**.  These subsume the sim kernel's failure flags: a
  logical-failure window is a drop probability of 1.0 with extra context,
  and the ``in_order=False`` ablation is simply "reorder faults with the
  healing resequencer turned off".
- the **payload codec** — every payload travels fully by value
  (:mod:`repro.runtime.codec`): failure notices and demarcation-protocol
  messages as plain field dicts, rule firings as rule name + encoded slot
  values + trigger provenance chain, re-resolved against the receiving
  shell's own installed rules.  Nothing in a frame references sender
  memory, so the same frames work across a real process boundary.
- :class:`ChannelSender` / :class:`ChannelReceiver` — the sending task
  that paces frames to their virtual delivery times and applies dup/
  reorder at the frame layer, and the per-channel resequencer that
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
DELIVER_BATCH_METHOD = "cm.deliver_batch"
HELLO_METHOD = "cm.hello"


# -- fault injection ----------------------------------------------------------


@dataclass(frozen=True)
class ChannelFaults:
    """Socket-level fault probabilities for one directed channel.

    ``drop``/``dup``/``reorder`` are per-message probabilities; ``delay``
    is extra one-way latency in ticks added to every message.  Reordered
    frames are flushed after ``reorder_flush_wall`` wall seconds if no
    successor overtakes them, so a reorder fault can never stall a channel
    forever.
    """

    drop: float = 0.0
    dup: float = 0.0
    reorder: float = 0.0
    delay: int = 0
    reorder_flush_wall: float = 0.02

    def __post_init__(self) -> None:
        for name in ("drop", "dup", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"bad {name} probability: {value}")
        if self.delay < 0:
            raise ValueError(f"negative delay: {self.delay}")

    @property
    def any(self) -> bool:
        return bool(self.drop or self.dup or self.reorder or self.delay)


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
    kind_tag = data.get("type")
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


@dataclass
class _Outgoing:
    """One message queued on a channel, already sequenced."""

    seq: int
    deliver_at: int
    params: dict[str, Any]


class ChannelSender:
    """The per-channel sending task.

    Messages enter via :meth:`enqueue` (synchronous — called from rule
    execution inside the loop) already carrying their virtual delivery
    time; the task paces them out in FIFO order, waiting on the scaled
    wall clock, then writes ``cm.deliver`` notification frames.  Dup and
    reorder faults are applied *here*, at the frame layer, after
    sequencing — which is what makes the receiver's resequencer an honest
    reimplementation of property 7 rather than a formality.

    With ``batch_max > 1`` the task *coalesces*: when the message it just
    paced out has already-due successors queued behind it (a burst whose
    delivery times have all passed), up to ``batch_max`` of them travel in
    one ``cm.deliver_batch`` frame — paying the framing, syscall, and
    resequencer costs once per burst instead of once per message.
    Coalescing never changes delivery order or timing (only messages whose
    ``deliver_at`` has already been reached are eligible) and is disabled
    on channels with injected faults, whose drop/dup/reorder semantics are
    defined per individual frame.
    """

    def __init__(
        self,
        src: str,
        dst: str,
        clock: Any,
        dial: Callable[[], Awaitable[FrameStream]],
        faults: ChannelFaults = NO_FAULTS,
        fault_rng: Any = None,
        batch_max: int = 1,
    ) -> None:
        self.src = src
        self.dst = dst
        self.clock = clock
        self.dial = dial
        self.faults = faults
        self.fault_rng = fault_rng
        self.batch_max = max(1, int(batch_max))
        self.frames_written = 0
        self.frames_duplicated = 0
        self.frames_reordered = 0
        self.frames_coalesced = 0
        self.frames_dropped_dead = 0
        self._next_seq = 0
        self._outbox: asyncio.Queue[_Outgoing | None] = asyncio.Queue()
        self._held: bytes | None = None
        self._stream: FrameStream | None = None
        self._task: asyncio.Task | None = None

    def next_seq(self) -> int:
        """Allocate the next channel sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def enqueue(self, seq: int, deliver_at: int, params: dict[str, Any]) -> None:
        """Queue one sequenced message for paced transmission."""
        self._outbox.put_nowait(_Outgoing(seq, deliver_at, params))

    def ensure_started(self) -> None:
        """Start the sending task on the running loop (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        while True:
            item = await self._next_item()
            if item is None:
                break
            await self.clock.sleep_until(item.deliver_at)
            try:
                stream = await self._ensure_stream()
                batch = self._coalesce_due(item)
                if batch is not None:
                    self._write(
                        stream, _batch_frame_for(self.src, self.dst, batch)
                    )
                    self.frames_coalesced += len(batch)
                    await stream.drain()
                    continue
                frame_bytes = _frame_for(item.params)
                rng = self.fault_rng
                if (
                    rng is not None
                    and self.faults.reorder
                    and self._held is None
                ):
                    if rng.random() < self.faults.reorder:
                        # Hold this frame back; its successor overtakes it.
                        self._held = frame_bytes
                        self.frames_reordered += 1
                        continue
                self._write(stream, frame_bytes)
                if rng is not None and self.faults.dup:
                    if rng.random() < self.faults.dup:
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

    def _coalesce_due(self, item: _Outgoing) -> list[dict[str, Any]] | None:
        """Already-due successors of ``item``, or ``None`` when it must go
        out alone (no burst behind it, faults in play, or a held frame)."""
        if self.batch_max <= 1 or self.faults.any or self._held is not None:
            return None
        queue = self._outbox._queue  # peek: asyncio.Queue has no public one
        now = self.clock.now
        head = queue[0] if queue else None
        if head is None or head.deliver_at > now:
            return None
        frames = [item.params]
        while len(frames) < self.batch_max:
            head = queue[0] if queue else None
            if head is None or head.deliver_at > now:
                break
            frames.append(self._outbox.get_nowait().params)
        return frames

    async def _next_item(self) -> _Outgoing | None:
        """Dequeue the next message; flush a held-back frame on idle."""
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
        """Flush remaining frames and stop the task."""
        if self._task is None:
            return
        self._outbox.put_nowait(None)
        await self._task
        self._task = None


def _frame_for(params: dict[str, Any]) -> bytes:
    from repro.runtime.transport import encode_frame

    return encode_frame(Notification(DELIVER_METHOD, params))


def _batch_frame_for(
    src: str, dst: str, frames: list[dict[str, Any]]
) -> bytes:
    from repro.runtime.transport import encode_frame

    return encode_frame(
        Notification(
            DELIVER_BATCH_METHOD, {"src": src, "dst": dst, "frames": frames}
        )
    )


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

    def accept_batch(
        self, frames: list[dict[str, Any]]
    ) -> list[dict[str, Any]]:
        """Accept one coalesced ``cm.deliver_batch`` frame's messages.

        The common case — a consecutive run starting exactly at
        ``next_seq``, nothing buffered — advances the resequencer in one
        step; anything else falls back to per-message :meth:`accept`.
        """
        if not self.in_order:
            return list(frames)
        if (
            frames
            and not self._buffer
            and frames[0]["seq"] == self.next_seq
            and all(
                frame["seq"] == self.next_seq + offset
                for offset, frame in enumerate(frames)
            )
        ):
            self.next_seq += len(frames)
            return list(frames)
        ready: list[dict[str, Any]] = []
        for frame in frames:
            ready.extend(self.accept(frame))
        return ready
