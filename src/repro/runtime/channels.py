"""FIFO channels over the wire: fault injection, payload codec, ordering.

The sim kernel's :class:`~repro.sim.network.Network` gets FIFO "for free"
by clamping delivery times in one global event queue.  The wire runs the
same network, clamp included, but a clamped deadline is not an order on a
real socket: frames can be duplicated or overtaken.  So the channel layer
has to *earn* the property — and that is exactly what Appendix A property
7 requires of any deployment: in-order message delivery between sites,
in-order processing at each site.

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
- :class:`ChannelSender` / :class:`ChannelReceiver` — the sending end,
  which writes each frame in its delivery timer's callback and applies
  dup / reorder, and the resequencer that restores exactly-once, in-order
  delivery from sequence numbers.
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
from repro.runtime.jsonrpc import JSONRPC_VERSION
from repro.runtime.transport import encode_frame
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
    """One directed channel's sending end, run from loop callbacks.

    A message's delivery timer calls :meth:`enqueue` with it, sequenced;
    it is framed and written to the channel's transport in that callback.
    Frames wait only while the channel is dialed, in a list the one dial
    task writes out in sequence order.  Dup and reorder faults are applied
    here, at the frame layer, after sequencing — which is what makes the
    receiver's resequencer an honest reimplementation of property 7.  The
    sequence counter, frame counts and frames still waiting outlive a run;
    :meth:`close` drops only what belongs to one event loop (the dial task
    and the connection).
    """

    def __init__(
        self,
        dial: Callable[[], Awaitable[asyncio.Transport]],
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
        self._transport: asyncio.Transport | None = None
        #: Frames waiting for a dial (:meth:`resume`), in sequence order.
        self._waiting: list[bytes] = []
        self._dialing: asyncio.Task | None = None
        self._held: bytes | None = None
        self._flush_timer: asyncio.TimerHandle | None = None

    def next_seq(self) -> int:
        """Allocate the next channel sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def enqueue(self, params: dict[str, Any]) -> None:
        """Frame one sequenced message and write it now."""
        frame = encode_frame(
            {"jsonrpc": JSONRPC_VERSION, "method": DELIVER_METHOD, "params": params}
        )
        rng, faults = self.fault_rng, self.faults
        if rng is None:
            self._write(frame)
            return
        if faults.reorder and self._held is None and rng.random() < faults.reorder:
            # Held back: its successor overtakes it, or the timer flushes it.
            self._held = frame
            self.frames_reordered += 1
            self._flush_timer = asyncio.get_running_loop().call_later(
                faults.reorder_flush_wall, self._flush_held
            )
            return
        self._write(frame)
        if faults.dup and rng.random() < faults.dup:
            self._write(frame)
            self.frames_duplicated += 1
        self._flush_held()

    def _flush_held(self) -> None:
        if self._held is not None:
            held, self._held = self._held, None
            self._flush_timer.cancel()
            self._write(held)

    def _write(self, frame: bytes) -> None:
        transport = self._transport
        if transport is not None and not transport.is_closing():
            transport.write(frame)
            self.frames_written += 1
        else:
            self._waiting.append(frame)
            self.resume()

    def resume(self) -> None:
        """Dial for the waiting frames, unless a dial is in flight.

        Frames a run torn down mid-dial left waiting are this channel's,
        not that run's: their sequence numbers are spent, so the receiver
        waits for them, and the next run's dial writes them first.
        """
        dialing = self._dialing
        if self._waiting and (dialing is None or dialing.done()):
            self._dialing = asyncio.get_running_loop().create_task(self._connect())

    async def _connect(self) -> None:
        """Dial, then write the waiting frames in order.  A refused dial
        drops the first waiting frame, counted, and redials for the rest;
        a cancelled one leaves them all waiting (:meth:`resume`)."""
        waiting = self._waiting
        while waiting:
            try:
                transport = await self.dial()
            except OSError:
                del waiting[0]
                self.frames_dropped_dead += 1
                continue
            for frame in waiting:
                transport.write(frame)
            self.frames_written += len(waiting)
            waiting.clear()
            self._transport = transport

    async def close(self) -> None:
        """Write what is held and close the connection; the next run dials
        afresh on its own loop.  A dial still in flight has outlived the
        run's quiesce (a wedged hello, a torn-down run): it is cancelled,
        and its frames wait for the next run."""
        self._flush_held()
        dialing, self._dialing = self._dialing, None
        if dialing is not None:
            dialing.cancel()
            try:
                await dialing
            except asyncio.CancelledError:
                if not dialing.cancelled():
                    raise
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()
            await transport.get_protocol().closed


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
        #: The channel's ``wire_latency_ms`` histogram, resolved by the
        #: network on the first delivery it times.
        self.wire_ms: Any = None
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
