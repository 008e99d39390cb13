"""The gateway service and the socket-backed network facade.

The :class:`Gateway` is the wire runtime's bootstrap: it turns a wired
:class:`~repro.cm.manager.ConstraintManager` topology into real listening
endpoints — one loopback TCP server per site — and dials channel
connections between them on demand.  Each directed channel ``src -> dst``
is one TCP connection: a ``cm.hello`` JSON-RPC request opens it, then a
stream of ``cm.deliver`` notifications carries the FIFO message traffic
(:mod:`repro.runtime.channels`).  When tracing is on, each ``cm.deliver``
frame also carries a ``trace`` field — the sender's
:class:`~repro.obs.spans.SpanContext` — and the receiving endpoint resumes
it around the handler, so cross-shell causal chains reconnect into one
:class:`~repro.obs.spans.SpanTree` by id, with no in-process state shared
between the endpoints.

:class:`WireNetwork` is the shell-facing facade with the same surface as
the sim kernel's :class:`~repro.sim.network.Network` (``register_site``,
``send``, ``set_channel_latency``, the per-channel metrics) — which is
what lets :class:`~repro.cm.shell.CMShell` and the Demarcation Protocol
run over real sockets without a line of change.  Message *timing* still
honours the scenario's latency models and failure plan (sampled from the
same seeded RNG streams), so a wire run is the sim scenario's honest
deployment, not a different experiment.
"""

from __future__ import annotations

import asyncio
import time as _time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.obs import Instrumentation
from repro.obs.metrics import WIRE_MS_BOUNDS
from repro.obs.spans import SpanContext
from repro.runtime.channels import (
    DELIVER_METHOD,
    HELLO_METHOD,
    ChannelReceiver,
    ChannelSender,
    NO_FAULTS,
    WireFaultPlan,
    decode_payload,
    encode_payload,
)
from repro.runtime.clock import WallClock
from repro.runtime.jsonrpc import (
    INVALID_REQUEST,
    ErrorResponse,
    Notification,
    ProtocolError,
    Request,
    Response,
)
from repro.runtime.transport import FrameStream
from repro.sim.failures import FailurePlan
from repro.sim.network import FixedLatency, LatencyModel, Message
from repro.sim.rng import RngRegistry
from repro.core.timebase import seconds


@dataclass
class _SiteEntry:
    """One registered site; ``handler`` is rebindable (the Demarcation
    Protocol wraps it), matching the sim network's contract."""

    handler: Callable[[Message], None]


class Gateway:
    """Listening endpoints for every site, plus channel dialing."""

    def __init__(self, host: str = "127.0.0.1") -> None:
        self.host = host
        #: site -> the ephemeral loopback port :meth:`start` bound for it.
        self.ports: dict[str, int] = {}
        self._servers: dict[str, asyncio.Server] = {}
        self._accepted: list[FrameStream] = []
        self._on_deliver: Callable[[dict[str, Any]], None] | None = None

    def bind_dispatch(self, on_deliver: Callable[[dict[str, Any]], None]) -> None:
        """Set the callback for inbound ``cm.deliver`` frames."""
        self._on_deliver = on_deliver

    async def start(self, sites: list[str]) -> None:
        """Open one listening endpoint per site (ephemeral loopback ports)."""
        for site in sites:
            server = await asyncio.start_server(
                self._serve_connection, self.host, 0
            )
            self._servers[site] = server
            self.ports[site] = server.sockets[0].getsockname()[1]

    async def dial(self, src: str, dst: str) -> FrameStream:
        """Open the ``src -> dst`` channel connection (hello handshake)."""
        stream = await FrameStream.open(self.host, self.ports[dst])
        await stream.send(Request(HELLO_METHOD, {"src": src, "dst": dst}, id=1))
        reply = await stream.recv()
        if not isinstance(reply, Response):
            raise ProtocolError(f"hello to {dst!r} rejected: {reply!r}")
        return stream

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        stream = FrameStream(reader, writer)
        self._accepted.append(stream)
        try:
            hello = await stream.recv()
            if not isinstance(hello, Request) or hello.method != HELLO_METHOD:
                await stream.send(
                    ErrorResponse(
                        id=getattr(hello, "id", None),
                        code=INVALID_REQUEST,
                        message="expected cm.hello",
                    )
                )
                return
            await stream.send(Response(id=hello.id, result=dict(hello.params)))
            while True:
                frame = await stream.recv()
                if frame is None:
                    return
                if (
                    isinstance(frame, Notification)
                    and frame.method == DELIVER_METHOD
                    and self._on_deliver is not None
                ):
                    self._on_deliver(frame.params)
        except (ProtocolError, ConnectionResetError):
            return
        finally:
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop already closing
                pass

    async def stop(self) -> None:
        """Close all servers and accepted connections."""
        for server in self._servers.values():
            server.close()
        for server in self._servers.values():
            await server.wait_closed()
        self._servers.clear()
        self._accepted.clear()


class WireNetwork:
    """Sites plus per-channel FIFO delivery — over real sockets.

    Drop-in compatible with :class:`repro.sim.network.Network` from the
    shells' point of view.  Differences are exactly the ones the wire
    makes real: frames cross loopback TCP, per-channel FIFO is restored by
    sequence-number resequencing (not a scheduler clamp), and the
    ``wire_latency_ms`` histograms record *real milliseconds*, next to the
    virtual-tick ``net_latency`` series.
    """

    def __init__(
        self,
        clock: WallClock,
        rng_registry: RngRegistry | None = None,
        default_latency: LatencyModel | None = None,
        failure_plan: FailurePlan | None = None,
        in_order: bool = True,
        obs: Instrumentation | None = None,
        faults: WireFaultPlan | None = None,
        gateway: Gateway | None = None,
    ) -> None:
        self.clock = clock
        self.rngs = rng_registry or RngRegistry()
        self.default_latency = default_latency or FixedLatency(seconds(0.01))
        self.failure_plan = failure_plan or FailurePlan()
        self.in_order = in_order
        self.obs = obs or Instrumentation()
        self.faults = faults or WireFaultPlan()
        self.gateway = gateway or Gateway()
        self.gateway.bind_dispatch(self._on_frame)
        self._sites: dict[str, _SiteEntry] = {}
        self._channel_latency: dict[tuple[str, str], LatencyModel] = {}
        self._last_delivery: dict[tuple[str, str], int] = {}
        self._senders: dict[tuple[str, str], ChannelSender] = {}
        self._receivers: dict[tuple[str, str], ChannelReceiver] = {}
        #: Sequence numbers carried across socket teardowns, so per-channel
        #: FIFO (and the receivers' resequencers) span repeated runs.
        self._seq_carry: dict[tuple[str, str], int] = {}
        #: Sender counters accumulated across runs (senders are rebuilt
        #: per run; their diagnostics must not reset with them).
        self._sender_stats: dict[tuple[str, str], dict[str, int]] = {}
        #: Virtual-time horizon of the current run; frames due after it are
        #: not delivered (the sim kernel leaves them queued past ``until``).
        self.horizon: int | None = None
        self._wall_sent: dict[tuple[str, str, int], float] = {}
        self._started = False
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_delivered = 0
        #: Messages enqueued on a channel and not yet seen by a receiver.
        self.outstanding = 0
        self._channel_metrics: dict[tuple[str, str], tuple] = {}

    # -- Network-compatible surface -------------------------------------------

    @property
    def sim(self):  # parity: Network exposes .sim
        return self.clock

    def register_site(self, site: str, handler: Callable[[Message], None]) -> None:
        """Register ``site`` with its inbound-message handler."""
        if site in self._sites:
            raise ValueError(f"site already registered: {site}")
        self._sites[site] = _SiteEntry(handler=handler)

    def has_site(self, site: str) -> bool:
        return site in self._sites

    @property
    def sites(self) -> list[str]:
        return list(self._sites)

    def set_channel_latency(self, src: str, dst: str, model: LatencyModel) -> None:
        self._channel_latency[(src, dst)] = model

    def _latency_for(self, src: str, dst: str) -> int:
        model = self._channel_latency.get((src, dst), self.default_latency)
        rng = self.rngs.stream(f"net:{src}->{dst}")
        return model.sample(rng)

    def _metrics_for(self, channel: tuple[str, str]):
        cached = self._channel_metrics.get(channel)
        if cached is None:
            src, dst = channel
            registry = self.obs.metrics
            cached = (
                registry.counter("net_messages", src=src, dst=dst),
                registry.histogram("net_latency", src=src, dst=dst),
                registry.gauge("net_in_flight", src=src, dst=dst),
                registry.histogram(
                    "wire_latency_ms",
                    bounds=WIRE_MS_BOUNDS,
                    src=src,
                    dst=dst,
                ),
                registry.counter("wire_fault_drops", src=src, dst=dst),
            )
            self._channel_metrics[channel] = cached
        return cached

    def send(self, src: str, dst: str, payload: Any) -> Optional[Message]:
        """Send ``payload`` from ``src`` to ``dst`` over the channel socket.

        Same contract as the sim network: returns the in-flight
        :class:`Message` or ``None`` when the message is lost — to a
        logical-failure window (either endpoint dead) or to an injected
        socket-level drop fault.
        """
        if src not in self._sites:
            raise ValueError(f"unknown source site: {src}")
        if dst not in self._sites:
            raise ValueError(f"unknown destination site: {dst}")
        now = self.clock.now
        self.messages_sent += 1
        plan = self.failure_plan
        if plan.logically_failed(src, now) or plan.logically_failed(dst, now):
            self.messages_dropped += 1
            return None
        channel = (src, dst)
        faults = self.faults.for_channel(src, dst)
        metrics = self._metrics_for(channel)
        if faults.drop and self._fault_rng(channel).random() < faults.drop:
            # The frame never leaves the sender: a lost datagram.
            self.messages_dropped += 1
            metrics[4].value += 1
            return None
        latency = 0 if src == dst else self._latency_for(src, dst)
        latency = round(latency * plan.slowdown_at(src, now)) + faults.delay
        deliver_at = now + latency
        if self.in_order:
            deliver_at = max(deliver_at, self._last_delivery.get(channel, 0))
        self._last_delivery[channel] = deliver_at
        sender = self._sender_for(channel, faults)
        seq = sender.next_seq()
        params = {
            "src": src,
            "dst": dst,
            "seq": seq,
            "sent_at": now,
            "deliver_at": deliver_at,
            "payload": encode_payload(payload),
        }
        message = Message(
            src=src, dst=dst, payload=payload, sent_at=now, deliver_at=deliver_at
        )
        metrics[2].inc()  # net_in_flight
        self._wall_sent[(src, dst, seq)] = _time.monotonic()
        obs = self.obs
        if obs.enabled and obs.flight is not None:
            obs.flight.record(
                src, "net.send", now, f"->{dst} {type(payload).__name__}"
            )
        if obs.enabled and obs.tracer.enabled:
            # The hop's causal context rides *in the frame*: the receiving
            # endpoint reconnects onto these ids, never onto shared objects,
            # so the same mechanism works across real process boundaries.
            tracer = obs.tracer
            span = tracer.start(
                "net.send",
                src,
                now,
                src=src,
                dst=dst,
                payload=type(payload).__name__,
            )
            tracer.finish(span, deliver_at)
            message.span = span
            params["trace"] = span.context.to_wire()
        self.outstanding += 1
        sender.enqueue(seq, deliver_at, params)
        if self._started:
            sender.ensure_started()
        return message

    # -- wiring / lifecycle -----------------------------------------------------

    def _fault_rng(self, channel: tuple[str, str]):
        return self.rngs.stream(f"wirefault:{channel[0]}->{channel[1]}")

    def _sender_for(
        self, channel: tuple[str, str], faults=NO_FAULTS
    ) -> ChannelSender:
        sender = self._senders.get(channel)
        if sender is None:
            src, dst = channel

            async def dial() -> FrameStream:
                return await self.gateway.dial(src, dst)

            sender = ChannelSender(
                src,
                dst,
                self.clock,
                dial,
                faults=faults,
                fault_rng=self._fault_rng(channel) if faults.any else None,
            )
            sender._next_seq = self._seq_carry.pop(channel, 0)
            self._senders[channel] = sender
        return sender

    async def start(self) -> None:
        """Open the gateway endpoints and release any buffered channels."""
        await self.gateway.start(self.sites)
        self._started = True
        for sender in self._senders.values():
            sender.ensure_started()

    async def quiesce(self, wall_budget: float = 5.0) -> None:
        """Wait until all enqueued messages reached their receivers.

        Senders and receivers share this process, so ``outstanding``
        (incremented on send, decremented on receipt) is the whole
        barrier.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + wall_budget
        while self.outstanding > 0 and loop.time() < deadline:
            await asyncio.sleep(0.002)

    async def stop(self) -> None:
        """Close channels and gateway endpoints.

        Senders are discarded (their queues and tasks are bound to the
        loop that is ending) with their sequence counters carried over,
        so a later run continues each channel where it left off.
        """
        for channel, sender in self._senders.items():
            await sender.close()
            self._seq_carry[channel] = sender._next_seq
            carried = self._sender_stats.setdefault(
                channel,
                {
                    "frames_written": 0,
                    "frames_duplicated": 0,
                    "frames_reordered": 0,
                    "frames_dropped_dead": 0,
                },
            )
            carried["frames_written"] += sender.frames_written
            carried["frames_duplicated"] += sender.frames_duplicated
            carried["frames_reordered"] += sender.frames_reordered
            carried["frames_dropped_dead"] += sender.frames_dropped_dead
        self._senders.clear()
        await self.gateway.stop()
        self._started = False

    # -- inbound path ------------------------------------------------------------

    def _receiver_for(self, channel: tuple[str, str]) -> ChannelReceiver:
        receiver = self._receivers.get(channel)
        if receiver is None:
            receiver = ChannelReceiver(in_order=self.in_order)
            self._receivers[channel] = receiver
        return receiver

    def _on_frame(self, params: dict[str, Any]) -> None:
        """One inbound ``cm.deliver`` frame (possibly duplicated/reordered).

        A frame whose envelope cannot be sequenced — ``src``, ``dst``,
        ``seq``, ``sent_at`` or ``deliver_at`` missing or mistyped, or a
        site this network does not know — is dropped before it reaches a
        resequencer, and the connection keeps serving.
        """
        src, dst = params.get("src"), params.get("dst")
        if not (
            isinstance(src, str)
            and src in self._sites
            and isinstance(dst, str)
            and dst in self._sites
            and all(
                type(params.get(key)) is int
                for key in ("seq", "sent_at", "deliver_at")
            )
        ):
            self.messages_dropped += 1
            return
        receiver = self._receiver_for((src, dst))
        accepted = receiver.accept(params)
        if self.in_order and accepted:
            # Each distinct seq is seen exactly once in ordered mode.
            self.outstanding -= len(accepted)
        elif not self.in_order:
            self.outstanding = max(0, self.outstanding - 1)
        for ready in accepted:
            self._deliver(ready)

    def _deliver(self, params: dict[str, Any]) -> None:
        src, dst, seq = params["src"], params["dst"], params["seq"]
        now = self.clock.now
        try:
            payload = decode_payload(params["payload"])
        except (ValueError, KeyError, TypeError):  # CodecError is a ValueError
            # Sequenced but undecodable: lost like a dropped frame, past the
            # resequencer, so its successors on the channel still flow.
            self.messages_dropped += 1
            return
        metrics = self._metrics_for((src, dst))
        metrics[2].dec()  # net_in_flight
        wall_sent = self._wall_sent.pop((src, dst, seq), None)
        if self.horizon is not None and params["deliver_at"] > self.horizon:
            # The sim kernel would leave this message queued past the
            # horizon; on the wire we simply do not hand it to the shell.
            return
        if self.failure_plan.logically_failed(dst, now):
            self.messages_dropped += 1
            return
        # Channel metrics count *deliveries*, not send attempts.
        metrics[0].value += 1
        metrics[1].observe(max(0, now - params["sent_at"]))
        if wall_sent is not None:
            metrics[3].observe((_time.monotonic() - wall_sent) * 1_000.0)
        self.messages_delivered += 1
        if self.obs.enabled and self.obs.flight is not None:
            self.obs.flight.record(dst, "net.recv", now, f"<-{src} seq={seq}")
        message = Message(
            src=src,
            dst=dst,
            payload=payload,
            sent_at=params["sent_at"],
            deliver_at=now,
        )
        handler = self._sites[dst].handler
        # Resume the causal context carried in the frame: everything the
        # handler traces parents (by id) onto the sender's net.send span,
        # reconnecting the tree across the socket.
        ctx = SpanContext.from_wire(params.get("trace"))
        if ctx is not None and self.obs.enabled:
            tracer = self.obs.tracer
            tracer.push(ctx)
            try:
                handler(message)
            finally:
                tracer.pop()
        else:
            handler(message)

    # -- diagnostics --------------------------------------------------------------

    def channel_stats(self) -> dict[str, dict[str, int]]:
        """Per-channel wire counters (frames, dups healed, reorders)."""
        stats: dict[str, dict[str, int]] = {}
        channels = (
            set(self._senders) | set(self._sender_stats) | set(self._receivers)
        )
        for channel in sorted(channels):
            sender = self._senders.get(channel)
            carried = self._sender_stats.get(channel, {})
            receiver = self._receivers.get(channel)
            stats[f"{channel[0]}->{channel[1]}"] = {
                "frames_written": carried.get("frames_written", 0)
                + (sender.frames_written if sender else 0),
                "frames_duplicated": carried.get("frames_duplicated", 0)
                + (sender.frames_duplicated if sender else 0),
                "frames_reordered": carried.get("frames_reordered", 0)
                + (sender.frames_reordered if sender else 0),
                # Every message travels as its own frame.  The key stays
                # only because benchmarks/e2e/run.py reads it; it goes
                # when that harness stops reading it.
                "frames_coalesced": 0,
                "frames_dropped_dead": carried.get("frames_dropped_dead", 0)
                + (sender.frames_dropped_dead if sender else 0),
                "duplicates_discarded": (
                    receiver.duplicates_discarded if receiver else 0
                ),
                "resequencer_high_water": (
                    receiver.frames_buffered_high if receiver else 0
                ),
            }
        return stats
