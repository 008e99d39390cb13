"""The gateway service and the socket-backed network facade.

The :class:`Gateway` opens one loopback TCP endpoint per site and dials
channel connections between them on demand.  Each directed channel
``src -> dst`` is one TCP connection: a ``cm.hello`` JSON-RPC request
opens it, then ``cm.deliver`` notifications carry the FIFO traffic
(:mod:`repro.runtime.channels`).  Both ends are
:class:`~repro.runtime.transport.FrameProtocol` callbacks; no coroutine
owns a connection.

:class:`WireNetwork` *is* the sim kernel's
:class:`~repro.sim.network.Network` — one delivery policy — with a socket
hop between each delivery timer and the kernel's delivery code.  That is
what lets shells and the Demarcation Protocol run over real sockets
unchanged, as the sim scenario's honest deployment (same latency models,
failure plan and seeded RNG streams), not a different experiment.
"""

from __future__ import annotations

import asyncio
import time as _time
from functools import partial
from typing import Any, Callable, Optional

from repro.obs import Instrumentation
from repro.obs.metrics import WIRE_MS_BOUNDS
from repro.runtime.channels import (
    DELIVER_METHOD,
    HELLO_METHOD,
    ChannelReceiver,
    ChannelSender,
    WireFaultPlan,
    decode_payload,
    encode_payload,
)
from repro.runtime.clock import WallClock
from repro.runtime.codec import WireFiring, _last_trigger
from repro.runtime.jsonrpc import (
    INVALID_REQUEST,
    ErrorResponse,
    Notification,
    ProtocolError,
    Request,
    Response,
)
from repro.runtime.jsonrpc import Message as RpcMessage
from repro.runtime.transport import FrameProtocol
from repro.sim.failures import FailurePlan
from repro.sim.network import LatencyModel, Message, Network
from repro.sim.rng import RngRegistry


class _Endpoint(FrameProtocol):
    """The accepting end of a channel: answers ``cm.hello``, then hands each
    ``cm.deliver`` frame's params to the network in the callback that
    received it."""

    def __init__(self, gateway: "Gateway") -> None:
        super().__init__()
        self.gateway = gateway
        self.on_deliver = gateway.on_deliver
        self.greeted = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        if self.gateway._servers:
            self.gateway._accepted.append(self)
        else:  # accepted as a torn-down run stopped the gateway
            transport.close()

    def on_message(self, message: RpcMessage) -> None:
        if self.greeted:
            if type(message) is Notification and message.method == DELIVER_METHOD:
                self.on_deliver(message.params)
        elif type(message) is Request and message.method == HELLO_METHOD:
            self.greeted = True
            self.send(Response(message.id, dict(message.params)))
        elif not self.transport.is_closing():
            msg_id = getattr(message, "id", None)
            self.send(ErrorResponse(msg_id, INVALID_REQUEST, "expected cm.hello"))
            self.transport.close()


class _Dialer(FrameProtocol):
    """The dialing end of a channel: only the hello reply comes back."""

    def __init__(self) -> None:
        super().__init__()
        #: The hello's reply, made when :meth:`Gateway.dial` sends the hello
        #: and awaits it: a dial cancelled before then has no one to tell.
        self.reply: asyncio.Future | None = None

    def on_message(self, message: RpcMessage) -> None:
        reply = self.reply
        if reply is not None and not reply.done():
            reply.set_result(message)

    def connection_lost(self, exc: Exception | None) -> None:
        super().connection_lost(exc)
        reply = self.reply
        if reply is not None and not reply.done():
            reply.set_exception(ConnectionResetError("hello unanswered"))


class Gateway:
    """Listening endpoints for every site, plus channel dialing; each
    inbound ``cm.deliver`` frame's params go to ``on_deliver``."""

    def __init__(self, host: str = "127.0.0.1") -> None:
        self.host = host
        #: site -> the ephemeral loopback port :meth:`start` bound for it.
        self.ports: dict[str, int] = {}
        self.on_deliver: Callable[[dict[str, Any]], None] = lambda params: None
        self._servers: list[asyncio.Server] = []
        self._accepted: list[_Endpoint] = []

    async def start(self, sites: list[str]) -> None:
        """Open one listening endpoint per site (ephemeral loopback ports)."""
        loop = asyncio.get_running_loop()
        for site in sites:
            server = await loop.create_server(
                partial(_Endpoint, self), self.host, 0, start_serving=False
            )
            # Kept before it serves: a run torn down from here closes it.
            self._servers.append(server)
            self.ports[site] = server.sockets[0].getsockname()[1]
            await server.start_serving()

    async def dial(self, src: str, dst: str) -> asyncio.Transport:
        """Open the ``src -> dst`` channel connection (hello handshake)."""
        loop = asyncio.get_running_loop()
        transport, dialer = await loop.create_connection(
            _Dialer, self.host, self.ports[dst]
        )
        dialer.reply = loop.create_future()
        dialer.send(Request(HELLO_METHOD, {"src": src, "dst": dst}, id=1))
        try:
            reply = await dialer.reply
        except BaseException:  # a cancelled run closes what it dialed
            transport.close()
            raise
        if not isinstance(reply, Response):
            transport.close()
            raise ProtocolError(f"hello to {dst!r} rejected: {reply!r}")
        return transport

    async def stop(self) -> None:
        """Close all servers and accepted connections."""
        servers, self._servers = self._servers, []
        accepted, self._accepted = self._accepted, []
        for closable in servers + [e.transport for e in accepted]:
            closable.close()
        for server in servers:
            await server.wait_closed()
        for endpoint in accepted:
            await endpoint.closed


class WireNetwork(Network):
    """The sim :class:`~repro.sim.network.Network` plus a socket hop.

    Every delivery decision is the kernel's: :meth:`Network.send` samples
    the latency, applies the failure plan, clamps for FIFO, moves the
    instruments, records the flight digest, and schedules the delivery
    timer on the :class:`WallClock`.  The wire adds:

    - at ``send``, the payload's encoding and the channel sequence number
      (the channel's order is its send order, fixed before any timer);
    - when the delivery timer fires, the frame's write;
    - at the receiving endpoint, resequencing and decoding, then the
      kernel's own delivery (:meth:`Network._deliver`).

    A message due after a run's horizon is delivered in the next run, as
    on the kernel.  ``wire_latency_ms`` records real milliseconds from
    ``send()`` to the handler, beside the virtual ``net_latency``.
    """

    #: In the class dict on purpose: the benchmark ledger wraps each
    #: network class's own ``register_site``, once per handler.
    register_site = Network.register_site

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
        super().__init__(
            clock, rng_registry, default_latency, failure_plan, in_order, obs
        )
        self.faults = faults or WireFaultPlan()
        self.gateway = gateway or Gateway()
        self.gateway.on_deliver = self._on_frame
        self._senders: dict[tuple[str, str], ChannelSender] = {}
        self._receivers: dict[tuple[str, str], ChannelReceiver] = {}
        #: Frames of sent messages whose delivery timer has not fired yet,
        #: by ``id`` of the in-flight :class:`Message`.
        self._unsent: dict[int, dict[str, Any]] = {}
        self._wall_sent: dict[tuple[str, str, int], float] = {}
        #: Frames written and not yet seen by a receiver.
        self.outstanding = 0

    @property
    def messages_delivered(self) -> int:
        """Messages handed to a destination's handler (count-on-delivery)."""
        return sum(channel.delivered.value for channel in self._channels.values())

    def send(self, src: str, dst: str, payload: Any) -> Optional[Message]:
        """:meth:`Network.send`, plus the frame the delivery timer writes.

        The payload is encoded first, so one the codec cannot carry raises
        before anything is sent.
        """
        encoded = encode_payload(payload)
        message = super().send(src, dst, payload)
        if message is not None:
            seq = self._sender_for(src, dst).next_seq()
            params = {
                "src": src,
                "dst": dst,
                "seq": seq,
                "sent_at": message.sent_at,
                "deliver_at": message.deliver_at,
                "payload": encoded,
            }
            self._unsent[id(message)] = params
            self._wall_sent[src, dst, seq] = _time.monotonic()
        return message

    def _deliver(self, message: Message, channel: Any) -> None:
        """The delivery timer fired: write the message's frame.  The
        kernel's delivery runs when the frame reaches its endpoint."""
        self.outstanding += 1
        self._senders[message.src, message.dst].enqueue(
            self._unsent.pop(id(message))
        )

    # -- wiring / lifecycle -----------------------------------------------------

    def _sender_for(self, src: str, dst: str) -> ChannelSender:
        sender = self._senders.get((src, dst))
        if sender is None:
            faults = self.faults.for_channel(src, dst)
            sender = self._senders[src, dst] = ChannelSender(
                partial(self.gateway.dial, src, dst),
                faults,
                self.rngs.stream(f"wirefault:{src}->{dst}") if faults.any else None,
            )
        return sender

    async def start(self) -> None:
        """Open the gateway endpoints, then dial for any frames an earlier
        run torn down mid-dial left waiting."""
        await self.gateway.start(self.sites)
        for sender in self._senders.values():
            sender.resume()

    async def quiesce(self, wall_budget: float = 5.0) -> None:
        """Wait until every frame written has reached its receiver.

        Both ends share this process, so ``outstanding`` (up at write, down
        at receipt) is the whole barrier.  Messages whose delivery timer
        has not fired are not outstanding: they wait for the next run.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + wall_budget
        while self.outstanding > 0 and loop.time() < deadline:
            await asyncio.sleep(0.002)

    async def stop(self) -> None:
        """Close channels and gateway endpoints.

        Senders keep their sequence counters and frame counts, so a later
        run continues each channel where it left off.
        """
        for sender in self._senders.values():
            await sender.close()
        await self.gateway.stop()
        _last_trigger[:] = None, None  # the codec memo: its trigger pins a trace

    # -- inbound path ------------------------------------------------------------

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
            and type(params.get("seq")) is int
            and type(params.get("sent_at")) is int
            and type(params.get("deliver_at")) is int
        ):
            self.messages_dropped += 1
            return
        receiver = self._receivers.get((src, dst))
        if receiver is None:
            receiver = self._receivers[src, dst] = ChannelReceiver(self.in_order)
        accepted = receiver.accept(params)
        if self.in_order:
            # Each distinct seq is seen exactly once in ordered mode.
            self.outstanding -= len(accepted)
        else:
            self.outstanding = max(0, self.outstanding - 1)
        for ready in accepted:
            self._arrive(ready, receiver)

    def _arrive(self, params: dict[str, Any], receiver: ChannelReceiver) -> None:
        """Decode one resequenced frame and run the kernel's delivery."""
        src, dst = params["src"], params["dst"]
        wall_sent = self._wall_sent.pop((src, dst, params["seq"]), None)
        try:
            payload = decode_payload(params["payload"])
            if type(payload) is WireFiring:
                # A site with no resolver (KeyError) cannot run a firing.
                payload = self._resolvers[dst](payload)
        except (ValueError, KeyError, TypeError):  # CodecError is a ValueError
            # Sequenced but undecodable, or a firing its site cannot run:
            # lost like a dropped frame, past the resequencer, so its
            # successors on the channel still flow.
            self.messages_dropped += 1
            return
        message = Message(src, dst, payload, params["sent_at"], params["deliver_at"])
        channel = self._channels.get((src, dst)) or self._channel(src, dst)
        delivered = channel.delivered.value
        arrived = _time.monotonic()
        Network._deliver(self, message, channel)
        if wall_sent is not None and channel.delivered.value > delivered:
            if receiver.wire_ms is None:
                receiver.wire_ms = self.obs.metrics.histogram(
                    "wire_latency_ms", bounds=WIRE_MS_BOUNDS, src=src, dst=dst
                )
            receiver.wire_ms.observe((arrived - wall_sent) * 1_000.0)

    # -- diagnostics --------------------------------------------------------------

    def channel_stats(self) -> dict[str, dict[str, int]]:
        """Per-channel wire counters (frames, dups healed, reorders)."""
        stats: dict[str, dict[str, int]] = {}
        for channel in sorted(self._senders.keys() | self._receivers.keys()):
            sender = self._senders.get(channel)
            receiver = self._receivers.get(channel)
            stats[f"{channel[0]}->{channel[1]}"] = {
                "frames_written": sender.frames_written if sender else 0,
                "frames_duplicated": sender.frames_duplicated if sender else 0,
                "frames_reordered": sender.frames_reordered if sender else 0,
                # Every message travels as its own frame.  The key stays
                # only because benchmarks/e2e/run.py reads it; it goes
                # when that harness stops reading it.
                "frames_coalesced": 0,
                "frames_dropped_dead": sender.frames_dropped_dead if sender else 0,
                "duplicates_discarded": (
                    receiver.duplicates_discarded if receiver else 0
                ),
                "resequencer_high_water": (
                    receiver.frames_buffered_high if receiver else 0
                ),
            }
        return stats
