"""Simulated network: sites, channels, latency models, in-order delivery.

The paper assumes a reliable network (its footnote 4) and, crucially, its
Appendix A property 7 assumes **in-order message delivery between sites and
in-order processing at each site** — a requirement the authors note was
*discovered* while proving the "Y strictly follows X" guarantee.  The
:class:`Network` enforces per-channel FIFO by never scheduling a delivery
earlier than the previous delivery on the same (source, destination) channel.
Setting ``in_order=False`` disables that clamp, which the ablation experiment
uses to demonstrate guarantee (3) breaking.

Latency models are pluggable and draw from a dedicated RNG stream so that
workload changes never perturb network timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.timebase import Ticks, seconds
from repro.obs import Instrumentation
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.spans import Span
from repro.sim.failures import FailurePlan
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Simulator


class LatencyModel:
    """Base class: produces a one-way message latency in ticks."""

    def sample(self, rng) -> Ticks:
        """Return a latency sample.  Subclasses must override."""
        raise NotImplementedError

    def worst_case(self) -> Optional[Ticks]:
        """The largest latency :meth:`sample` can return, or ``None`` when
        the distribution is unbounded.  Static analysis (guarantee
        feasibility in :mod:`repro.analysis`) sums these along trigger
        paths; an unbounded model makes a metric bound unprovable."""
        return None


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Constant latency (useful for exact delay-bound reasoning in tests)."""

    latency: Ticks

    def sample(self, rng) -> Ticks:
        return self.latency

    def worst_case(self) -> Optional[Ticks]:
        return self.latency


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Uniform latency in ``[low, high]`` ticks."""

    low: Ticks
    high: Ticks

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"low > high: {self.low} > {self.high}")

    def sample(self, rng) -> Ticks:
        return rng.randint(self.low, self.high)

    def worst_case(self) -> Optional[Ticks]:
        return self.high


@dataclass
class Message:
    """A message in flight between two sites.

    ``span`` carries the causal context across the hop: the network opens a
    ``net.send`` span as a child of whatever was active at send time, and
    the receiving shell parents its processing span on it — which is how a
    cross-site propagation chain stays one connected trace tree.
    """

    src: str
    dst: str
    payload: Any
    sent_at: Ticks
    deliver_at: Ticks
    span: Optional[Span] = None


@dataclass
class _SiteEntry:
    handler: Callable[[Message], None]


@dataclass(slots=True)
class _Channel:
    """What one (src, dst) channel resolves to, worked out on first use: its
    latency model, RNG stream and instruments, plus the FIFO clamp."""

    model: LatencyModel
    rng: Any
    delivered: Counter
    latency: Histogram
    in_flight: Gauge
    last_delivery: Ticks = 0


class Network:
    """Sites plus per-channel FIFO message delivery.

    Sites register a single inbound handler.  Sending is fire-and-forget; the
    network samples a latency, applies any metric-failure slowdown of the
    *sending* site, clamps for FIFO, and schedules the delivery.  Messages to
    or from a logically-failed site are dropped (the site is dead).
    """

    def __init__(
        self,
        sim: Simulator,
        rng_registry: RngRegistry | None = None,
        default_latency: LatencyModel | None = None,
        failure_plan: FailurePlan | None = None,
        in_order: bool = True,
        obs: Instrumentation | None = None,
    ) -> None:
        self.sim = sim
        self.rngs = rng_registry or RngRegistry()
        self.default_latency = default_latency or FixedLatency(seconds(0.01))
        self.failure_plan = failure_plan or FailurePlan()
        self.in_order = in_order
        self.obs = obs or Instrumentation()
        self._sites: dict[str, _SiteEntry] = {}
        self._resolvers: dict[str, Callable[[Any], Any]] = {}
        self._channel_latency: dict[tuple[str, str], LatencyModel] = {}
        self._channels: dict[tuple[str, str], _Channel] = {}
        self.messages_sent = 0
        self.messages_dropped = 0

    def _channel(self, src: str, dst: str) -> _Channel:
        """Resolve a channel once, so the send path pays a dict lookup and
        attribute reads — no stream-name formatting, no registry probes."""
        registry = self.obs.metrics
        channel = self._channels[src, dst] = _Channel(
            self._channel_latency.get((src, dst), self.default_latency),
            self.rngs.stream(f"net:{src}->{dst}"),
            registry.counter("net_messages", src=src, dst=dst),
            registry.histogram("net_latency", src=src, dst=dst),
            registry.gauge("net_in_flight", src=src, dst=dst),
        )
        return channel

    def register_site(self, site: str, handler: Callable[[Message], None]) -> None:
        """Register ``site`` with its inbound-message handler."""
        if site in self._sites:
            raise ValueError(f"site already registered: {site}")
        self._sites[site] = _SiteEntry(handler=handler)

    def register_resolver(self, site: str, resolve: Callable[[Any], Any]) -> None:
        """Register how ``site`` turns a firing decoded off the wire into
        one it runs; the wire drops a firing ``resolve`` refuses.  Kernel
        payloads travel by reference and are never resolved."""
        self._resolvers[site] = resolve

    @property
    def sites(self) -> list[str]:
        """Registered site names, in registration order."""
        return list(self._sites)

    def set_channel_latency(self, src: str, dst: str, model: LatencyModel) -> None:
        """Override the latency model for the (src, dst) channel."""
        self._channel_latency[(src, dst)] = model
        channel = self._channels.get((src, dst))
        if channel is not None:
            channel.model = model

    def send(self, src: str, dst: str, payload: Any) -> Message | None:
        """Send ``payload`` from ``src`` to ``dst``.

        Returns the in-flight :class:`Message`, or ``None`` if it was dropped
        because either endpoint is logically failed at send time.  Local
        (same-site) sends still go through the queue with zero base latency so
        that processing stays strictly event-ordered.
        """
        if src not in self._sites:
            raise ValueError(f"unknown source site: {src}")
        if dst not in self._sites:
            raise ValueError(f"unknown destination site: {dst}")
        now = self.sim.now
        self.messages_sent += 1
        # The plan is probed only when it has windows, read on every send:
        # ``FailurePlan.add`` may give it some after wiring.
        plan = self.failure_plan
        windows = plan.windows
        if windows and (
            plan.logically_failed(src, now) or plan.logically_failed(dst, now)
        ):
            self.messages_dropped += 1
            return None
        channel = self._channels.get((src, dst)) or self._channel(src, dst)
        latency = 0 if src == dst else channel.model.sample(channel.rng)
        latency = round(latency * plan.slowdown_at(src, now) if windows else latency)
        deliver_at = now + latency
        if self.in_order and deliver_at < channel.last_delivery:
            deliver_at = channel.last_delivery
        channel.last_delivery = deliver_at
        in_flight = channel.in_flight  # Gauge.inc, without the two calls
        level = in_flight.value = in_flight.value + 1
        if level > in_flight.high:
            in_flight.high = level
        message = Message(
            src=src, dst=dst, payload=payload, sent_at=now, deliver_at=deliver_at
        )
        if self.obs.enabled:
            if self.obs.flight is not None:
                self.obs.flight.record(
                    src, "net.send", now, f"->{dst} {type(payload).__name__}"
                )
            if self.obs.tracer.enabled:
                # The hop is fully determined at send time, so the span
                # opens and closes here; the receiver parents onto it via
                # the message.
                tracer = self.obs.tracer
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
        self.sim.at(deliver_at, lambda: self._deliver(message, channel))
        return message

    def _deliver(self, message: Message, channel: _Channel) -> None:
        channel.in_flight.value -= 1
        plan = self.failure_plan
        if plan.windows and plan.logically_failed(message.dst, self.sim.now):
            self.messages_dropped += 1
            return
        # Channel metrics count *deliveries*: a message dropped at a failed
        # destination must not inflate the channel's message count, and the
        # latency histogram records only hops that actually completed.
        channel.delivered.value += 1
        channel.latency.observe(message.deliver_at - message.sent_at)
        if self.obs.enabled and self.obs.flight is not None:
            self.obs.flight.record(
                message.dst,
                "net.recv",
                self.sim.now,
                f"<-{message.src} {type(message.payload).__name__}",
            )
        if message.span is not None:
            tracer = self.obs.tracer
            tracer.push(message.span)
            try:
                self._sites[message.dst].handler(message)
            finally:
                tracer.pop()
        else:
            self._sites[message.dst].handler(message)
