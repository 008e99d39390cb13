"""Tests for the network's delivery policy, including the FIFO property.

The policy has one home, :class:`~repro.sim.network.Network`; the wire
runtime's :class:`~repro.runtime.gateway.WireNetwork` is the same class
plus a socket hop.  So every policy case runs on both: each ``Test*``
class below drives the kernel, and its ``*OnTheWire`` subclass runs the
same bodies over loopback sockets on a scaled wall clock.
"""

import asyncio

from hypothesis import HealthCheck, given, settings, strategies as st

import pytest

from repro.core.timebase import seconds
from repro.runtime.clock import WallClock
from repro.runtime.gateway import WireNetwork
from repro.sim.failures import FailureKind, FailurePlan, FailureWindow
from repro.sim.network import (
    ExponentialLatency,
    FixedLatency,
    Network,
    UniformLatency,
)
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Simulator

#: Virtual seconds per wall second on the wire.  A callback runs when the
#: wall clock reaches it, so a stalled host shifts what it does to a later
#: virtual time: the cases keep ~100 wall ms between a delivery and a
#: failure window that must not yet (or must already) be open.
WIRE_SCALE = 200.0

#: The hypothesis cases run once per network class.
BOTH_NETWORKS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.differing_executors],
)


class WireDriver:
    """The simulator surface the cases use (``at``, ``run``), over a
    :class:`WireNetwork`: each ``run`` opens the endpoints, lets the
    scaled clock reach the horizon, waits for written frames to land and
    closes the sockets.  Without ``until`` it runs until nothing is left
    to fire, as ``Simulator.run()`` does."""

    def __init__(self, network: WireNetwork) -> None:
        self.network = network
        self.clock = network.sim

    def at(self, time, callback):
        return self.clock.at(time, callback)

    def _horizon(self):
        """The latest pending event's time; ``None`` when nothing is left."""
        pending = [event.time for event in self.clock._buffered if not event.cancelled]
        return max(pending, default=None)

    def run(self, until=None):
        async def session():
            await self.network.start()
            try:
                horizon = until if until is not None else self._horizon()
                while horizon is not None:
                    await self.clock.run_until(horizon)
                    await self.network.quiesce()
                    horizon = None if until is not None else self._horizon()
            finally:
                await self.network.stop()

        asyncio.run(session())


def make_network(in_order=True, latency=None, plan=None, wire=False):
    options = dict(
        rng_registry=RngRegistry(1),
        default_latency=latency or FixedLatency(seconds(0.1)),
        failure_plan=plan,
        in_order=in_order,
    )
    if wire:
        network = WireNetwork(WallClock(time_scale=WIRE_SCALE), **options)
        sim = WireDriver(network)
    else:
        sim = Simulator()
        network = Network(sim, **options)
    inbox: dict[str, list] = {"a": [], "b": []}
    network.register_site("a", lambda m: inbox["a"].append(m))
    network.register_site("b", lambda m: inbox["b"].append(m))
    return sim, network, inbox


def schedule_sends(sim, network, send_gaps):
    """Schedule one ``a -> b`` send per gap; returns the list the sends
    append to as they happen.  FIFO is delivery in *send* order: the wire
    clock fires callbacks due at the same tick in no particular order."""
    sent = []

    def send(index):
        sent.append(index)
        network.send("a", "b", index)

    time = 0
    for index, gap in enumerate(send_gaps):
        time += gap
        sim.at(time, lambda i=index: send(i))
    return sent


class Policy:
    """A class of policy cases; ``wire = True`` reruns them on the wire."""

    wire = False

    def make(self, **options):
        return make_network(wire=self.wire, **options)


class TestDelivery(Policy):
    def test_payload_and_latency(self):
        sim, network, inbox = self.make()
        network.send("a", "b", "hello")
        sim.run()
        assert [m.payload for m in inbox["b"]] == ["hello"]
        assert inbox["b"][0].deliver_at == seconds(0.1)

    def test_duplicate_site_registration_rejected(self):
        sim, network, __ = self.make()
        with pytest.raises(ValueError):
            network.register_site("a", lambda m: None)

    def test_unknown_destination_rejected(self):
        sim, network, __ = self.make()
        with pytest.raises(ValueError, match="unknown destination site"):
            network.send("a", "nowhere", 1)
        with pytest.raises(ValueError, match="unknown source site"):
            network.send("nowhere", "b", 1)
        assert network.messages_sent == 0

    def test_local_send_still_queued(self):
        sim, network, inbox = self.make()
        network.send("a", "a", "self")
        assert inbox["a"] == []  # not synchronous
        sim.run()
        assert [m.payload for m in inbox["a"]] == ["self"]


class TestFifo(Policy):
    @given(st.lists(st.integers(0, 50), min_size=2, max_size=20))
    @BOTH_NETWORKS
    def test_in_order_channels_never_reorder(self, send_gaps):
        sim, network, inbox = self.make(
            in_order=True, latency=UniformLatency(0, seconds(5))
        )
        sent = schedule_sends(sim, network, send_gaps)
        sim.run()
        assert [m.payload for m in inbox["b"]] == sent

    def test_free_for_all_can_reorder(self):
        sim, network, inbox = self.make(
            in_order=False, latency=UniformLatency(0, seconds(5))
        )
        for index in range(40):
            sim.at(index, lambda i=index: network.send("a", "b", i))
        sim.run()
        payloads = [m.payload for m in inbox["b"]]
        assert len(payloads) == 40
        assert payloads != sorted(payloads)


class TestFailures(Policy):
    def test_logical_failure_drops_messages(self):
        plan = FailurePlan()
        plan.add(
            FailureWindow(
                site="b",
                kind=FailureKind.LOGICAL,
                start=0,
                end=seconds(10),
            )
        )
        sim, network, inbox = self.make(plan=plan)
        assert network.send("a", "b", "lost") is None
        sim.run(until=seconds(5))
        assert inbox["b"] == []
        assert network.messages_dropped == 1

    def test_failed_sender_drops_at_send(self):
        plan = FailurePlan()
        plan.add(FailureWindow("a", FailureKind.LOGICAL, 0, seconds(10)))
        sim, network, inbox = self.make(plan=plan)
        assert network.send("a", "b", "lost") is None
        sim.run(until=seconds(5))
        assert inbox["b"] == []
        assert (network.messages_sent, network.messages_dropped) == (1, 1)
        in_flight = network.obs.metrics.get("net_in_flight", src="a", dst="b")
        assert in_flight is None  # dropped before the channel was touched

    def test_destination_failing_in_flight_drops_at_delivery(self):
        # b dies while the message is on the wire: the send-side check has
        # passed, so only the delivery-side one can drop it.
        plan = FailurePlan()
        plan.add(FailureWindow("b", FailureKind.LOGICAL, seconds(1), seconds(60)))
        sim, network, inbox = self.make(plan=plan, latency=FixedLatency(seconds(5)))
        assert network.send("a", "b", "doomed") is not None
        sim.run(until=seconds(10))
        assert inbox["b"] == []
        assert network.messages_dropped == 1
        registry = network.obs.metrics
        assert registry.value("net_messages", src="a", dst="b") == 0
        in_flight = registry.get("net_in_flight", src="a", dst="b")
        assert (in_flight.value, in_flight.high) == (0, 1)

    def test_window_added_after_first_use_applies(self):
        # ``FailurePlan.add`` is public: a window added after the channel
        # has served a message takes effect on the very next send and on a
        # message already in flight.
        plan = FailurePlan()
        sim, network, inbox = self.make(plan=plan, latency=FixedLatency(seconds(2)))
        network.send("a", "b", "m0")
        sim.run(until=seconds(5))
        assert [m.payload for m in inbox["b"]] == ["m0"]
        sent = []
        sim.at(seconds(6), lambda: network.send("a", "b", "in flight"))
        sim.at(
            seconds(7),
            lambda: plan.add(
                FailureWindow("b", FailureKind.LOGICAL, seconds(7), seconds(90))
            ),
        )
        sim.at(seconds(9), lambda: sent.append(network.send("a", "b", "at send")))
        sim.run()
        assert [m.payload for m in inbox["b"]] == ["m0"]
        assert sent == [None]
        assert (network.messages_sent, network.messages_dropped) == (3, 2)

    def test_messages_after_recovery_flow(self):
        plan = FailurePlan()
        plan.add(
            FailureWindow(
                site="b",
                kind=FailureKind.LOGICAL,
                start=0,
                end=seconds(10),
            )
        )
        sim, network, inbox = self.make(plan=plan)
        sim.at(seconds(20), lambda: network.send("a", "b", "ok"))
        sim.run()
        assert [m.payload for m in inbox["b"]] == ["ok"]

    def test_metric_failure_inflates_latency(self):
        plan = FailurePlan()
        plan.add(
            FailureWindow(
                site="a",
                kind=FailureKind.METRIC,
                start=0,
                end=seconds(10),
                slowdown=10.0,
            )
        )
        sim, network, inbox = self.make(plan=plan)
        network.send("a", "b", "slow")
        sim.run()
        assert inbox["b"][0].deliver_at == seconds(1.0)  # 0.1s x 10


class TestChannelOverrides(Policy):
    def test_override_applies_to_one_direction_only(self):
        sim, network, inbox = self.make()
        network.set_channel_latency("a", "b", FixedLatency(seconds(2)))
        network.send("a", "b", "slow")
        network.send("b", "a", "fast")
        sim.run()
        assert inbox["b"][0].deliver_at == seconds(2)
        # The reverse channel still uses the default model.
        assert inbox["a"][0].deliver_at == seconds(0.1)

    def test_latest_override_wins(self):
        sim, network, inbox = self.make()
        network.set_channel_latency("a", "b", FixedLatency(seconds(2)))
        network.set_channel_latency("a", "b", FixedLatency(seconds(3)))
        network.send("a", "b", "x")
        sim.run()
        assert inbox["b"][0].deliver_at == seconds(3)

    def test_fifo_clamp_survives_override_change(self):
        # A slow message followed (after a model swap) by a fast one must
        # still arrive second: the clamp is per-channel state, not
        # per-model.
        sim, network, inbox = self.make()
        network.set_channel_latency("a", "b", FixedLatency(seconds(5)))
        network.send("a", "b", "slow")
        network.set_channel_latency("a", "b", FixedLatency(0))
        sim.at(seconds(1), lambda: network.send("a", "b", "fast"))
        sim.run()
        assert [m.payload for m in inbox["b"]] == ["slow", "fast"]
        assert inbox["b"][1].deliver_at >= inbox["b"][0].deliver_at

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=20))
    @BOTH_NETWORKS
    def test_fifo_holds_under_random_override(self, send_gaps):
        sim, network, inbox = self.make(in_order=True)
        network.set_channel_latency("a", "b", UniformLatency(0, seconds(5)))
        sent = schedule_sends(sim, network, send_gaps)
        sim.run()
        assert [m.payload for m in inbox["b"]] == sent


class TestChannelMetrics(Policy):
    def test_counter_histogram_and_in_flight_gauge(self):
        sim, network, inbox = self.make()
        for index in range(3):
            network.send("a", "b", index)
        registry = network.obs.metrics
        # Messages are counted on *delivery*, not on send: while in flight
        # only the gauge moves.
        assert registry.value("net_messages", src="a", dst="b") == 0
        gauge = registry.get("net_in_flight", src="a", dst="b")
        assert gauge.value == 3
        sim.run()
        assert len(inbox["b"]) == 3
        assert registry.value("net_messages", src="a", dst="b") == 3
        assert gauge.value == 0  # everything landed
        assert gauge.high == 3
        hist = registry.get("net_latency", src="a", dst="b")
        assert hist.count == 3
        assert hist.max == seconds(0.1)

    def test_message_to_failed_site_not_counted_as_delivered(self):
        # Regression: the channel counter used to tick at send time, so a
        # message dropped at a logically-failed destination still inflated
        # net_messages (and its latency entered the histogram).
        plan = FailurePlan()
        plan.add(
            FailureWindow(
                site="b",
                kind=FailureKind.LOGICAL,
                start=seconds(20),
                end=seconds(40),
            )
        )
        sim, network, inbox = self.make(plan=plan)
        network.send("a", "b", "lands")  # delivers at 0.1s, before the window
        sim.at(seconds(21), lambda: network.send("a", "b", "dropped"))
        sim.run()
        registry = network.obs.metrics
        assert [m.payload for m in inbox["b"]] == ["lands"]
        assert registry.value("net_messages", src="a", dst="b") == 1
        assert registry.get("net_latency", src="a", dst="b").count == 1
        assert network.messages_sent == 2
        assert network.messages_dropped == 1

    def test_unused_channel_has_no_series(self):
        __, network, ___ = self.make()
        network.send("a", "b", "x")
        assert network.obs.metrics.get("net_messages", src="b", dst="a") is None


class TestDeliveryOnTheWire(TestDelivery):
    wire = True


class TestFifoOnTheWire(TestFifo):
    wire = True


class TestFailuresOnTheWire(TestFailures):
    wire = True


class TestChannelOverridesOnTheWire(TestChannelOverrides):
    wire = True


class TestChannelMetricsOnTheWire(TestChannelMetrics):
    wire = True


class TestLatencyModels:
    def test_fixed(self):
        assert FixedLatency(7).sample(None) == 7

    def test_uniform_in_bounds(self):
        import random

        model = UniformLatency(5, 10)
        rng = random.Random(0)
        samples = [model.sample(rng) for __ in range(100)]
        assert all(5 <= s <= 10 for s in samples)

    def test_uniform_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(10, 5)

    def test_exponential_at_least_base(self):
        import random

        model = ExponentialLatency(100, 50)
        rng = random.Random(0)
        assert all(model.sample(rng) >= 100 for __ in range(100))

    def test_exponential_mean_near_base_plus_extra(self):
        import random

        model = ExponentialLatency(seconds(0.1), seconds(0.05))
        rng = random.Random(7)
        samples = [model.sample(rng) for __ in range(2000)]
        mean = sum(samples) / len(samples)
        expected = seconds(0.1) + seconds(0.05)
        assert abs(mean - expected) < 0.1 * expected

    def test_models_draw_from_dedicated_channel_stream(self):
        # Two networks with the same seed sample identical latencies for
        # the same channel — reproducibility of the network stream.
        first = make_network(latency=UniformLatency(0, seconds(5)))
        second = make_network(latency=UniformLatency(0, seconds(5)))
        for sim, network, __ in (first, second):
            for index in range(5):
                sim.at(index, lambda i=index: network.send("a", "b", i))
            sim.run()
        assert [m.deliver_at for m in first[2]["b"]] == [
            m.deliver_at for m in second[2]["b"]
        ]
