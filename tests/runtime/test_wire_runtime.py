"""End-to-end tests for the socket-backed wire runtime.

These run real scenarios: CM-Shells exchanging length-prefixed JSON-RPC
frames over loopback TCP, paced by the scaled wall clock.  Time scales
are set high so virtual minutes cost wall milliseconds.
"""

import asyncio
import gc

import pytest

from repro.cm import ConstraintManager, Scenario
from repro.core.timebase import seconds
from repro.experiments.common import build_salary_scenario
from repro.runtime import AsyncRuntime, ChannelFaults, WireFaultPlan, WireRuntimeError
from repro.runtime.gateway import WireNetwork, _Dialer
from repro.sim.network import FixedLatency


def wire(time_scale=1000.0, faults=None):
    return AsyncRuntime(time_scale=time_scale, faults=faults)


def test_unregistered_runtime_name_lists_the_registry():
    with pytest.raises(
        ValueError,
        match=r"unknown runtime 'carrier' \(have: async, sim, wire\)",
    ):
        Scenario(runtime="carrier")


class TestWireScenario:
    def test_salary_sync_crosses_real_sockets(self):
        salary = build_salary_scenario(
            strategy_kind="propagation", seed=0, runtime=wire()
        )
        cm = salary.cm
        assert isinstance(cm.scenario.network, WireNetwork)
        cm.scenario.sim.at(
            seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 50_000.0)
        )
        cm.run(until=seconds(30))
        assert salary.hq_db.query(
            "SELECT empid, salary FROM employees"
        ) == [("e1", 50000.0)]
        network = cm.scenario.network
        assert network.messages_delivered >= 1
        # Frames really crossed the loopback socket.
        stats = network.channel_stats()
        assert sum(s["frames_written"] for s in stats.values()) >= 1
        # Real milliseconds were recorded next to the virtual-tick series.
        hist = network.obs.metrics.get("wire_latency_ms", src="sf", dst="ny")
        assert hist is not None and hist.count >= 1

    def test_repeated_runs_resume_where_the_last_stopped(self):
        # run / reconfigure / run must behave like the simulator's repeated
        # run(until=...): sockets are rebuilt, channel sequences carry over.
        salary = build_salary_scenario(
            strategy_kind="propagation", seed=1, runtime=wire()
        )
        cm = salary.cm
        for t, value in ((1, 1.0), (35, 2.0)):
            cm.scenario.sim.at(
                seconds(t),
                lambda v=value: cm.spontaneous_write("salary1", ("e1",), v),
            )
        cm.run(until=seconds(30))
        assert salary.hq_db.query("SELECT salary FROM employees") == [(1.0,)]
        cm.run(until=seconds(60))
        assert salary.hq_db.query("SELECT salary FROM employees") == [(2.0,)]
        assert cm.scenario.sim.now == seconds(60)

    def test_guarantees_hold_over_the_wire(self):
        # At x200, not the x1000 of the tests above: the metric guarantee's
        # 6 virtual seconds are 30 wall ms, not 6, so a loaded machine's
        # scheduling stall does not read as a missed bound.
        salary = build_salary_scenario(
            strategy_kind="propagation", seed=2, runtime=wire(time_scale=200.0)
        )
        cm = salary.cm
        for t in (1, 3, 5):
            cm.scenario.sim.at(
                seconds(t),
                lambda v=float(t): cm.spontaneous_write("salary1", ("e1",), v),
            )
        cm.run(until=seconds(40))
        reports = cm.check_guarantees()
        assert reports, "no guarantees derived"
        assert all(report.valid for report in reports.values()), {
            name: report.valid for name, report in reports.items()
        }


@pytest.mark.parametrize(
    "runtime", ["sim", AsyncRuntime(time_scale=200)], ids=["sim", "wire"]
)
def test_message_in_flight_at_the_horizon_arrives_in_the_next_run(runtime):
    # Sent at 29.8 s with 0.5 s latency: due at 30.3 s, after the first
    # horizon.  Both runtimes keep it queued and deliver it in the next run.
    scenario = Scenario(
        seed=0, default_latency=FixedLatency(seconds(0.5)), runtime=runtime
    )
    network = scenario.network
    received = []
    network.register_site("a", lambda m: None)
    network.register_site("b", lambda m: received.append(scenario.sim.now))
    scenario.sim.at(seconds(29.8), lambda: network.send("a", "b", "late"))
    try:
        scenario.run(until=seconds(30))
        assert received == []
        # quiesce() did not wait for it: its frame was never written.
        assert getattr(network, "outstanding", 0) == 0
        scenario.run(until=seconds(60))
    finally:
        scenario.shutdown()
    assert len(received) == 1 and received[0] >= seconds(30.3)
    assert network.messages_dropped == 0


class TestTeardownMidDial:
    def test_a_dialer_lost_before_its_hello_logs_nothing(self, caplog):
        # What a dial cancelled before its hello leaves: a connected
        # ``_Dialer`` nobody awaits a reply from, then closed.
        async def session():
            loop = asyncio.get_running_loop()
            server = await loop.create_server(_Dialer, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            transport, dialer = await loop.create_connection(
                _Dialer, "127.0.0.1", port
            )
            transport.close()
            await dialer.closed
            server.close()
            await server.wait_closed()

        asyncio.run(session())
        gc.collect()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []

    def test_a_run_torn_down_mid_dial_delivers_next_run(self, caplog):
        # The first dial hangs until the watchdog tears the run down and
        # cancels it; the message it was to carry arrives, exactly once, in
        # the next run, and neither run leaves asyncio anything to report.
        salary = build_salary_scenario(
            strategy_kind="propagation", seed=0, runtime=wire()
        )
        cm = salary.cm
        runtime = cm.scenario.runtime_impl
        gateway = runtime.wire.gateway
        dial, stuck = gateway.dial, []

        async def first_dial_hangs(src, dst):
            if not stuck:
                stuck.append((src, dst))
                await asyncio.Event().wait()
            return await dial(src, dst)

        gateway.dial = first_dial_hangs
        cm.scenario.sim.at(
            seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 50_000.0)
        )
        runtime.max_wall_seconds = 0.5
        with pytest.raises(WireRuntimeError, match="no progress"):
            cm.run(until=seconds(30))
        assert stuck == [("sf", "ny")]
        assert salary.hq_db.query("SELECT salary FROM employees") == []
        runtime.max_wall_seconds = 30.0
        cm.run(until=seconds(60))
        gc.collect()
        assert salary.hq_db.query("SELECT salary FROM employees") == [(50000.0,)]
        network = cm.scenario.network
        assert network.messages_delivered == 1
        assert network.channel_stats()["sf->ny"]["frames_written"] == 1
        assert network.outstanding == 0
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


class TestSocketFaults:
    def test_dup_and_reorder_healed_by_resequencer(self):
        # Every frame duplicated and held back: the receiver must still
        # hand the shell each message exactly once, in order.
        plan = WireFaultPlan(default=ChannelFaults(dup=1.0, reorder=1.0))
        cm = ConstraintManager(Scenario(seed=3, runtime=wire(faults=plan)))
        cm.add_site("a")
        cm.add_site("b")
        received = []
        network = cm.scenario.network
        # Replace b's shell handler with a recorder: the payloads below are
        # bare strings, which a real shell would (rightly) reject.
        network._sites["b"].handler = lambda m: received.append(m.payload)
        for t, payload in ((1, "first"), (2, "second"), (3, "third")):
            cm.scenario.sim.at(
                seconds(t), lambda p=payload: network.send("a", "b", p)
            )
        cm.run(until=seconds(30))
        assert received == ["first", "second", "third"]
        stats = cm.scenario.network.channel_stats()["a->b"]
        assert stats["frames_duplicated"] >= 1
        assert stats["frames_reordered"] >= 1
        assert stats["duplicates_discarded"] >= 1
