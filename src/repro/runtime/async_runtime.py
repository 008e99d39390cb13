"""AsyncRuntime: CM-Shells on loop callbacks over real sockets.

Each ``Scenario(runtime="async")`` run opens one loopback TCP endpoint
per site (:class:`~repro.runtime.gateway.Gateway`), carries every
inter-site message over a real socket as a length-prefixed JSON-RPC
frame, and replaces the discrete-event queue with a scaled wall clock
(:class:`~repro.runtime.clock.WallClock`).  ``run(until)`` then means:

1. start the gateway endpoints;
2. let wall time advance virtual time to the horizon: a message's
   delivery timer writes its frame, and the receiving endpoint's
   ``data_received`` delivers it, each in its own loop callback;
3. quiesce — wait (bounded in wall time) until every frame written has
   reached its receiver, so the trace is complete when it closes;
4. tear the sockets down.  Channel senders, their sequence numbers and
   the resequencers carry over, so per-channel FIFO spans runs, and a
   message due after the horizon is delivered in the next run.

A wall-clock watchdog (``max_wall_seconds``) raises instead of hanging
on a wedged socket or a runaway schedule.

Each run has its own :func:`new_event_loop`, which waits in ``select(2)``
for the clock's one timer to the microsecond (``epoll_wait`` rounds every
wait up to a whole millisecond, a lateness each hop paid).
"""

from __future__ import annotations

import asyncio
import gc
import selectors
from typing import TYPE_CHECKING

from repro.core.timebase import Ticks
from repro.runtime.channels import WireFaultPlan
from repro.runtime.clock import WallClock
from repro.runtime.gateway import Gateway, WireNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cm.manager import Scenario


class WireRuntimeError(RuntimeError):
    """The watchdog expired, or a socket is past ``select(2)``'s reach."""


#: select(2) watches descriptors below this.
FD_SETSIZE = 1024


class _SelectSelector(selectors.SelectSelector):
    def select(self, timeout=None):
        try:
            return super().select(timeout)
        except ValueError as exc:  # "filedescriptor out of range in select()"
            # Forget what select(2) cannot watch, so the loop can still run
            # the teardown; closing a transport tolerates a missing key.
            for key in list(self.get_map().values()):
                if key.fd >= FD_SETSIZE:
                    self.unregister(key.fileobj)
            raise WireRuntimeError(
                "a socket's descriptor is past select(2)'s FD_SETSIZE (1024)"
            ) from exc


def new_event_loop() -> asyncio.AbstractEventLoop:
    """A loop on ``select(2)``; :class:`WireRuntimeError`, with nothing
    left open, if its own self-pipe is past ``FD_SETSIZE``."""
    selector = _SelectSelector()
    loop = asyncio.SelectorEventLoop(selector)
    try:
        selector.select(0)
    except WireRuntimeError:
        loop.close()
        raise
    return loop


class AsyncRuntime:
    """The socket-backed runtime.

    - ``time_scale`` — virtual seconds per wall second (20 by default: a
      300-virtual-second scenario takes 15 wall seconds).  The default is
      deliberately conservative: the scenario's timing bounds shrink with
      the scale (a 2-virtual-second rule delay is 100 wall ms of headroom
      at 20x but only 20 ms at 100x), and on a loaded host an aggressive
      scale makes real scheduling jitter show up as honest — but
      unwanted — timing-property violations in the recorded trace.
    - ``faults`` — socket-level fault plan (dup/reorder per directed
      channel).
    - ``max_wall_seconds`` — watchdog on one ``run`` call.
    - ``quiesce_wall`` — wall budget for in-flight frames to land after
      the horizon.
    """

    name = "async"

    def __init__(
        self,
        time_scale: float = 20.0,
        faults: WireFaultPlan | None = None,
        host: str = "127.0.0.1",
        max_wall_seconds: float = 120.0,
        quiesce_wall: float = 5.0,
    ) -> None:
        self.time_scale = time_scale
        self.faults = faults
        self.host = host
        self.max_wall_seconds = max_wall_seconds
        self.quiesce_wall = quiesce_wall
        self.clock: WallClock | None = None
        self.wire: WireNetwork | None = None

    def build(self, scenario: "Scenario") -> tuple[WallClock, WireNetwork]:
        """Construct the wall clock and the socket-backed network."""
        self.clock = WallClock(time_scale=self.time_scale)
        self.wire = WireNetwork(
            self.clock,
            rng_registry=scenario.rngs,
            default_latency=scenario.default_latency,
            failure_plan=scenario.failure_plan,
            in_order=scenario.in_order,
            obs=scenario.obs,
            faults=self.faults,
            gateway=Gateway(self.host),
        )
        return self.clock, self.wire

    def run(self, scenario: "Scenario", until: Ticks) -> None:
        """Advance the wire scenario to virtual time ``until``.

        The cyclic garbage collector is paused for the duration of the
        event loop: a gen-2 pass over a large recorded trace can stall
        the (often single-core) process for tens of milliseconds, which
        scaled wall time faithfully books against whatever timing bound
        was pending.  Reference counting still reclaims almost all
        garbage; the deferred cycles are collected right after the
        horizon, by a generation-0 pass: with the collector off nothing
        is promoted, so everything the run left is still in generation 0.
        """
        if self.wire is None or self.clock is None:
            raise WireRuntimeError("runtime was never built for a scenario")
        loop = new_event_loop()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            try:
                loop.run_until_complete(self._session(until))
            except WireRuntimeError:
                # Cancel what is still pending (the session stops the wire,
                # closing every socket) and let it finish before the loop
                # closes; again for what the teardown itself started (a
                # connection accepted meanwhile), and past a socket that
                # select(2) cannot watch (the selector has forgotten it).
                while pending := asyncio.all_tasks(loop):
                    for task in pending:
                        task.cancel()
                    try:
                        loop.run_until_complete(
                            asyncio.gather(*pending, return_exceptions=True)
                        )
                    except WireRuntimeError:
                        pass
                raise
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()
            if gc_was_enabled:
                gc.enable()
                gc.collect(0)

    async def _session(self, until: Ticks) -> None:
        assert self.wire is not None and self.clock is not None
        try:
            await self.wire.start()
            await asyncio.wait_for(
                self._advance(until), timeout=self.max_wall_seconds
            )
        except asyncio.TimeoutError:  # noqa: UP041 — alias only on 3.11+
            raise WireRuntimeError(
                f"wire runtime made no progress to horizon {until} within "
                f"{self.max_wall_seconds} wall seconds"
            ) from None
        finally:
            await self.wire.stop()

    async def _advance(self, until: Ticks) -> None:
        assert self.wire is not None and self.clock is not None
        await self.clock.run_until(until)
        await self.wire.quiesce(self.quiesce_wall)

    def shutdown(self, scenario: "Scenario") -> None:
        """Nothing persistent to release: each run tears its sockets down."""
