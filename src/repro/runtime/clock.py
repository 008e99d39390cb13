"""WallClock: the Simulator-compatible clock of the wire runtime.

Virtual time stays integer microseconds (:mod:`repro.core.timebase`), but
it now *tracks the wall clock*, accelerated by a scale factor: at
``time_scale=100`` one wall second is 100 virtual seconds, so a 300-second
scenario runs in 3 seconds of real time.  Everything that schedules
callbacks against the simulator (`at`/`after`, :class:`PeriodicTimer`,
translators' service-time completions, workload generators, the network's
delivery timers) works unchanged against this clock — the callbacks land
on the asyncio loop via ``loop.call_at``.  On the wire a delivery timer
firing is the moment a message's frame is written to its channel socket.

Two lifecycle subtleties:

- **Pre-loop buffering.** Scenario wiring happens before any event loop
  exists (timers start at rule install time; workloads pre-schedule their
  updates).  Schedules made while no loop is active are buffered and
  flushed when :meth:`run_until` activates the clock.
- **Horizon freezing.** ``run_until(h)`` returns with virtual time pinned
  to exactly ``h`` (mirroring ``Simulator.run(until=h)``), every event
  due by ``h`` run (a stalled loop's stragglers at the freeze) and none
  due after it, outstanding wall timers cancelled, and later schedules
  buffered again — so a second ``run_until`` resumes where the first
  stopped, which is how scenarios that run / reconfigure / run again
  behave identically on both runtimes.
  A message due after the horizon is such a timer: it is delivered in the
  next run, as on the kernel.

Unlike the discrete-event kernel there is no global total order on
simultaneous callbacks — that is the point: the wire runtime exhibits real
concurrency, and the equivalence harness checks that the *guarantees*
survive it, not that the interleaving is byte-identical.  asyncio's timer
heap does not even keep scheduling order among equal deadlines, which is
why channel sequence numbers are allocated at ``send()``, not when a
delivery timer fires.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable

from repro.core.timebase import Ticks

#: Microseconds per second (ticks are integer microseconds of virtual time).
_TICKS_PER_SECOND = 1_000_000


class WallEvent:
    """A pending wall-clock callback; duck-compatible with
    :class:`~repro.sim.scheduler.ScheduledEvent` (has ``time`` and
    ``cancel``)."""

    __slots__ = ("time", "callback", "cancelled", "_handle")

    def __init__(self, time: Ticks, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self._handle: asyncio.TimerHandle | None = None

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already run)."""
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class WallClock:
    """A scaled wall clock with a Simulator-compatible scheduling API."""

    def __init__(self, time_scale: float = 20.0) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive: {time_scale}")
        self.time_scale = time_scale
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Virtual time of the last activation point (ticks).
        self._anchor: Ticks = 0
        #: ``loop.time()`` at the last activation point.
        self._origin: float = 0.0
        #: Monotonicity floor: ``now`` never goes backwards.
        self._floor: Ticks = 0
        #: Schedules made while no loop is active.
        self._buffered: list[WallEvent] = []
        self._live: set[WallEvent] = set()
        self._stopped = False
        #: The active ``run_until`` horizon: nothing due after it fires.
        self._until: Ticks = 0
        self.events_processed = 0
        self.max_queue_depth = 0

    # -- Simulator-compatible surface -----------------------------------------

    @property
    def now(self) -> Ticks:
        """Current virtual time in ticks (monotonic, never past a freeze)."""
        if self._loop is None:
            return self._floor
        elapsed = self._loop.time() - self._origin
        current = self._anchor + round(elapsed * self.time_scale * _TICKS_PER_SECOND)
        if current > self._floor:
            self._floor = current
        return self._floor

    @property
    def now_seconds(self) -> float:
        """Current virtual time in float seconds."""
        return self.now / _TICKS_PER_SECOND

    def at(self, time: Ticks, callback: Callable[[], None]) -> WallEvent:
        """Schedule ``callback`` at absolute virtual time ``time``.

        Unlike the simulator, scheduling in the (virtual) past is clamped
        to "now" rather than rejected: wall-clock jitter makes exact-tick
        scheduling impossible, and the framework's rules only care that
        causality (not exact timestamps) is preserved.
        """
        event = WallEvent(max(time, self.now), callback)
        if self._loop is None:
            self._buffered.append(event)
        else:
            self._arm(event)
        depth = len(self._buffered) + len(self._live)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        return event

    def after(self, delay: Ticks, callback: Callable[[], None]) -> WallEvent:
        """Schedule ``callback`` ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.at(self.now + delay, callback)

    def stop(self) -> None:
        """Stop the active ``run_until`` after the current callback."""
        self._stopped = True

    # -- wire-runtime internals ------------------------------------------------

    def _arm(self, event: WallEvent) -> None:
        assert self._loop is not None
        when = self._origin + (event.time - self._anchor) / (
            self.time_scale * _TICKS_PER_SECOND
        )
        self._live.add(event)
        event._handle = self._loop.call_at(when, self._fire, event)

    def _fire(self, event: WallEvent) -> None:
        self._live.discard(event)
        # The handle holds the event in its arguments: drop the cycle, so a
        # fired event is freed by reference counting, not by the collector.
        event._handle = None
        if event.cancelled:
            return
        if self._stopped or event.time > self._until:
            # As on the simulator, work due after the horizon (or after a
            # ``stop``) stays queued for the next run.
            self._buffered.append(event)
            return
        if event.time > self._floor:
            self._floor = event.time
        self.events_processed += 1
        event.callback()

    def activate(self, loop: asyncio.AbstractEventLoop) -> None:
        """Anchor virtual time to ``loop`` and flush buffered schedules."""
        self._loop = loop
        self._origin = loop.time()
        self._anchor = self._floor
        buffered, self._buffered = self._buffered, []
        for event in buffered:
            if not event.cancelled:
                self._arm(event)

    def freeze(self, at_time: Ticks) -> None:
        """Pin virtual time to ``at_time``; re-buffer outstanding timers.

        Cancels the wall timers of still-pending events but keeps the
        events, so a later :meth:`activate` re-arms them — repeated
        ``run_until`` calls therefore behave like the simulator's repeated
        ``run(until=...)``.  Events due by ``at_time`` that a stalled loop
        had not reached when the deadline passed run here first, in time
        order, with what they schedule, as ``run(until=...)`` runs every
        event due by its horizon.
        """
        self._loop = None
        self._until = at_time
        live, self._live = self._live, set()
        for event in live:
            if event._handle is not None:
                event._handle.cancel()
                event._handle = None
            self._buffered.append(event)
        while not self._stopped:
            due = [event for event in self._buffered if event.time <= at_time]
            if not due:
                break
            self._buffered = [e for e in self._buffered if e.time > at_time]
            for event in sorted(due, key=lambda event: event.time):
                self._fire(event)
        self._floor = max(self._floor, at_time)

    async def run_until(self, until: Ticks) -> None:
        """Let scheduled callbacks fire until virtual ``until``, then freeze."""
        loop = asyncio.get_running_loop()
        self._stopped = False
        self._until = until
        self.activate(loop)
        deadline = self._origin + (until - self._anchor) / (
            self.time_scale * _TICKS_PER_SECOND
        )
        while not self._stopped:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            await asyncio.sleep(min(remaining, 0.05))
        self.freeze(until)
