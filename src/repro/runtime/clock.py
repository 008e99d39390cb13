"""WallClock: the Simulator-compatible clock of the wire runtime.

Virtual time stays integer microseconds (:mod:`repro.core.timebase`) but
*tracks the wall clock*, scaled: at ``time_scale=100`` one wall second is
100 virtual seconds.  Everything that schedules against the simulator
works unchanged against this clock.

There is one queue, the kernel's: a heap of
:class:`~repro.sim.scheduler.ScheduledEvent` entries ``[time, seq,
callback, clock]``, ordered in C, so equal times run in scheduling order
and a cancel leaves a tombstone, as on :class:`Simulator`.  The loop holds
one timer of the clock's: for the head (or the event just after it, to
share a wake), or the horizon if sooner, re-armed only for something
earlier.  It runs, never early, what is due by the wall-derived time,
capped at the horizon.  Schedules made with no loop wait in the queue.

``run_until(h)`` ends with virtual time pinned to ``h``, every event due
by ``h`` run and none after it, as ``Simulator.run(until=h)`` does.  A
callback runs when the wall clock reaches it, so on a loaded host what it
does lands later in virtual time: the equivalence harness checks that the
*guarantees* survive real concurrency, not the interleaving.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from collections.abc import Callable
from time import monotonic

from repro.core.timebase import Ticks
from repro.sim.scheduler import ScheduledEvent, Simulator

#: Microseconds per second (ticks are integer microseconds of virtual time).
_TICKS_PER_SECOND = 1_000_000

#: ``_armed`` when no schedule may re-arm the timer: no loop, a batch running
#: (it arms the next head when it ends), or the horizon reached.
_HELD = -1


class WallClock:
    """A scaled wall clock with a Simulator-compatible scheduling API."""

    def __init__(self, time_scale: float = 20.0) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive: {time_scale}")
        self.time_scale = time_scale
        self._ticks_per_wall_second = time_scale * _TICKS_PER_SECOND
        #: The coalescing window: the head waits up to 5 virtual ms, and up
        #: to 250 wall us, for the next event, so both share one wake.
        self._coalesce = min(5_000, 250 * time_scale)
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Virtual, ``time.monotonic()`` and loop time at the last activation.
        self._anchor: Ticks = 0
        self._origin = self._loop_origin = 0.0
        #: Monotonicity floor: ``now`` never goes backwards.
        self._floor: Ticks = 0
        self._queue: list[ScheduledEvent] = []
        self._cancelled_pending = 0
        self._seq = itertools.count()
        #: The one loop timer, and the virtual time it is armed for.
        self._timer: asyncio.TimerHandle | None = None
        self._armed: float = _HELD
        #: Resolved when the horizon is due, or by :meth:`stop`.
        self._done: asyncio.Future | None = None
        self._stopped = False
        #: The active ``run_until`` horizon: nothing due after it fires.
        self._until: Ticks = 0
        self.events_processed = 0
        self.max_queue_depth = 0

    @property
    def now(self) -> Ticks:
        """Current virtual time in ticks: monotonic, and never past the
        active horizon or a freeze, so a late loop's callbacks schedule
        what is due by the horizon inside this run."""
        if self._loop is not None:
            current = self._anchor + round(
                (monotonic() - self._origin) * self._ticks_per_wall_second
            )
            if current > self._until:
                current = self._until
            if current > self._floor:
                self._floor = current
        return self._floor

    def at(self, time: Ticks, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` at virtual ``time``, clamped to ``now``
        where the simulator would reject a past time: wall-clock jitter
        makes exact ticks impossible, and only causality must hold."""
        now = self.now
        if time < now:
            time = now
        event = ScheduledEvent((time, next(self._seq), callback, self))
        queue = self._queue
        heapq.heappush(queue, event)
        if len(queue) > self.max_queue_depth:
            self.max_queue_depth = len(queue)
        if time < self._armed:
            self._arm()
        return event

    #: The kernel's own (``after`` goes through ``at``).
    after = Simulator.after
    peek = Simulator.peek
    _note_cancelled = Simulator._note_cancelled

    def stop(self) -> None:
        """End ``run_until`` after this callback; later events stay queued."""
        self._stopped = True
        self._finish()

    def _finish(self) -> None:
        if self._done is not None and not self._done.done():
            self._done.set_result(None)

    def _arm(self) -> None:
        """Arm the one timer: the head (or the next, in the window), or horizon."""
        if self._timer is not None:
            self._timer.cancel()
        head = self.peek()
        queue = self._queue
        if len(queue) > 1 and (later := min(queue[1:3])[0]) - head <= self._coalesce:
            head = later  # the next event due: one of the head's two children
        armed = self._armed = self._until if head is None else min(head, self._until)
        when = self._loop_origin + (armed - self._anchor) / self._ticks_per_wall_second
        self._timer = self._loop.call_at(when, self._wake)

    def _wake(self) -> None:
        """The timer fired: run what is due, then re-arm or end the run."""
        armed, self._armed = self._armed, _HELD
        self._timer = None
        # Wall-derived, read without moving the floor: a stalled loop may
        # be past the horizon, which ``now`` must not report.
        wall = self._anchor + round(
            (monotonic() - self._origin) * self._ticks_per_wall_second
        )
        due = wall if wall > armed else armed
        self._run(min(due, self._until))
        if due >= self._until:
            self._finish()
        elif not self._stopped:
            self._arm()

    def _run(self, limit: Ticks) -> None:
        """The kernel's loop: run what is due by ``limit``, in order."""
        heappop = heapq.heappop
        queue = self._queue
        while queue and not self._stopped:
            event = queue[0]
            callback = event[2]
            if callback is None:  # a tombstone: drop it
                heappop(queue)
                self._cancelled_pending -= 1
                continue
            time = event[0]
            if time > limit:
                break
            heappop(queue)
            # Off the queue: a later cancel() must not count a tombstone.
            event[3] = None
            if time > self._floor:
                self._floor = time
            self.events_processed += 1
            callback()
            # A cancel() inside the callback may have compacted the heap.
            queue = self._queue

    def freeze(self, at_time: Ticks) -> None:
        """Disarm the loop timer and pin virtual time to ``at_time``, first
        running what a stalled loop left due by it (with what that
        schedules), as ``run(until=...)`` runs all that is due."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._loop = None
        self._armed = _HELD
        self._until = at_time
        self._run(at_time)
        self._floor = max(self._floor, at_time)

    async def run_until(self, until: Ticks) -> None:
        """Anchor to the running loop, run to virtual ``until``, freeze."""
        loop = self._loop = asyncio.get_running_loop()
        self._loop_origin, self._origin = loop.time(), monotonic()
        self._anchor = self._floor
        self._stopped = False
        self._until = until
        self._done = loop.create_future()
        self._arm()
        try:
            await self._done
        finally:
            self._done = None
        self.freeze(until)
