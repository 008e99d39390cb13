"""The discrete-event scheduler and virtual clock.

A single :class:`Simulator` drives everything in a scenario: raw information
sources, CM-Translators, CM-Shells, workload generators, and applications all
schedule callbacks on it.  Time is integer microseconds
(:mod:`repro.core.timebase`), and ties are broken by insertion order, so runs
are fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.core.timebase import Ticks, to_seconds


class ScheduledEvent(list):
    """A pending callback: the handle :meth:`Simulator.at` returns *is* the
    queue entry, ``[time, seq, callback, sim]``.

    Being a list, entries order by ``(time, seq)`` in C — ``seq`` is unique,
    so the comparison never reaches the callback — which makes simultaneous
    events run in the order they were scheduled, with one heap object per
    scheduled callback.  Cancelling clears the callback slot; the simulator
    clears the ``sim`` slot when it pops the entry, so cancelling a handle
    that already ran touches no queue accounting.
    """

    __slots__ = ()

    @property
    def time(self) -> Ticks:
        """The virtual time the callback is (or was) due at."""
        return self[0]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called."""
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already run)."""
        if self[2] is not None:
            self[2] = None
            if self[3] is not None:
                self[3]._note_cancelled()


class Simulator:
    """Deterministic discrete-event loop with an integer-microsecond clock."""

    def __init__(self) -> None:
        #: Current virtual time in ticks.  A plain attribute, not a
        #: property, because every hop of a propagation reads it; only
        #: :meth:`run` assigns it.  Everything else treats it as read-only.
        self.now: Ticks = 0
        self._queue: list[ScheduledEvent] = []
        self._cancelled_pending = 0
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: High watermark of pending callbacks — the simulation analogue of
        #: a server's run-queue depth, surfaced by the run report.
        self.max_queue_depth = 0

    @property
    def now_seconds(self) -> float:
        """Current virtual time in float seconds (reporting convenience)."""
        return to_seconds(self.now)

    def at(self, time: Ticks, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` to run at absolute virtual time ``time``.

        Scheduling in the past is an error: the framework's rules only ever
        produce future (or simultaneous) events.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time} ticks; current time is {self.now}"
            )
        event = ScheduledEvent((time, next(self._seq), callback, self))
        queue = self._queue
        heapq.heappush(queue, event)
        if len(queue) > self.max_queue_depth:
            self.max_queue_depth = len(queue)
        return event

    def after(self, delay: Ticks, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.at(self.now + delay, callback)

    def stop(self) -> None:
        """Stop the run loop after the currently executing callback."""
        self._stopped = True

    def _note_cancelled(self) -> None:
        """Heap hygiene: compact when cancelled entries dominate the queue.

        Cancelled events stay in the heap as tombstones until they surface
        at the top; a workload that schedules and cancels aggressively
        (e.g. timeout guards) would otherwise grow the queue without bound.
        When more than half the queue is tombstones, rebuilding it is O(n)
        and amortizes to O(1) per cancellation.
        """
        self._cancelled_pending += 1
        if self._cancelled_pending * 2 > len(self._queue):
            self._queue = [e for e in self._queue if e[2] is not None]
            heapq.heapify(self._queue)
            self._cancelled_pending = 0

    def peek(self) -> Ticks | None:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
            self._cancelled_pending -= 1
        return queue[0][0] if queue else None

    def run(self, until: Ticks | None = None) -> None:
        """Run events until the queue drains or virtual time passes ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until`` at
        the end of the run even if the last event fired earlier, so that
        "state at end of run" queries are well defined.

        The loop pops and dispatches inline, so the only Python-level call
        per event is the callback itself.
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        heappop = heapq.heappop
        queue = self._queue
        try:
            while queue and not self._stopped:
                event = queue[0]
                callback = event[2]
                if callback is None:  # a tombstone: drop it
                    heappop(queue)
                    self._cancelled_pending -= 1
                    continue
                time = event[0]
                if until is not None and time > until:
                    break
                heappop(queue)
                # The entry has left the queue: a later cancel() on the
                # handle must not count a tombstone that is not there.
                event[3] = None
                self.now = time
                self.events_processed += 1
                callback()
                # A cancel() inside the callback may have compacted the heap
                # into a new list.
                queue = self._queue
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
