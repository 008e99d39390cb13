"""Process-level helpers on top of the raw scheduler.

Currently one building block: :class:`PeriodicTimer`, the source of the
paper's periodic ``P(p)`` events (Section 3.1.1, "Periodic Notify Interface",
and the polling strategy of Section 4.2.3).
"""

from __future__ import annotations

from typing import Callable

from repro.core.timebase import Ticks
from repro.sim.scheduler import ScheduledEvent, Simulator


class PeriodicTimer:
    """Fires a callback every ``period`` ticks until stopped.

    The first firing is at absolute time ``first``, by default
    ``start + period`` (a ``P(p)`` event occurs every ``p`` seconds *by
    definition*; we take the epoch to be the timer's start time).  A
    daily-phase timer passes the phase's next occurrence; ``first=sim.now``
    also fires at start.
    """

    def __init__(
        self,
        sim: Simulator,
        period: Ticks,
        callback: Callable[[], None],
        first: Ticks | None = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive: {period}")
        self.sim = sim
        self.period = period
        self.callback = callback
        self._stopped = False
        self.fire_count = 0
        if first is None:
            first = sim.now + period
        self._pending: ScheduledEvent | None = sim.at(first, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fire_count += 1
        self._pending = self.sim.after(self.period, self._fire)
        self.callback()

    def stop(self) -> None:
        """Stop the timer; no further firings occur."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
