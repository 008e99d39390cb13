"""The reference kernel: how fast is this machine *right now*?

The box this benchmark was defined on drifts: the same code runs up to 2x
slower for minutes at a time (a shared host), which no number of
repetitions inside one measurement averages out.  So every CPU-bound timing
is reported in *reference seconds*: wall seconds multiplied by
``REFERENCE_S / kernel_time`` with the kernel timed right before and right
after the phase.  The kernel is a stdlib-only miniature of the toolkit's
instruction mix (a heap-driven event loop, dataclass events, dict indexes,
closures, f-strings), so interference slows it by about the same factor as
the workloads (log-log slope 0.94, correlation 0.88 over a 9-minute drift
of 2.4x; see README, "Noise").

FROZEN: this file is part of the ruler.  Changing the kernel changes every
reported time; it must never depend on anything under ``src/``.
"""

from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass
from time import perf_counter

#: The kernel's time on the defining 2-CPU box at its calm speed.  Only a
#: scale: it makes reference seconds read like that box's calm seconds.
REFERENCE_S = 0.135


@dataclass
class _Event:
    time: int
    site: str
    kind: str
    value: object
    trigger: object = None


class _Mini:
    def __init__(self) -> None:
        self.queue: list = []
        self.seq = 0
        self.now = 0
        self.events: list[_Event] = []
        self.index: dict = {}
        self.state: dict = {}

    def at(self, time, callback) -> None:
        self.seq += 1
        heapq.heappush(self.queue, (time, self.seq, callback))

    def record(self, site, kind, value, trigger=None) -> _Event:
        event = _Event(self.now, site, kind, value, trigger)
        self.events.append(event)
        self.index.setdefault((kind, site), []).append(event)
        if kind == "W":
            self.state[(site, value[0])] = value[1]
        return event

    def notify(self, key, value) -> None:
        event = self.record("hub", "N", (key, value))
        for i in range(8):
            site = f"r{i}"
            self.at(
                self.now + 10 + i,
                lambda s=site, e=event: self.record(
                    s, "W", (key, f"{value}-{s}"), e
                ),
            )

    def run(self) -> None:
        queue = self.queue
        while queue:
            self.now, __, callback = heapq.heappop(queue)
            callback()


def kernel_time() -> float:
    """Wall seconds one run of the reference kernel takes now.

    The cyclic collector is off while it runs (the kernel makes no cycles):
    a collection would scan whatever the workload holds in memory, and the
    ruler must not depend on the size of the thing it measures.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        # Four small passes, not one large: the kernel's own footprint
        # must stay small beside the workload's, or it would set peak RSS.
        for __ in range(4):
            mini = _Mini()
            for i in range(2000):
                mini.at(i * 7, lambda i=i: mini.notify(f"k{i % 50}", i))
            mini.run()
            assert len(mini.events) == 18_000
        elapsed = perf_counter() - started
    finally:
        if collecting:
            gc.enable()
    return elapsed
