"""Flight recorder: bounded per-site ring buffers of telemetry digests.

The execution trace keeps every event of a run and its trigger — exactly
right for experiments, exactly wrong as the incident record of a
long-running deployment.  The flight recorder is the always-affordable
bounded record: each site appends compact digests (event processed, rule
fired, frame sent/received, failure notice) into a bounded ``deque``, so
memory is O(sites × capacity) no matter how long the run, and the hot
path is one tuple append.

The payoff comes at failure time.  :meth:`FlightRecorder.dump` freezes
the current ring contents into a *dump* — the last-N-things-that-happened
digest a post-mortem wants — and the shells and run-report builder call
it on every :class:`~repro.cm.failures.FailureNotice` intake and on every
guarantee found violated, so the run report carries the evidence trail
for each incident, whatever the trace has kept.

Digests store their ``detail`` payload by reference and stringify it
only when a dump or rendering actually happens; recording never formats.
The network's ``net.send`` / ``net.recv`` digests keep the message itself
and render as ``->dst Payload`` / ``<-src Payload``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator, Optional

from repro.core.timebase import Ticks, to_seconds

#: Default per-site ring capacity.  256 digests cover several seconds of
#: salary-scenario traffic — enough context around an incident without
#: letting an idle site pin unbounded history.
DEFAULT_CAPACITY = 256

#: How :meth:`FlightRecorder.digest` renders a kind's ``detail`` (``str``
#: for any other kind): a network digest keeps the message itself.
_RENDER = {
    "net.send": lambda message: f"->{message.dst} {type(message.payload).__name__}",
    "net.recv": lambda message: f"<-{message.src} {type(message.payload).__name__}",
}


class FlightRecorder:
    """Per-site bounded digest rings with dump-on-incident.

    - :meth:`record` is the hot path: resolve the site's ring (one dict
      lookup) and append a ``(time, kind, detail)`` tuple.  The ring is a
      ``deque(maxlen=capacity)``, so overflow discards the oldest digest
      in O(1).
    - :meth:`dump` snapshots all rings (merged, time-ordered) under a
      ``reason`` string.  Dumps are deduplicated by reason: one incident
      relayed to N shells produces one dump, not N copies.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"flight ring capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._rings: dict[str, deque] = {}
        #: Frozen incident digests, in dump order.
        self.dumps: list[dict] = []
        self._dumped_reasons: set[str] = set()
        #: Total digests ever recorded (rings only keep the newest).
        self.records_taken = 0

    # -- recording (hot path) --------------------------------------------------

    def record(self, site: str, kind: str, time: Ticks, detail: Any) -> None:
        """Append one digest to ``site``'s ring."""
        ring = self._rings.get(site)
        if ring is None:
            ring = self._rings[site] = deque(maxlen=self.capacity)
        ring.append((time, kind, detail))
        self.records_taken += 1

    # -- dumping ----------------------------------------------------------------

    def digest(self, site: Optional[str] = None) -> list[dict]:
        """The current ring contents as JSON-safe dicts, time-ordered.

        ``site=None`` merges every site's ring.  This is where ``detail``
        payloads are finally stringified.
        """
        if site is not None:
            rings = [(site, self._rings.get(site, ()))]
        else:
            rings = sorted(self._rings.items())
        rows = [
            (time, ring_site, kind, detail)
            for ring_site, ring in rings
            for (time, kind, detail) in ring
        ]
        rows.sort(key=lambda row: row[0])
        return [
            {
                "time": time,
                "time_s": round(to_seconds(time), 6),
                "site": ring_site,
                "kind": kind,
                "detail": _RENDER.get(kind, str)(detail),
            }
            for (time, ring_site, kind, detail) in rows
        ]

    def dump(self, reason: str, time: Ticks) -> Optional[dict]:
        """Freeze the rings into an incident dump (once per ``reason``).

        Returns the dump dict, or ``None`` when ``reason`` already dumped
        — the dedup that keeps a notice relayed to every peer from
        multiplying into identical dumps.
        """
        if reason in self._dumped_reasons:
            return None
        self._dumped_reasons.add(reason)
        dump = {
            "reason": reason,
            "time": time,
            "time_s": round(to_seconds(time), 6),
            "records": self.digest(),
        }
        self.dumps.append(dump)
        return dump

    # -- introspection -----------------------------------------------------------

    @property
    def sites(self) -> list[str]:
        return sorted(self._rings)

    def ring_sizes(self) -> dict[str, int]:
        return {site: len(ring) for site, ring in sorted(self._rings.items())}

    def to_dict(self) -> dict:
        """The run-report form: configuration, fill levels, and dumps."""
        return {
            "capacity": self.capacity,
            "records_taken": self.records_taken,
            "ring_sizes": self.ring_sizes(),
            "dumps": list(self.dumps),
        }

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())

    def __iter__(self) -> Iterator[tuple]:
        for site, ring in sorted(self._rings.items()):
            for time, kind, detail in ring:
                yield (time, site, kind, detail)
