"""Inventory workload for the Demarcation Protocol experiment (Section 6.1).

Constraint ``X <= Y``: a storefront's committed orders ``X`` must never
exceed the warehouse's stock level ``Y``.  The storefront keeps trying to
raise ``X`` (sales); the warehouse's ``Y`` drifts (deliveries raise it,
write-offs lower it).  Pressure on the shared slack forces limit-change
handshakes, which is where the slack policies differ.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.timebase import Ticks, seconds
from repro.protocols.demarcation import DemarcationProtocol
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Simulator


@dataclass
class InventoryWorkload:
    """Drives both agents of an installed demarcation protocol."""

    sim: Simulator
    rngs: RngRegistry
    protocol: DemarcationProtocol
    x_rate: float = 0.5  # sale attempts per second
    y_rate: float = 0.2  # warehouse adjustments per second
    duration: Ticks = seconds(600)
    x_step: float = 5.0  # mean sale size
    y_drift: float = 2.0  # mean warehouse upward drift per adjustment
    attempts: int = field(init=False, default=0)
    _sales: deque[float] = field(init=False, repr=False, default_factory=deque)
    _adjustments: deque[float] = field(
        init=False, repr=False, default_factory=deque
    )

    def __post_init__(self) -> None:
        # One scheduled event per update and nothing else: every sale shares
        # one bound method, which pops its delta (a float: untracked by the
        # collector) from a queue filled in scheduling order.  A stream's
        # updates are scheduled in time order, so they also run in it.
        x_rng = self.rngs.stream("inventory:x")
        y_rng = self.rngs.stream("inventory:y")
        at = self.sim.at
        sale, sales = self._sale, self._sales
        time = 0.0
        while time < self.duration:
            time += x_rng.expovariate(self.x_rate) * seconds(1)
            if time >= self.duration:
                break
            sales.append(x_rng.uniform(0.5, self.x_step * 2))
            self.attempts += 1
            at(round(time), sale)
        adjust, adjustments = self._adjust, self._adjustments
        time = 0.0
        while time < self.duration:
            time += y_rng.expovariate(self.y_rate) * seconds(1)
            if time >= self.duration:
                break
            # Warehouse drifts upward on average (deliveries outpace
            # write-offs) so sales can keep being granted slack.
            adjustments.append(y_rng.uniform(-self.y_drift, self.y_drift * 3))
            at(round(time), adjust)

    def _sale(self) -> None:
        agent = self.protocol.x_agent
        agent.attempt_update(round(agent.value + self._sales.popleft(), 2))

    def _adjust(self) -> None:
        agent = self.protocol.y_agent
        agent.attempt_update(round(agent.value + self._adjustments.popleft(), 2))
