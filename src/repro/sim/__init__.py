"""Deterministic discrete-event simulation substrate.

The paper's framework is defined in terms of event times and delay bounds
(``E1 -> [delta] E2`` means the right-hand event occurs within ``delta``
seconds of the left-hand one).  The original toolkit ran over a real network
against live databases; this reproduction replaces that environment with a
discrete-event simulator so that delays, failures, and message orderings are
exact, controllable, and reproducible.

Key pieces:

- :class:`~repro.sim.scheduler.Simulator` — the event loop and virtual clock.
- :class:`~repro.sim.network.Network` — sites and per-channel in-order message
  delivery with pluggable latency models (Appendix A property 7 of the paper
  requires in-order delivery; the network enforces it, and can be told not to
  for ablation experiments).
- :class:`~repro.sim.process.PeriodicTimer` — generator of the paper's
  periodic ``P(p)`` events.
- :mod:`repro.sim.failures` — injection of the paper's two failure classes
  (metric = delay-bound violations, logical = interface contract violations).
- :mod:`repro.sim.rng` — named, seeded random streams so workloads are
  reproducible and independently perturbable.
"""

from repro.sim.scheduler import Simulator, ScheduledEvent
from repro.sim.network import (
    Network,
    Message,
    LatencyModel,
    FixedLatency,
    UniformLatency,
)
from repro.sim.process import PeriodicTimer
from repro.sim.rng import RngRegistry
from repro.sim.failures import (
    FailureKind,
    FailureWindow,
    FailurePlan,
)

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "Network",
    "Message",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "PeriodicTimer",
    "RngRegistry",
    "FailureKind",
    "FailureWindow",
    "FailurePlan",
]
