"""``repro.obs`` — the toolkit's observability layer.

One :class:`Instrumentation` object per :class:`~repro.cm.manager.Scenario`
bundles:

- a :class:`~repro.obs.metrics.MetricsRegistry` of labeled counters,
  gauges, and virtual-time histograms (the shells' ``stats()`` counters
  are an adapter over it);
- an optional :class:`~repro.obs.flight.FlightRecorder` of bounded
  per-site digest rings, dumped on every incident;

and :class:`~repro.obs.report.RunReport` is the structured document
assembled from them at end of run.

A propagation's causal chain is not recorded here: every event in the
:class:`~repro.core.trace.ExecutionTrace` names its trigger (Appendix A's
``(time, desc, old, new, rule, trigger)``), so the chain from a ``W``
back to the spontaneous write that started it is a walk through
``trigger``, and the run report's ``propagation`` histograms are filled
from that walk.

Overhead discipline: metrics are always-on plain attribute increments
(they back ``stats()``); flight digests are recorded only while
:attr:`Instrumentation.flight` is set, which every hook reads once.
``tests/integration/test_call_budget.py`` holds the unobserved path to
zero Python-level calls into this package per dispatched event, and the
flight recorder to exactly one.
"""

from __future__ import annotations

from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_LATENCY_BOUNDS,
)
from repro.obs.report import RunReport, build_run_report

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS",
    "Instrumentation",
    "RunReport",
    "build_run_report",
]


class Instrumentation:
    """Metrics + flight recorder for one scenario.

    ``flight`` is the one attribute hot paths read: ``None`` until
    :meth:`enable_flight`, so an unobserved run skips every digest with a
    single attribute load and branch.
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        #: The bounded digest rings, present only after :meth:`enable_flight`.
        self.flight: FlightRecorder | None = None

    def enable_flight(self, capacity: int = DEFAULT_CAPACITY) -> FlightRecorder:
        """Attach the flight recorder (idempotent; keeps an existing one)."""
        if self.flight is None:
            self.flight = FlightRecorder(capacity)
        return self.flight
