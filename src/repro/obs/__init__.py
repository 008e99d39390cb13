"""``repro.obs`` — the toolkit's observability layer.

One :class:`Instrumentation` object per :class:`~repro.cm.manager.Scenario`
bundles:

- a :class:`~repro.obs.metrics.MetricsRegistry` of labeled counters,
  gauges, and virtual-time histograms (the shells' ``stats()`` counters
  are an adapter over it);
- a :class:`~repro.obs.spans.Tracer` recording causal firing spans, so a
  cross-site propagation chain is one queryable tree with per-hop
  virtual-time latencies;
- an optional :class:`~repro.obs.flight.FlightRecorder` of bounded
  per-site digest rings, dumped on every incident;

and :class:`~repro.obs.report.RunReport` is the structured document
assembled from them at end of run.

Overhead discipline: metrics are always-on plain attribute increments
(they back ``stats()``); span recording and flight digests happen only
while :attr:`Instrumentation.enabled` is true, which every hook checks
with a single attribute load.  ``tests/integration/test_call_budget.py``
holds the disabled path to zero Python-level calls into this package per
dispatched event, and the flight recorder to exactly one.
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
from repro.obs.spans import Span, SpanContext, SpanTree, Tracer

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
    "Span",
    "SpanContext",
    "SpanTree",
    "Tracer",
]


class Instrumentation:
    """Metrics + tracer + flight recorder for one scenario.

    ``enabled`` is the one flag hot paths check: false until tracing or
    the flight recorder is enabled, so an unobserved run skips every span
    and digest with a single attribute load and branch.
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.enabled = False
        #: The bounded digest rings, present only after
        #: :meth:`enable_flight`.  Flight-only mode sets :attr:`enabled`
        #: without enabling the tracer, so hooks record digests but skip
        #: span construction entirely (the ring-buffer fast path).
        self.flight: FlightRecorder | None = None

    def enable_tracing(self) -> "Instrumentation":
        """Record spans."""
        self.tracer.enable()
        self.enabled = True
        return self

    def enable_flight(self, capacity: int = DEFAULT_CAPACITY) -> FlightRecorder:
        """Attach the flight recorder (idempotent; keeps an existing one)."""
        if self.flight is None:
            self.flight = FlightRecorder(capacity)
        self.enabled = True
        return self.flight
