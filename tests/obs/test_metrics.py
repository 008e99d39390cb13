"""Tests for the metrics registry: counters, gauges, histograms, labels."""

import pytest

from repro.core.timebase import seconds
from repro.obs.metrics import (
    Counter,
    DEFAULT_LATENCY_BOUNDS,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestRegistryInterning:
    def test_same_labels_return_same_counter(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", site="sf")
        second = registry.counter("hits", site="sf")
        assert first is second
        first.inc()
        assert registry.value("hits", site="sf") == 1

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        one = registry.counter("net", src="a", dst="b")
        other = registry.counter("net", dst="b", src="a")
        assert one is other

    def test_distinct_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("hits", site="sf").inc(3)
        registry.counter("hits", site="ny").inc(4)
        assert registry.value("hits", site="sf") == 3
        assert registry.value("hits", site="ny") == 4
        assert registry.total("hits") == 7
        assert len(registry.series("hits")) == 2

    def test_name_bound_to_one_instrument_type(self):
        registry = MetricsRegistry()
        registry.counter("mixed", site="sf")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("mixed", site="ny")

    def test_get_returns_none_for_untouched_series(self):
        registry = MetricsRegistry()
        assert registry.get("nothing") is None
        assert registry.value("nothing") == 0

    def test_len_and_iter(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        registry.histogram("c")
        assert len(registry) == 3
        assert {type(i) for i in registry} == {Counter, Gauge, Histogram}


class TestGauge:
    def test_high_watermark(self):
        gauge = Gauge("depth", ())
        gauge.inc()
        gauge.inc()
        gauge.dec()
        gauge.inc()
        assert gauge.value == 2
        assert gauge.high == 2
        gauge.set(7)
        gauge.set(1)
        assert gauge.value == 1
        assert gauge.high == 7


class TestHistogram:
    def test_counts_sum_and_extrema(self):
        hist = Histogram("lat", ())
        for value in (seconds(0.004), seconds(0.4), seconds(2.0)):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == seconds(2.404)
        assert hist.min == seconds(0.004)
        assert hist.max == seconds(2.0)
        assert hist.mean == pytest.approx(seconds(2.404) / 3)

    def test_bucketing_is_cumulative_via_quantile(self):
        hist = Histogram("lat", ())
        for __ in range(99):
            hist.observe(seconds(0.001))
        hist.observe(seconds(100.0))
        assert hist.quantile(0.5) == seconds(0.001)
        assert hist.quantile(0.99) == seconds(0.001)
        assert hist.quantile(1.0) == seconds(300.0)

    def test_observation_beyond_last_bound_uses_exact_max(self):
        hist = Histogram("lat", ())
        hist.observe(seconds(1000.0))
        assert hist.quantile(0.5) == seconds(1000.0)
        assert hist.summary()["max_s"] == 1000.0

    def test_empty_histogram_summary(self):
        hist = Histogram("lat", ())
        assert hist.quantile(0.5) is None
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["min_s"] is None

    def test_custom_bounds(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(seconds(1), seconds(2)))
        assert hist.bounds == (seconds(1), seconds(2))
        default = registry.histogram("other")
        assert default.bounds == DEFAULT_LATENCY_BOUNDS

