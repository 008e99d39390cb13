"""The metrics registry: counters, gauges, and virtual-time histograms.

Every instrument is a *labeled series*: a metric name plus a sorted label
set (``site=...``, ``rule=...``, ``src=.../dst=...``) identifies one series,
and :class:`MetricsRegistry` interns them so repeated lookups return the
same object.  Hot paths therefore resolve their instruments **once** (at
wiring time) and afterwards pay only a ``self.value += 1`` attribute
increment per observation — the same cost as the ad-hoc integer counters
this module replaces.  The shells' PR-1 ``stats()`` counters are now an
adapter over these series (see :meth:`repro.cm.shell.CMShell.stats`).

Histograms bucket virtual-time quantities (:data:`repro.core.timebase.Ticks`,
integer microseconds) by default, with bounds spanning 1 ms to 5 minutes —
the range of interest for propagation latencies whose guarantees quote
``κ`` bounds in seconds.

Nothing here does I/O: structured output is the job of
:mod:`repro.obs.report`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional

from repro.core.timebase import Ticks, seconds, to_seconds

#: Default histogram bounds in ticks: 1ms .. 5min, roughly log-spaced.
DEFAULT_LATENCY_BOUNDS: tuple[Ticks, ...] = tuple(
    seconds(s)
    for s in (
        0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
        1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 300.0,
    )
)

#: Bounds for real-millisecond series (``wire_latency_ms``): 100µs .. 1s
#: of wall time, the range loopback frames actually land in.
WIRE_MS_BOUNDS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
)

LabelSet = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count.

    Hot paths may increment ``value`` directly (``c.value += 1``); the
    :meth:`inc` method exists for call sites where readability wins.
    """

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({_series_repr(self.name, self.labels)}={self.value})"


class Gauge:
    """A point-in-time level, with a high-watermark (``high``).

    The watermark is what run reports want from queue depths: "how deep did
    the channel get", not "how deep was it when the run ended".
    """

    __slots__ = ("name", "labels", "value", "high")

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self.high = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high:
            self.high = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def __repr__(self) -> str:
        return f"Gauge({_series_repr(self.name, self.labels)}={self.value})"


class Histogram:
    """A cumulative-bucket histogram over virtual-time quantities.

    ``bounds`` are inclusive upper bucket edges in ticks; observations above
    the last bound land in the implicit +Inf bucket.  ``sum``/``count``/
    ``min``/``max`` are tracked exactly, so reports can quote exact extrema
    alongside bucketed percentile estimates.  The one series in other
    units, ``wire_latency_ms`` (real milliseconds, :data:`WIRE_MS_BOUNDS`),
    is read through those exact fields only, never :meth:`summary`.
    """

    __slots__ = (
        "name", "labels", "bounds", "buckets", "count", "sum", "min", "max",
    )

    def __init__(
        self,
        name: str,
        labels: LabelSet,
        bounds: tuple[Ticks, ...] = DEFAULT_LATENCY_BOUNDS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0
        self.min: Optional[Ticks] = None
        self.max: Optional[Ticks] = None

    def observe(self, value: Ticks) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[Ticks]:
        """Estimated q-quantile (upper bucket bound holding it), or the
        exact max for observations beyond the last bound."""
        if not self.count:
            return None
        rank = q * self.count
        cumulative = 0
        for index, bucket in enumerate(self.buckets):
            cumulative += bucket
            if cumulative >= rank and bucket:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max

    def summary(self) -> dict:
        """Compact JSON-friendly digest of a tick-valued histogram, in
        seconds."""
        return {
            "count": self.count,
            "mean_s": round(to_seconds(round(self.mean)), 6),
            "min_s": to_seconds(self.min) if self.min is not None else None,
            "max_s": to_seconds(self.max) if self.max is not None else None,
            "p50_s": _bound_seconds(self.quantile(0.50)),
            "p99_s": _bound_seconds(self.quantile(0.99)),
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({_series_repr(self.name, self.labels)}: "
            f"n={self.count}, mean={self.mean:.0f})"
        )


def _bound_seconds(value: Optional[Ticks]) -> Optional[float]:
    return to_seconds(value) if value is not None else None


def _series_repr(name: str, labels: LabelSet) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{k}={v!r}" for k, v in labels)
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Interned, labeled metric series.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a ``(name, labels)`` pair creates the series, later calls return the
    same object.  A name is bound to one instrument type for the lifetime of
    the registry.
    """

    def __init__(self) -> None:
        self._series: dict[tuple[str, LabelSet], object] = {}
        self._types: dict[str, type] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        bounds: tuple[Ticks, ...] | None = None,
        **labels: str,
    ) -> Histogram:
        key = (name, _label_key(labels))
        existing = self._series.get(key)
        if existing is not None:
            assert isinstance(existing, Histogram)
            return existing
        self._check_type(name, Histogram)
        hist = Histogram(name, key[1], bounds or DEFAULT_LATENCY_BOUNDS)
        self._series[key] = hist
        return hist

    def _get(self, cls: type, name: str, labels: dict[str, str]):
        key = (name, _label_key(labels))
        existing = self._series.get(key)
        if existing is not None:
            assert isinstance(existing, cls), (
                f"metric {name!r} is a {type(existing).__name__}, "
                f"not a {cls.__name__}"
            )
            return existing
        self._check_type(name, cls)
        instrument = cls(name, key[1])
        self._series[key] = instrument
        return instrument

    def _check_type(self, name: str, cls: type) -> None:
        bound = self._types.setdefault(name, cls)
        if bound is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {bound.__name__}"
            )

    # -- queries ---------------------------------------------------------------

    def series(self, name: str) -> list:
        """All series of a metric, in creation order."""
        return [v for (n, __), v in self._series.items() if n == name]

    def get(self, name: str, **labels: str):
        """One series, or ``None`` if it was never created."""
        return self._series.get((name, _label_key(labels)))

    def value(self, name: str, **labels: str) -> float:
        """A counter/gauge value (0 for a series never touched)."""
        instrument = self.get(name, **labels)
        if instrument is None:
            return 0
        assert isinstance(instrument, (Counter, Gauge))
        return instrument.value

    def total(self, name: str) -> float:
        """Sum of a counter metric across all its label sets."""
        return sum(c.value for c in self.series(name))

    def __iter__(self) -> Iterator:
        return iter(self._series.values())

    def __len__(self) -> int:
        return len(self._series)
