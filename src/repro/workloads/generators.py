"""Generic spontaneous-update streams."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.cm.manager import ConstraintManager
from repro.core.events import EventDesc, notify_desc
from repro.core.items import DataItemRef
from repro.core.timebase import Ticks, seconds

ValueModel = Callable[["UpdateStream", str], object]


def notification_stream(
    families: Sequence[str],
    keys_per_family: int,
    count: int,
    seed: int = 0,
    low: float = 0.0,
    high: float = 100.0,
) -> list[EventDesc]:
    """A deterministic pre-generated list of ``N(item, value)`` descriptors.

    The dispatch benchmarks' raw material: ``count`` notifications drawn
    uniformly (keyed by ``seed``) over a ``families × keys_per_family``
    item grid, ready to feed :meth:`~repro.cm.shell.CMShell.ingest_batch`
    without any per-event generation cost inside the timed region.
    """
    rng = random.Random(seed)
    grid = [
        DataItemRef(family, (f"k{key}",))
        for family in families
        for key in range(keys_per_family)
    ]
    return [
        notify_desc(rng.choice(grid), round(rng.uniform(low, high), 2))
        for _ in range(count)
    ]


def uniform_values(low: float = 0.0, high: float = 100.0, digits: int = 2) -> ValueModel:
    """Independent uniform draws in ``[low, high]``."""

    def model(stream: "UpdateStream", key: str) -> object:
        return round(stream.rng.uniform(low, high), digits)

    return model


def random_walk(step: float = 5.0, start: float = 100.0) -> ValueModel:
    """Per-key random walks (realistic for salaries, balances, positions)."""
    positions: dict[str, float] = {}

    def model(stream: "UpdateStream", key: str) -> object:
        current = positions.get(key, start)
        current += stream.rng.uniform(-step, step)
        positions[key] = current
        return round(current, 2)

    return model


def duplicate_heavy(
    values: Sequence[object] = (1, 2, 3), repeat_probability: float = 0.7
) -> ValueModel:
    """Streams where consecutive updates often repeat the same value.

    Drives the cached-propagation experiment (E3): a cache suppresses the
    write requests these redundant updates would otherwise cause.
    """
    last: dict[str, object] = {}

    def model(stream: "UpdateStream", key: str) -> object:
        if key in last and stream.rng.random() < repeat_probability:
            return last[key]
        value = stream.rng.choice(list(values))
        last[key] = value
        return value

    return model


@dataclass
class StreamStats:
    """What a stream actually generated."""

    updates: int = 0
    deletes: int = 0


class UpdateStream:
    """Poisson-arrival spontaneous updates to one item family.

    ``rate`` is updates per simulated second across the whole key pool; the
    updated key is drawn uniformly.  The stream pre-schedules all its events
    at construction (times are known in advance — the simulator makes no
    difference between pre-scheduled and reactive events).
    """

    def __init__(
        self,
        cm: ConstraintManager,
        family: str,
        keys: Sequence[object] | None,
        rate: float,
        duration: Ticks,
        value_model: ValueModel | None = None,
        start: Ticks = 0,
        stream_name: str = "",
    ):
        self.cm = cm
        self.family = family
        self.keys = list(keys) if keys is not None else [None]
        self.rng = cm.scenario.rngs.stream(
            stream_name or f"workload:{family}"
        )
        self.value_model = value_model or uniform_values()
        self.stats = StreamStats()
        self.schedule: list[Ticks] = []
        time = float(start)
        end = float(start + duration)
        while True:
            time += self.rng.expovariate(rate) * seconds(1)
            if time >= end:
                break
            tick = round(time)
            self.schedule.append(tick)
            cm.scenario.sim.at(tick, self._make_update())

    def _make_update(self) -> Callable[[], None]:
        def update() -> None:
            key = self.rng.choice(self.keys)
            args = () if key is None else (key,)
            value = self.value_model(self, str(key))
            self.cm.spontaneous_write(self.family, args, value)
            self.stats.updates += 1

        return update


class BurstStream:
    """Bursts of back-to-back updates to a single key.

    Exercises the polling-misses-updates behaviour (E2): two or more updates
    inside one polling interval guarantee a missed value.
    """

    def __init__(
        self,
        cm: ConstraintManager,
        family: str,
        key: object,
        burst_times: Sequence[Ticks],
        burst_size: int = 3,
        intra_gap: Ticks = seconds(0.2),
        value_model: ValueModel | None = None,
        stream_name: str = "",
    ):
        self.cm = cm
        self.family = family
        self.key = key
        self.rng = cm.scenario.rngs.stream(
            stream_name or f"burst:{family}:{key}"
        )
        self.value_model = value_model or uniform_values()
        self.stats = StreamStats()
        for burst_start in burst_times:
            for index in range(burst_size):
                tick = burst_start + index * intra_gap
                cm.scenario.sim.at(tick, self._make_update())

    def _make_update(self) -> Callable[[], None]:
        def update() -> None:
            args = () if self.key is None else (self.key,)
            value = self.value_model(self, str(self.key))  # type: ignore[arg-type]
            self.cm.spontaneous_write(self.family, args, value)
            self.stats.updates += 1

        return update


class ChurnStream:
    """Insert/delete churn on a parameterized family (referential workloads).

    With probability ``delete_probability`` an existing key is deleted;
    otherwise a new key is inserted.  Key names are drawn from a counter so
    each insertion is a fresh parameter value.
    """

    def __init__(
        self,
        cm: ConstraintManager,
        family: str,
        rate: float,
        duration: Ticks,
        delete_probability: float = 0.3,
        value_model: Optional[ValueModel] = None,
        start: Ticks = 0,
        key_prefix: str = "k",
        stream_name: str = "",
    ):
        self.cm = cm
        self.family = family
        self.rng = cm.scenario.rngs.stream(stream_name or f"churn:{family}")
        self.delete_probability = delete_probability
        self.value_model = value_model or uniform_values()
        self.stats = StreamStats()
        self.live_keys: list[str] = []
        self._counter = 0
        self.key_prefix = key_prefix
        time = float(start)
        end = float(start + duration)
        while True:
            time += self.rng.expovariate(rate) * seconds(1)
            if time >= end:
                break
            cm.scenario.sim.at(round(time), self._make_op())

    def _make_op(self) -> Callable[[], None]:
        def operate() -> None:
            if self.live_keys and self.rng.random() < self.delete_probability:
                key = self.live_keys.pop(self.rng.randrange(len(self.live_keys)))
                self.cm.spontaneous_delete(self.family, (key,))
                self.stats.deletes += 1
            else:
                self._counter += 1
                key = f"{self.key_prefix}{self._counter}"
                self.live_keys.append(key)
                value = self.value_model(self, key)
                self.cm.spontaneous_write(self.family, (key,), value)
                self.stats.updates += 1

        return operate
