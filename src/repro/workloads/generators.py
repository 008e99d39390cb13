"""Generic spontaneous-update streams."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

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


def _uniform(stream: "UpdateStream", key: str) -> object:
    """The default value model: independent uniform draws in ``[0, 100]``."""
    return round(stream.rng.uniform(0.0, 100.0), 2)


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
        self.value_model = value_model or _uniform
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
