"""The personnel workload of the paper's running example (Section 4.2).

A company's San Francisco branch updates employee salaries in its local
database; headquarters in New York keeps copies.  The workload populates an
employee roster and then streams salary updates (per-employee random walks,
Poisson arrivals).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.cm.manager import ConstraintManager
from repro.core.timebase import Ticks
from repro.workloads.generators import UpdateStream, random_walk


@dataclass
class PersonnelWorkload:
    """Roster setup plus a salary-update stream."""

    cm: ConstraintManager
    family: str = "salary1"
    employee_count: int = 20
    rate: float = 1.0  # updates per simulated second across the roster
    duration: Ticks = 0
    start: Ticks = 0
    employees: list[str] = field(init=False)
    stream: UpdateStream = field(init=False)
    # The roster loads still due, in scheduling (and so running) order.
    _due: deque[str] = field(init=False, repr=False, default_factory=deque)
    _salaries: deque[float] = field(init=False, repr=False, default_factory=deque)

    def __post_init__(self) -> None:
        self.employees = [f"e{i:03d}" for i in range(1, self.employee_count + 1)]
        rng = self.cm.scenario.rngs.stream(f"personnel:{self.family}")
        # Initial roster load: everyone gets a starting salary at time 0;
        # these are spontaneous writes too (the databases pre-exist the CM).
        at, load = self.cm.scenario.sim.at, self._load  # one callable, shared
        for employee in self.employees:
            self._due.append(employee)
            self._salaries.append(round(rng.uniform(50_000, 150_000), 2))
            at(self.start, load)
        self.stream = UpdateStream(
            self.cm,
            self.family,
            self.employees,
            rate=self.rate,
            duration=self.duration,
            value_model=random_walk(step=2_000.0, start=100_000.0),
            start=self.start,
            stream_name=f"personnel-updates:{self.family}",
        )

    def _load(self) -> None:
        employee = self._due.popleft()
        self.cm.spontaneous_write(self.family, (employee,), self._salaries.popleft())
