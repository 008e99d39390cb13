"""The old-fashioned banking workload of Section 6.4.

"All update transactions occur between 9 a.m. and 5 p.m."  The workload
updates branch account balances only during business hours, which is what
lets the branch offer the update-window interface and the toolkit offer a
periodic guarantee for the 17:15-08:00 window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.cm.manager import ConstraintManager
from repro.core.timebase import (
    DAY,
    Ticks,
    clock_time,
    seconds,
    time_of_day,
)


@dataclass
class BankingWorkload:
    """Business-hours-only balance updates across several simulated days."""

    cm: ConstraintManager
    family: str = "balance1"
    account_count: int = 10
    rate: float = 0.01  # updates per second during business hours
    days: int = 3
    open_at: Ticks = clock_time(9)
    close_at: Ticks = clock_time(17)
    accounts: list[str] = field(init=False)
    updates_scheduled: int = field(init=False, default=0)
    # What each scheduled write sets, in scheduling order: every write is
    # due no earlier than the one before it, so they run in that order.
    _due_accounts: deque[str] = field(init=False, repr=False, default_factory=deque)
    _due_balances: deque[float] = field(
        init=False, repr=False, default_factory=deque
    )

    def __post_init__(self) -> None:
        self.accounts = [f"a{i:03d}" for i in range(1, self.account_count + 1)]
        rng = self.cm.scenario.rngs.stream(f"banking:{self.family}")
        balances = {a: round(rng.uniform(100, 10_000), 2) for a in self.accounts}
        at, write = self.cm.scenario.sim.at, self._write  # one callable, shared
        due_accounts, due_balances = self._due_accounts, self._due_balances
        for account, balance in balances.items():
            due_accounts.append(account)
            due_balances.append(balance)
            at(0, write)
        time = 0.0
        horizon = self.days * DAY
        while time < horizon:
            time += rng.expovariate(self.rate) * seconds(1)
            tick = round(time)
            if tick >= horizon:
                break
            if not self.open_at <= time_of_day(tick) < self.close_at:
                continue  # the branch is closed; no transactions
            account = rng.choice(self.accounts)
            delta = round(rng.uniform(-500, 500), 2)
            balances[account] = round(balances[account] + delta, 2)
            self.updates_scheduled += 1
            due_accounts.append(account)
            due_balances.append(balances[account])
            at(tick, write)

    def _write(self) -> None:
        account = self._due_accounts.popleft()
        self.cm.spontaneous_write(
            self.family, (account,), self._due_balances.popleft()
        )
