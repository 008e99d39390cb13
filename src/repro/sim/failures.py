"""Failure injection for the two failure classes of Section 5.

The paper classifies interface failures into:

- **metric failures** — the database still performs the promised actions, but
  not within the promised time bound (overload, transient crash with
  recovery).  We model these as windows during which a site's service and/or
  message latencies are inflated by a factor.
- **logical failures** — the interface statements stop holding altogether
  (catastrophic failure).  We model these as windows during which a site
  drops its work entirely: operations fail, notifications are lost.

A third injectable behaviour, **silent notify loss**, models the legacy-system
discussion in Section 5: notifications are dropped *without any error being
observable*, which is exactly the case in which the paper says a Notify
Interface should not be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.timebase import Ticks


class FailureKind(Enum):
    """What kind of misbehaviour a failure window induces."""

    #: Delay-bound violations only; work still completes (Section 5, "metric").
    METRIC = "metric"
    #: Interface contract broken: operations fail / events lost ("logical").
    LOGICAL = "logical"
    #: Notifications silently dropped with no detectable error.
    SILENT_NOTIFY_LOSS = "silent-notify-loss"


@dataclass(frozen=True)
class FailureWindow:
    """One failure episode at one site.

    ``slowdown`` only matters for :attr:`FailureKind.METRIC`: service times
    and outgoing-message latencies at the site are multiplied by it.
    ``drop_probability`` only matters for silent notify loss.
    """

    site: str
    kind: FailureKind
    start: Ticks
    end: Ticks
    slowdown: float = 10.0
    drop_probability: float = 1.0

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError(f"empty failure window [{self.start}, {self.end})")
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1: {self.slowdown}")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(f"bad drop probability: {self.drop_probability}")

    def active_at(self, time: Ticks) -> bool:
        """Whether the window covers virtual time ``time``."""
        return self.start <= time < self.end


@dataclass
class FailurePlan:
    """The full failure schedule for a scenario (empty by default).

    Translators, the network and the wire gateway consult the plan on every
    operation, and most scenarios inject no failures, so each of those
    sites reads ``windows`` inline and calls a probe only when it is
    non-empty (the probes answer an empty plan too).  The emptiness is read
    per call, never cached: :meth:`add` is public, and a plan may gain
    windows after the federation is wired.
    """

    windows: list[FailureWindow] = field(default_factory=list)

    def add(self, window: FailureWindow) -> None:
        """Append a failure window to the plan."""
        self.windows.append(window)

    def windows_at(self, site: str, time: Ticks) -> list[FailureWindow]:
        """All windows covering ``site`` at ``time``."""
        return [w for w in self.windows if w.site == site and w.active_at(time)]

    def slowdown_at(self, site: str, time: Ticks) -> float:
        """Combined metric slowdown factor in effect at ``site``."""
        if not self.windows:
            return 1.0
        factor = 1.0
        for window in self.windows_at(site, time):
            if window.kind is FailureKind.METRIC:
                factor *= window.slowdown
        return factor

    def logically_failed(self, site: str, time: Ticks) -> bool:
        """Whether ``site`` is logically failed (contract broken) at ``time``."""
        if not self.windows:
            return False
        return any(
            w.kind is FailureKind.LOGICAL for w in self.windows_at(site, time)
        )

    def notify_drop_probability(self, site: str, time: Ticks) -> float:
        """Probability that a notification from ``site`` is silently lost."""
        if not self.windows:
            return 0.0
        probability = 0.0
        for window in self.windows_at(site, time):
            if window.kind is FailureKind.SILENT_NOTIFY_LOSS:
                probability = max(probability, window.drop_probability)
        return probability
