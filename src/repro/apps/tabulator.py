"""The tabulating application of Section 7.1.

"Consider guarantees (1) and (2) from the viewpoint of an application that
runs at Y's site and tabulates the different values taken by X.  This
application can read Y and be assured that Y is a value previously taken by
X (due to guarantee (1)) and that Y does not miss any values that X takes
(due to guarantee (2))."

The app samples the local copy frequently and records the distinct values it
observes.  :meth:`audit` then compares the tabulation against the primary's
actual value history from the trace: with both guarantees standing, the
tabulation is complete and truthful; under polling (no guarantee (2)) it
will be missing values — which is precisely the experiment E2 demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cm.manager import ConstraintManager
from repro.core.items import MISSING, DataItemRef
from repro.core.timebase import Ticks, seconds
from repro.sim.process import PeriodicTimer


@dataclass
class TabulationAudit:
    """How the tabulation compares to the primary's true history."""

    values_tabulated: int
    true_values: int
    missing_values: list[object]
    spurious_values: list[object]

    @property
    def complete(self) -> bool:
        """No value taken by the primary is missing from the tabulation."""
        return not self.missing_values

    @property
    def truthful(self) -> bool:
        """Every tabulated value was really taken by the primary."""
        return not self.spurious_values


class TabulatorApp:
    """Tabulates the values a copied item takes, by sampling the copy."""

    def __init__(
        self,
        cm: ConstraintManager,
        src_ref: DataItemRef,
        dst_ref: DataItemRef,
        sample_period: Ticks = seconds(0.1),
    ):
        self.cm = cm
        self.src_ref = src_ref
        self.dst_ref = dst_ref
        self.observed: list[object] = []
        self._timer = PeriodicTimer(
            cm.scenario.sim, sample_period, self._sample
        )

    def _sample(self) -> None:
        value = self.cm.scenario.trace.current_value(self.dst_ref)
        if value is MISSING:
            return
        if not self.observed or self.observed[-1] != value:
            if value not in self.observed:
                self.observed.append(value)

    def stop(self) -> None:
        """Stop sampling."""
        self._timer.stop()

    def audit(self) -> TabulationAudit:
        """Compare the tabulation with the primary's actual history."""
        timeline = self.cm.scenario.trace.timeline(self.src_ref)
        true_values = [
            v for v in timeline.distinct_values() if v is not MISSING
        ]
        missing = [v for v in true_values if v not in self.observed]
        spurious = [v for v in self.observed if v not in true_values]
        return TabulationAudit(
            values_tabulated=len(self.observed),
            true_values=len(true_values),
            missing_values=missing,
            spurious_values=spurious,
        )
