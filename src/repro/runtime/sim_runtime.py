"""SimRuntime: the discrete-event kernel behind the Runtime seam.

This is a thin adapter — deliberately so.  The simulator and simulated
network are unchanged; they are simply *constructed here* instead of
inline in ``Scenario.__post_init__``, which is what lets a scenario swap
in the wire runtime with one parameter.  The sim kernel remains the
executable specification of the paper's semantics: deterministic, totally
ordered, and the reference the equivalence harness
(``tests/runtime/equivalence.py``) compares the wire runtime against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.timebase import Ticks
from repro.sim.network import Network
from repro.sim.scheduler import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cm.manager import Scenario


class SimRuntime:
    """The deterministic discrete-event runtime (the default)."""

    name = "sim"

    def build(self, scenario: "Scenario") -> tuple[Simulator, Network]:
        """Construct the simulator clock and the simulated network."""
        sim = Simulator()
        network = Network(
            sim,
            rng_registry=scenario.rngs,
            default_latency=scenario.default_latency,
            failure_plan=scenario.failure_plan,
            in_order=scenario.in_order,
            obs=scenario.obs,
        )
        return sim, network

    def run(self, scenario: "Scenario", until: Ticks) -> None:
        """Advance the simulation to the horizon."""
        scenario.sim.run(until=until)

    def shutdown(self, scenario: "Scenario") -> None:
        """Nothing to release: the sim kernel holds no real resources."""
