"""The Runtime seam: one place where "how does time pass and how do
messages move" is decided.

Before this package existed, three concerns were entangled across
:mod:`repro.cm.shell`, :mod:`repro.sim.process`, and the experiments
runner: shell dispatch assumed the :class:`~repro.sim.scheduler.Simulator`
clock, network delivery assumed :class:`~repro.sim.network.Network`, and
every experiment hard-wired simulated time.  The :class:`Runtime` protocol
factors that into a single constructor-injected seam:

- :class:`~repro.runtime.sim_runtime.SimRuntime` — the existing
  deterministic discrete-event kernel, unchanged in behaviour.  It remains
  the *executable specification*: every ordering property the paper's
  Appendix A requires is exactly enforced there.
- :class:`~repro.runtime.async_runtime.AsyncRuntime` — the same
  :class:`~repro.sim.network.Network` delivery policy on a scaled
  wall clock, with a socket hop between each delivery timer and the
  kernel's delivery code: one asyncio-served loopback endpoint per
  CM-Shell, length-prefixed JSON-RPC framing, sequence numbers and a
  resequencer per channel, and injectable dup/reorder socket faults.

Scenarios select a runtime with one parameter::

    Scenario(seed=3)                          # sim (default)
    Scenario(seed=3, runtime="async")         # wire runtime, defaults
    Scenario(seed=3, runtime=AsyncRuntime(time_scale=200.0))

and everything downstream — shells, translators, workloads, ``verify()``
— is agnostic: they talk to ``scenario.sim`` (a :class:`Clock`) and
``scenario.network`` (a :class:`~repro.sim.network.Network`, or its wire
subclass), whichever runtime provided them.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, Union, runtime_checkable

from repro.core.timebase import Ticks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cm.manager import Scenario
    from repro.sim.network import Network


@runtime_checkable
class Clock(Protocol):
    """What shells, translators, and workloads need from "time".

    The :class:`~repro.sim.scheduler.Simulator` satisfies this natively;
    the wire runtime's :class:`~repro.runtime.clock.WallClock` implements
    it over an asyncio loop with a virtual-time scale factor.
    """

    @property
    def now(self) -> Ticks:
        """Current virtual time in ticks.  Only read through the protocol,
        so a plain attribute satisfies it (the simulator's is one)."""
        ...

    @property
    def now_seconds(self) -> float: ...

    def at(self, time: Ticks, callback: Callable[[], None]) -> Any: ...

    def after(self, delay: Ticks, callback: Callable[[], None]) -> Any: ...

    def stop(self) -> None: ...


class Runtime(Protocol):
    """One execution substrate for a :class:`~repro.cm.manager.Scenario`.

    A runtime instance is bound to exactly one scenario: ``build`` is
    called from ``Scenario.__post_init__`` and returns the (clock,
    network) pair everything else is wired against; ``run`` advances the
    scenario to a virtual-time horizon; ``shutdown`` releases any real
    resources (sockets, tasks).  Pass a fresh instance — or a name/factory
    — per scenario.
    """

    name: str

    def build(self, scenario: "Scenario") -> tuple[Clock, Network]: ...

    def run(self, scenario: "Scenario", until: Ticks) -> None: ...

    def shutdown(self, scenario: "Scenario") -> None: ...


#: What ``Scenario(runtime=...)`` accepts: a registered name, a runtime
#: instance, or a zero-argument factory producing one.
RuntimeSpec = Union[str, Runtime, Callable[[], Runtime]]


def _sim_factory() -> Runtime:
    from repro.runtime.sim_runtime import SimRuntime

    return SimRuntime()


def _async_factory() -> Runtime:
    from repro.runtime.async_runtime import AsyncRuntime

    return AsyncRuntime()


RUNTIMES: dict[str, Callable[[], Runtime]] = {
    "sim": _sim_factory,
    "async": _async_factory,
    # "wire" reads better in prose; accept it as an alias for "async".
    "wire": _async_factory,
}


def resolve_runtime(spec: RuntimeSpec) -> Runtime:
    """Turn a :data:`RuntimeSpec` into a fresh, unbound runtime instance."""
    if isinstance(spec, str):
        factory = RUNTIMES.get(spec)
        if factory is None:
            raise ValueError(
                f"unknown runtime {spec!r} (have: {', '.join(sorted(RUNTIMES))})"
            )
        return factory()
    if callable(spec) and not hasattr(spec, "build"):
        return spec()  # a factory
    return spec  # already a Runtime


@dataclass(frozen=True)
class RunConfig:
    """The uniform experiment-run configuration (one per invocation).

    Every ``repro.experiments.e*.run`` accepts a ``RunConfig`` as its
    first argument; the CLI builds one from ``--runtime`` /
    ``--time-scale`` and threads it through the runner.

    - ``runtime`` — a :data:`RuntimeSpec` *name* ("sim"/"async") that each
      scenario resolves to a fresh instance (a single experiment may build
      several scenarios).
    - ``seed`` — overrides the experiment's default seed when not None.
    - ``scale`` — multiplies the experiment's primary size knobs
      (workload sizes, sweep counts); 1.0 reproduces the paper-scale run.
    - ``time_scale`` — virtual seconds per wall second for the async
      runtime (ignored by the sim kernel).  The conservative default (20)
      keeps the scenarios' timing bounds well clear of wall-clock jitter
      even for the heaviest experiment sweeps; light scenarios tolerate
      much higher scales.
    - ``faults`` — socket-level fault plan for the async runtime.
    - ``options`` — experiment-specific keyword overrides, applied on top
      of the experiment's own defaults.
    """

    runtime: RuntimeSpec = "sim"
    seed: int | None = None
    scale: float = 1.0
    time_scale: float = 20.0
    faults: Any | None = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def runtime_spec(self) -> RuntimeSpec:
        """The per-scenario runtime spec (a factory for named runtimes).

        Named specs become factories parameterized by this config's
        ``time_scale``/``faults`` so each scenario gets its own instance.
        """
        spec = self.runtime
        if isinstance(spec, str) and spec in ("async", "wire"):
            time_scale = self.time_scale
            faults = self.faults

            def factory() -> Runtime:
                from repro.runtime.async_runtime import AsyncRuntime

                return AsyncRuntime(time_scale=time_scale, faults=faults)

            return factory
        return spec

    def resolve_seed(self, default: int) -> int:
        """This run's seed: the config's override or the experiment default."""
        return default if self.seed is None else self.seed

    def scaled(self, value: int, minimum: int = 1) -> int:
        """An integer size knob scaled by ``scale`` (never below ``minimum``)."""
        return max(minimum, round(value * self.scale))


def resolve_config(config: "RunConfig | None") -> RunConfig:
    """The experiments' one-liner: default config when none was passed."""
    return config if config is not None else RunConfig()
