"""The runtime package: one seam, two execution substrates.

``Scenario(runtime="sim")`` (the default) runs on the deterministic
discrete-event kernel, the executable specification;
``Scenario(runtime="async")`` (alias ``"wire"``) runs every CM-Shell
on asyncio loop callbacks behind real loopback sockets with length-prefixed
JSON-RPC framing, wall-clock timers, and injectable dup/reorder socket
faults — over the same :class:`~repro.sim.network.Network` delivery policy.
See :mod:`repro.runtime.api` for the seam; the harness that holds the wire
runtime to the sim kernel's guarantees is ``tests/runtime/equivalence.py``.
"""

from repro.runtime.api import (
    RUNTIMES,
    Clock,
    RunConfig,
    Runtime,
    RuntimeSpec,
    resolve_config,
    resolve_runtime,
)
from repro.runtime.async_runtime import AsyncRuntime, WireRuntimeError
from repro.runtime.channels import ChannelFaults, WireFaultPlan
from repro.runtime.clock import WallClock
from repro.runtime.gateway import Gateway, WireNetwork
from repro.runtime.sim_runtime import SimRuntime

__all__ = [
    "AsyncRuntime",
    "ChannelFaults",
    "Clock",
    "Gateway",
    "RUNTIMES",
    "RunConfig",
    "Runtime",
    "RuntimeSpec",
    "SimRuntime",
    "WallClock",
    "WireFaultPlan",
    "WireNetwork",
    "WireRuntimeError",
    "resolve_config",
    "resolve_runtime",
]
