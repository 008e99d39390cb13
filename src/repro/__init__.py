"""repro — a reproduction of *A Toolkit for Constraint Management in
Heterogeneous Information Systems* (Chawathe, Garcia-Molina, Widom;
ICDE 1996).

The package provides:

- :mod:`repro.core` — the formal framework: events, rules (interfaces and
  strategies), guarantees, execution traces, and trace-based checkers.
- :mod:`repro.sim` — the deterministic discrete-event substrate standing in
  for the paper's real network and wall clock.
- :mod:`repro.runtime` — the runtime seam: the :class:`Runtime` protocol
  with a sim-kernel implementation and a wire implementation that runs
  CM-Shells on asyncio loop callbacks over real sockets (length-prefixed
  JSON-RPC).
- :mod:`repro.ris` — from-scratch heterogeneous information sources
  (relational DBMS, flat-file store, object store, bibliographic server,
  whois directory, flaky legacy system).
- :mod:`repro.cm` — the toolkit itself: CM-Shells, CM-Translators, CM-RID
  configuration, and the :class:`~repro.cm.manager.ConstraintManager` façade.
- :mod:`repro.constraints`, :mod:`repro.protocols` — constraint types and
  the Demarcation Protocol.
- :mod:`repro.obs` — the instrumentation subsystem: metrics registry,
  causal firing traces, the flight recorder, and the end-of-run report.
- :mod:`repro.workloads`, :mod:`repro.apps`, :mod:`repro.experiments` —
  scenario generators, guarantee-consuming applications, and the
  experiment harness reproducing the paper's claims.

The stable public surface is re-exported here, so scenarios need only::

    from repro import (
        CMRID, ConstraintManager, Scenario, CopyConstraint,
        InterfaceKind, follows, parse_rule, seconds,
    )

Quickstart: see ``examples/quickstart.py`` or the README.
"""

from repro.cm import (
    CMRID,
    CMShell,
    CMTranslator,
    ConstraintManager,
    InstalledConstraint,
    Scenario,
    ServiceModel,
    verify,
)
from repro.constraints import (
    ArithmeticConstraint,
    CopyConstraint,
    InequalityConstraint,
    ReferentialConstraint,
)
from repro.core.dsl import parse_condition, parse_rule, parse_rules
from repro.core.guarantees import follows, leads
from repro.core.interfaces import InterfaceKind
from repro.core.items import MISSING, DataItemRef
from repro.core.timebase import days, hours, seconds, to_seconds
from repro.runtime import AsyncRuntime, RunConfig
from repro.sim.scheduler import Simulator

#: Only names an experiment, a ``benchmarks/`` script, an example or the
#: CLI imports from here; everything else is imported from its module.
#: ``tests/test_public_api.py`` holds the list to that.
__all__ = [
    # toolkit façade and wiring
    "ConstraintManager",
    "Scenario",
    "InstalledConstraint",
    "CMRID",
    "CMShell",
    "CMTranslator",
    "ServiceModel",
    "verify",
    # constraints
    "CopyConstraint",
    "InequalityConstraint",
    "ReferentialConstraint",
    "ArithmeticConstraint",
    # rule / guarantee languages
    "parse_rule",
    "parse_rules",
    "parse_condition",
    # guarantee checkers
    "follows",
    "leads",
    # runtimes (sim kernel and wire/asyncio)
    "AsyncRuntime",
    "RunConfig",
    # substrate
    "Simulator",
    "InterfaceKind",
    "MISSING",
    "DataItemRef",
    "seconds",
    "hours",
    "days",
    "to_seconds",
]

__version__ = "1.3.0"
