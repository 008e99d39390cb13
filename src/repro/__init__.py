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
  CM-Shells as asyncio tasks over real sockets (length-prefixed JSON-RPC).
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
    ConstraintBuilder,
    ConstraintManager,
    FailureNotice,
    GuaranteeStatusBoard,
    InstalledConstraint,
    Scenario,
    ServiceModel,
    SiteBuilder,
    verify,
)
from repro.constraints import (
    ArithmeticConstraint,
    Constraint,
    CopyConstraint,
    InequalityConstraint,
    ReferentialConstraint,
)
from repro.core.dsl import (
    parse_condition,
    parse_event_template,
    parse_rule,
    parse_rules,
)
from repro.core.formula import FormulaChecker
from repro.core.guarantee_dsl import parse_guarantee
from repro.core.guarantees import (
    Guarantee,
    GuaranteeReport,
    follows,
    invariant,
    leads,
    monitor_window,
    periodic,
    referential_within,
    strictly_follows,
)
from repro.core.interfaces import InterfaceKind
from repro.core.items import MISSING, DataItemRef
from repro.core.timebase import days, hours, minutes, seconds, to_seconds
from repro.obs import (
    FlightRecorder,
    Instrumentation,
    MetricsRegistry,
    RunReport,
    SpanContext,
    SpanTree,
    Tracer,
)
from repro.runtime import (
    AsyncRuntime,
    ChannelFaults,
    RunConfig,
    Runtime,
    SimRuntime,
    WireFaultPlan,
    resolve_runtime,
    run_equivalence,
)
from repro.sim.scheduler import Simulator

#: Alias for readers who know the class by the paper's component name.
CMManager = ConstraintManager

__all__ = [
    # toolkit façade and wiring
    "ConstraintManager",
    "CMManager",
    "Scenario",
    "SiteBuilder",
    "ConstraintBuilder",
    "InstalledConstraint",
    "CMRID",
    "CMShell",
    "CMTranslator",
    "ServiceModel",
    "FailureNotice",
    "GuaranteeStatusBoard",
    "verify",
    # constraints
    "Constraint",
    "CopyConstraint",
    "InequalityConstraint",
    "ReferentialConstraint",
    "ArithmeticConstraint",
    # rule / guarantee languages
    "parse_rule",
    "parse_rules",
    "parse_condition",
    "parse_event_template",
    "parse_guarantee",
    "FormulaChecker",
    # guarantee checkers
    "Guarantee",
    "GuaranteeReport",
    "follows",
    "leads",
    "strictly_follows",
    "invariant",
    "periodic",
    "referential_within",
    "monitor_window",
    # observability
    "Instrumentation",
    "MetricsRegistry",
    "Tracer",
    "SpanTree",
    "SpanContext",
    "FlightRecorder",
    "RunReport",
    # runtimes (sim kernel and wire/asyncio)
    "Runtime",
    "SimRuntime",
    "AsyncRuntime",
    "RunConfig",
    "ChannelFaults",
    "WireFaultPlan",
    "resolve_runtime",
    "run_equivalence",
    # substrate
    "Simulator",
    "InterfaceKind",
    "MISSING",
    "DataItemRef",
    "seconds",
    "minutes",
    "hours",
    "days",
    "to_seconds",
]

__version__ = "1.3.0"
