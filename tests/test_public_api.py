"""Snapshot of the package's public surface.

``repro.__all__`` is the contract scenario authors import against; this
test pins it so that additions are deliberate (update the snapshot here)
and removals are loud.  Every listed name must also resolve to a real
attribute — a stale re-export fails at import, not at a user's site.
"""

import repro

EXPECTED_ALL = [
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


def test_all_matches_snapshot():
    assert list(repro.__all__) == EXPECTED_ALL


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_runtime_surface_is_usable():
    # The runtime seam's key types come straight off the package root.
    config = repro.RunConfig(runtime="sim", seed=7)
    assert config.resolve_seed(0) == 7
    runtime = repro.resolve_runtime(config.runtime_spec())
    assert runtime.name == "sim"
    assert isinstance(runtime, repro.SimRuntime)
    assert repro.resolve_runtime("async").name == "async"
    faults = repro.ChannelFaults(dup=0.1)
    assert repro.WireFaultPlan(default=faults).for_channel("a", "b").dup == 0.1
