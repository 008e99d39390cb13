"""The ConstraintManager façade and the Scenario infrastructure bundle.

This is the operator-facing surface of the toolkit (Section 4 of the paper):

1. build a :class:`Scenario` (simulator, network, trace, failure plan);
2. :meth:`ConstraintManager.add_site` for each participating site;
3. :meth:`ConstraintManager.add_source` to attach each raw source via its
   CM-RID-configured translator — this registers the source's item families
   at the site;
4. :meth:`ConstraintManager.declare` each inter-site constraint;
5. :meth:`ConstraintManager.suggest` to survey interfaces and get the
   applicable strategies with their proven guarantees, then
   :meth:`ConstraintManager.install` one of them — the manager distributes
   rules to shells by LHS site, starts timers, sets up notify hooks,
   allocates shell-private items, and registers the guarantees with the
   status board;
6. run the simulation; afterwards, :meth:`ConstraintManager.check_guarantees`
   evaluates every issued guarantee against the recorded trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional

from repro.constraints import Constraint, InequalityConstraint
from repro.core.catalog import Suggestion, SuggestionContext, suggest
from repro.core.errors import ConfigurationError
from repro.core.events import Event, EventKind, reset_event_sequence
from repro.core.guarantees import Guarantee, GuaranteeReport
from repro.core.interfaces import InterfaceKind, InterfaceSet
from repro.core.items import MISSING, DataItemRef, Locations, Value
from repro.core.rules import Rule
from repro.core.strategies import StrategySpec
from repro.core.terms import FAMILY_WILDCARD
from repro.core.timebase import Ticks
from repro.core.trace import ExecutionTrace
from repro.cm.guarantee_status import GuaranteeStatusBoard
from repro.cm.rid import CMRID
from repro.cm.shell import CMShell
from repro.cm.translator import CMTranslator, ServiceModel
from repro.cm.translators import translator_for
from repro.obs import Instrumentation
from repro.obs.report import RunReport, build_run_report
from repro.ris.base import RawInformationSource
from repro.runtime.api import Clock, Runtime, RuntimeSpec, resolve_runtime
from repro.sim.failures import FailurePlan
from repro.sim.network import LatencyModel, Network
from repro.sim.rng import RngRegistry

@dataclass
class Scenario:
    """The world one experiment runs in — simulated or over the wire.

    ``runtime`` selects the execution substrate (:mod:`repro.runtime`):
    ``"sim"`` (default) is the deterministic discrete-event kernel,
    ``"async"`` runs shells on asyncio loop callbacks over real loopback
    sockets.
    ``sim`` and ``network`` keep their historical names and surfaces —
    whichever runtime is active, ``sim`` satisfies the :class:`Clock`
    protocol and ``network`` is a :class:`~repro.sim.network.Network` (the
    wire's is the same class plus a socket hop).
    """

    seed: int = 0
    default_latency: Optional[LatencyModel] = None
    failure_plan: FailurePlan = field(default_factory=FailurePlan)
    in_order: bool = True
    runtime: RuntimeSpec = "sim"
    sim: Clock = field(init=False)
    rngs: RngRegistry = field(init=False)
    network: Network = field(init=False)
    trace: ExecutionTrace = field(init=False)
    #: The scenario-wide observability bundle (metrics registry, span
    #: tracer, flight recorder).  Shells, the network, and translators all
    #: share it.
    obs: Instrumentation = field(init=False)
    #: The resolved runtime instance bound to this scenario.
    runtime_impl: Runtime = field(init=False)

    def __post_init__(self) -> None:
        reset_event_sequence()
        if self.failure_plan is None:  # tolerate explicit None
            self.failure_plan = FailurePlan()
        self.rngs = RngRegistry(self.seed)
        self.obs = Instrumentation()
        self.runtime_impl = resolve_runtime(self.runtime)
        self.sim, self.network = self.runtime_impl.build(self)
        self.trace = ExecutionTrace()

    def run(self, until: Ticks) -> None:
        """Advance the scenario and close the trace at the horizon."""
        self.runtime_impl.run(self, until)
        self.trace.close(until)

    def shutdown(self) -> None:
        """Release runtime resources (sockets, tasks); sim is a no-op."""
        self.runtime_impl.shutdown(self)


@dataclass
class InstalledConstraint:
    """What :meth:`ConstraintManager.install` hands back: the running
    strategy and the guarantees the toolkit now stands behind."""

    constraint: Constraint
    strategy: StrategySpec
    guarantees: tuple[Guarantee, ...]
    native_protocol: Any = None


class ConstraintManager:
    """The distributed CM: all shells plus global bookkeeping."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.locations = Locations()
        self.shells: dict[str, CMShell] = {}
        self.board = GuaranteeStatusBoard()
        self.constraints: list[Constraint] = []
        self.installed: list[InstalledConstraint] = []

    # -- topology ------------------------------------------------------------

    def add_site(self, name: str) -> CMShell:
        """Create the CM-Shell for a site."""
        if name in self.shells:
            raise ConfigurationError(f"site {name!r} already exists")
        shell = CMShell(
            site=name,
            sim=self.scenario.sim,
            network=self.scenario.network,
            trace=self.scenario.trace,
            failure_plan=self.scenario.failure_plan,
            rngs=self.scenario.rngs,
            obs=self.scenario.obs,
        )
        shell.on_failure.append(self.board.on_notice)
        self.shells[name] = shell
        for other in self.shells.values():
            other.peers = [s for s in self.shells if s != other.site]
        return shell

    def shell(self, site: str) -> CMShell:
        """The CM-Shell at a site; raises for unknown sites."""
        if site not in self.shells:
            raise ConfigurationError(f"unknown site: {site!r}")
        return self.shells[site]

    def add_source(
        self,
        site: str,
        source: RawInformationSource,
        rid: CMRID,
        service: ServiceModel | None = None,
        seed_existing: bool = True,
    ) -> CMTranslator:
        """Attach a raw source at a site via its standard translator.

        A site hosting a source without its own CM-Shell (Figure 1's Site 3)
        is modelled by registering the source at the shell acting on its
        behalf — pass that shell's site here.

        With ``seed_existing`` (the default), the current values of every
        bound item instance are snapshotted into the execution trace as the
        time-0 state: the databases pre-exist the constraint manager, and
        guarantees are stated relative to what they held when management
        began.  Disable it only when a scenario loads all data through
        ``spontaneous_write`` after setup.
        """
        translator = translator_for(source, rid, service)
        self.add_translator(site, translator)
        if seed_existing:
            for family in translator.families():
                for ref in translator._native_enumerate(family):
                    value = translator._native_read(ref)
                    if value is not MISSING:
                        self.scenario.trace.seed(ref, value)
        return translator

    def add_translator(self, site: str, translator: CMTranslator) -> None:
        """Attach a translator at a site and register its item families
        there.  :meth:`add_source` builds the standard translator for a
        source and calls this; a hand-built translator (a custom source)
        is attached with it directly."""
        self.shell(site).add_translator(translator)
        for family in translator.families():
            self.locations.register(family, site)

    # -- survey and declaration (Section 4.1 initialization) --------------------

    def interfaces(self) -> InterfaceSet:
        """The merged interface survey across all translators."""
        merged = InterfaceSet()
        for shell in self.shells.values():
            seen: set[int] = set()
            for translator in shell.translators.values():
                if id(translator) in seen:
                    continue
                seen.add(id(translator))
                for spec in translator.offered_interfaces().specs:
                    merged.add(spec)
        return merged

    def declare(self, constraint: Constraint) -> Constraint:
        """Register a constraint the applications care about."""
        self.constraints.append(constraint)
        return constraint

    def suggest(self, constraint: Constraint, **options: Any) -> list[Suggestion]:
        """Applicable proven strategies with their guarantees."""
        context = SuggestionContext(
            interfaces=self.interfaces(),
            locations=self.locations,
            options=options,
        )
        return suggest(constraint, context)

    # -- installation --------------------------------------------------------------

    def install(
        self,
        constraint: Constraint,
        suggestion: Suggestion,
        **native_options: Any,
    ) -> InstalledConstraint:
        """Install a suggested strategy; returns the standing guarantees."""
        strategy = suggestion.strategy
        native_protocol = None
        if strategy.executor == "native":
            native_protocol = self._install_native(
                constraint, strategy, native_options
            )
        else:
            strategy = self._install_rules(strategy)
        sites = constraint.sites(self.locations)
        for family, site in strategy.private_families:
            sites.add(site)
        for guarantee in suggestion.guarantees:
            self.board.register(guarantee, sites)
        installed = InstalledConstraint(
            constraint, strategy, suggestion.guarantees, native_protocol
        )
        self.installed.append(installed)
        return installed

    def install_rule(
        self,
        site: str,
        rule: Rule,
        rhs_site: Optional[str] = None,
        *,
        phase: Optional[Ticks] = None,
    ) -> Rule:
        """Install one hand-written strategy rule whose LHS runs at ``site``.

        The rule is placed exactly as a catalog strategy's rules are
        (:meth:`_place`): surveyed, routed to the site of its RHS families
        (or ``rhs_site``), registered at that shell when it differs, and
        hooked to its notify interface.  ``phase`` is the tick-of-day of a
        periodic rule's first firing.  Returns the rule as installed.
        """
        phases = {} if phase is None else {rule.name: phase}
        (placed,) = self._place((rule,), site=site, rhs_site=rhs_site, phases=phases)
        return placed

    def _install_rules(self, strategy: StrategySpec) -> StrategySpec:
        """Install a strategy's rules at their shells; returns the strategy
        with its rules as :meth:`_place` installed them."""
        for family, site in strategy.private_families:
            if not site:
                raise ConfigurationError(
                    f"strategy {strategy.name!r}: private family {family!r} "
                    f"has no site (pass dst_site when building the strategy)"
                )
            self.locations.register(family, site)
        placed = self._place(
            strategy.rules,
            {family for family, __ in strategy.private_families},
            phases=strategy.timer_phases,
        )
        return replace(strategy, rules=placed)

    def _place(
        self,
        rules: Iterable[Rule],
        private: Iterable[str] = (),
        *,
        site: Optional[str] = None,
        rhs_site: Optional[str] = None,
        phases: Optional[dict[str, Ticks]] = None,
    ) -> tuple[Rule, ...]:
        """The one placement routine: every rule the toolkit runs is
        installed here, from a catalog strategy or :meth:`install_rule`.

        Nothing is indexed until every rule has passed the interface survey
        (:meth:`_validate_rule_requirements`) and been routed: its RHS runs
        at ``rhs_site`` or at the one registered site of its RHS families
        (an RHS spanning sites, or naming an unregistered family, raises);
        its LHS runs at ``site`` or at its LHS family's site.  A periodic
        rule that left its ``lhs_site`` open is pinned to the shell running
        its timer (``site``, else its RHS site), so the trace validator
        holds it to that site's ``P`` events only.  Each rule is then
        installed at its LHS shell, registered at a different RHS shell (so
        a by-value firing resolves there) and, when notify-triggered, arms
        its translator's notify hook.  Returns the rules as installed.
        """
        rules = tuple(rules)
        self._validate_rule_requirements(rules, set(private))
        routes = []
        for rule in rules:
            target = rhs_site or rule.resolve_rhs_site(self.locations)
            if rule.lhs.kind is EventKind.PERIODIC and rule.lhs_site is None:
                rule = replace(rule, lhs_site=site or target)
            lhs_site = site or rule.resolve_lhs_site(self.locations)
            if rule.lhs_site not in (None, lhs_site):
                raise ConfigurationError(
                    f"rule {rule.name!r} runs at {rule.lhs_site!r}, "
                    f"not {lhs_site!r}"
                )
            hook = None
            if rule.lhs.kind is EventKind.NOTIFY:
                hook = self.shell(lhs_site).translator_for(rule.lhs.item_family)
            routes.append((rule, lhs_site, target, hook))
        phases = phases or {}
        for rule, lhs_site, target, hook in routes:
            self.shell(lhs_site).install(rule, target, phase=phases.get(rule.name))
            if target is not None and target != lhs_site:
                self.shell(target).register_remote_rule(rule)
            if hook is not None:
                hook.setup_notify(rule.lhs.item_family)
        return tuple(rule for rule, __, ___, ____ in routes)

    def _validate_rule_requirements(
        self, rules: Iterable[Rule], private: set[str]
    ) -> None:
        """The interface survey: fail before any rule is indexed when one
        needs an interface its source does not offer.

        A WR (write request) to a family requires its source to offer a
        write interface; an RR a read interface; a notify-triggered LHS a
        (conditional/periodic) notify interface; and a W (direct write) may
        not target a family a translator backs, since database items need a
        WR.  This is the paper's configuration-time interface survey: a rule
        that does not fit the offered interfaces never starts running.
        Families in ``private`` are shell-private to the rules' strategy
        and need no interface.
        """
        interfaces = self.interfaces()
        backed = {
            family
            for shell in self.shells.values()
            for family in shell.translators
        }
        for rule in rules:
            needs: list[tuple[str, InterfaceKind]] = []
            if rule.lhs.kind is EventKind.NOTIFY and rule.lhs.item_family:
                needs.append((rule.lhs.item_family, InterfaceKind.NOTIFY))
            for step in rule.steps:
                family = step.template.item_family
                kind = step.template.kind
                if family is None:
                    continue
                if kind is EventKind.WRITE_REQUEST:
                    needs.append((family, InterfaceKind.WRITE))
                elif kind is EventKind.READ_REQUEST:
                    needs.append((family, InterfaceKind.READ))
                elif kind is EventKind.WRITE and family in backed:
                    raise ConfigurationError(
                        f"rule {rule.name!r} writes W({family}) directly, "
                        f"but {family!r} is a database family; emit a WR "
                        f"(write request) instead"
                    )
            for family, kind in needs:
                if family in private or family == FAMILY_WILDCARD:
                    continue
                if not self.locations.known(family):
                    raise ConfigurationError(
                        f"rule {rule.name!r} references family {family!r} "
                        f"({kind.value} interface needed), but no source is "
                        f"registered for it; add the source with "
                        f"cm.add_source(...) before installing the rule"
                    )
                if kind is InterfaceKind.NOTIFY:
                    satisfied = any(
                        interfaces.has(family, k)
                        for k in (
                            InterfaceKind.NOTIFY,
                            InterfaceKind.CONDITIONAL_NOTIFY,
                            InterfaceKind.PERIODIC_NOTIFY,
                        )
                    )
                else:
                    satisfied = interfaces.has(family, kind)
                if not satisfied:
                    raise ConfigurationError(
                        f"rule {rule.name!r} needs a {kind.value} interface "
                        f"for {family!r}, but none is offered"
                    )

    def _install_native(
        self,
        constraint: Constraint,
        strategy: StrategySpec,
        options: dict[str, Any],
    ) -> Any:
        if strategy.kind == "demarcation":
            from repro.protocols.demarcation import DemarcationProtocol

            if not isinstance(constraint, InequalityConstraint):
                raise ConfigurationError(
                    "the demarcation strategy manages inequality constraints"
                )
            x_ref = DataItemRef(constraint.x_family)
            y_ref = DataItemRef(constraint.y_family)
            x_site = self.locations.site_of(constraint.x_family)
            y_site = self.locations.site_of(constraint.y_family)
            return DemarcationProtocol(
                self.shell(x_site),
                self.shell(y_site),
                x_ref,
                y_ref,
                policy=strategy.metadata["policy"],
                **options,
            )
        if strategy.native_factory is not None:
            return strategy.native_factory(self, constraint, **options)
        raise ConfigurationError(
            f"native strategy {strategy.name!r} has no factory"
        )

    # -- workload entry points ---------------------------------------------------------

    def spontaneous_write(
        self, family: str, args: tuple, value: Value
    ) -> Event:
        """A local application updates an item (records Ws, fires hooks)."""
        site = self.locations.site_of(family)
        shell = self.shell(site)
        ref = DataItemRef(family, args)
        return shell.translator_for(family).apply_spontaneous_write(ref, value)

    def spontaneous_delete(self, family: str, args: tuple) -> Event:
        """A local application deletes an item."""
        site = self.locations.site_of(family)
        shell = self.shell(site)
        ref = DataItemRef(family, args)
        return shell.translator_for(family).apply_spontaneous_delete(ref)

    # -- post-run evaluation ------------------------------------------------------------

    def run(self, until: Ticks) -> None:
        """Advance the scenario (convenience passthrough)."""
        self.scenario.run(until)

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-site dispatch counters plus a ``"total"`` aggregate.

        Each site's entry is its shell's :meth:`CMShell.stats` dict
        (``rules_installed``, ``events_processed``, ``candidates_considered``,
        ``rules_fired``); ``candidates_considered`` vs.
        ``rules_installed * events_processed`` quantifies what indexed
        dispatch pruned away relative to a linear scan.  ``"total"`` sums
        each key the shells report.
        """
        per_site = {site: shell.stats() for site, shell in self.shells.items()}
        total: dict[str, int] = {}
        for counters in per_site.values():
            for key, value in counters.items():
                total[key] = total.get(key, 0) + value
        per_site["total"] = total
        return per_site

    def run_report(self) -> RunReport:
        """The structured end-of-run report (see :mod:`repro.obs.report`).

        Per-constraint firing counts, propagation-latency histograms,
        network channel statistics, translator RISI op counts, failure
        classifications, and per-guarantee staleness — everything the perf
        trajectory compares across runs.
        """
        return build_run_report(self)

    def check_guarantees(self) -> dict[str, GuaranteeReport]:
        """Evaluate every issued guarantee against the recorded trace."""
        reports: dict[str, GuaranteeReport] = {}
        for installed in self.installed:
            for guarantee in installed.guarantees:
                reports[guarantee.name] = guarantee.check(self.scenario.trace)
        return reports

    def stop(self) -> None:
        """Stop all shell timers (end of scenario)."""
        for shell in self.shells.values():
            shell.stop_timers()
