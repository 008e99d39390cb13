"""CM-Shell: the per-site rule engine of the toolkit (Section 4.1).

Each shell:

- receives events from its local CM-Translators (notifications, read
  responses) and from its periodic timers;
- matches them against the strategy rules whose *left-hand side* is at this
  site (rule distribution, Section 4.1);
- evaluates LHS conditions (with binder equalities) over its private store;
- executes right-hand sides locally, or forwards a fire message to the shell
  owning the RHS site — message transport is the simulated network, whose
  per-channel FIFO provides the in-order processing Appendix A property 7
  requires;
- emits RHS events: ``WR``/``RR`` go to the owning translator, ``W`` on
  shell-private items goes to the local store;
- relays failure notices from its translators to its peers and to any
  registered listeners (the manager's guarantee-status board).

Rule dispatch is *indexed*: :meth:`CMShell.install` keys each rule by its
LHS ``(EventKind, family)`` discriminator in a
:class:`~repro.cm.dispatch.RuleIndex`, so processing an event consults only
the candidate bucket (plus the kind's catch-all bucket for family-variable
templates) instead of scanning every installed rule.  The per-shell counters
``events_processed`` / ``candidates_considered`` / ``rules_fired`` —
surfaced by :meth:`CMShell.stats` — make the pruning observable: a linear
scan would consider ``len(rules)`` candidates per event.  Since PR 2 those
counters live in the scenario's :mod:`repro.obs` metrics registry, and when
tracing is enabled every processed event opens a causal span, so a
cross-site firing chain (``Ws`` → ``N`` → rule fire → network →
``WR``/``W``) is queryable as one trace tree.

A documented extension beyond the paper's examples: a read-request template
with unbound parameters (e.g. ``RR(salary1(n))`` fired by a poll timer) is
executed as an *enumerating read* over all current instances of the family,
which is how parameterized polling and end-of-day scans work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.compile import CompiledRule, compile_rule
from repro.core.conditions import evaluate, evaluate_value
from repro.core.errors import (
    BindingError,
    CompileError,
    ConfigurationError,
    SpecError,
)
from repro.core.events import Event, EventKind, periodic_desc
from repro.core.rules import Rule
from repro.core.terms import Bindings, Const, ground_item
from repro.cm.dispatch import InstalledRule, RuleIndex
from repro.core.timebase import DAY, Ticks
from repro.core.trace import ExecutionTrace
from repro.cm.failures import FailureNotice
from repro.cm.store import ShellStore
from repro.cm.translator import CMTranslator
from repro.obs import Instrumentation
from repro.runtime.api import Clock
from repro.runtime.codec import WireFiring
from repro.sim.failures import FailurePlan
from repro.sim.network import Message, Network
from repro.sim.process import PeriodicTimer
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class FireMessage:
    """Cross-site rule firing: 'run this rule's RHS with these bindings'.

    A compiled firing carries the compiled program and its flat binding
    slot tuple (``program``/``slots``); the receiving shell runs the
    program's RHS plan against *its* local store and translators.  An
    interpreted firing carries the classic name/value ``bindings`` pairs.
    """

    rule: Rule
    bindings: tuple[tuple[str, object], ...]
    trigger: Event
    program: object = None
    slots: tuple = ()


class CMShell:
    """One site's constraint-manager shell."""

    def __init__(
        self,
        site: str,
        sim: Clock,
        network: Network,
        trace: ExecutionTrace,
        failure_plan: FailurePlan,
        rngs: RngRegistry,
        obs: Instrumentation | None = None,
    ):
        self.site = site
        self.sim = sim
        self.network = network
        self.trace = trace
        self.failure_plan = failure_plan
        self.rngs = rngs
        self.obs = obs if obs is not None else network.obs
        self.store = ShellStore(site, trace)
        self.translators: dict[str, CMTranslator] = {}
        self._index = RuleIndex()
        self._timers: list[PeriodicTimer] = []
        self.peers: list[str] = []
        self.failure_log: list[FailureNotice] = []
        self.on_failure: list[Callable[[FailureNotice], None]] = []
        # The PR-1 dispatch counters, now metric series in the registry.
        # Hot-path increments go straight at Counter.value, which costs the
        # same as the plain ints they replace; `stats()` and the legacy
        # attribute names read them back.
        metrics = self.obs.metrics
        self._m_events = metrics.counter("shell_events_processed", site=site)
        self._m_candidates = metrics.counter(
            "shell_candidates_considered", site=site
        )
        self._m_fired = metrics.counter("shell_rules_fired", site=site)
        self._m_failures = metrics.counter("shell_failure_notices", site=site)
        self._m_compiled = metrics.counter("shell_rules_compiled", site=site)
        self._m_fallback = metrics.counter("shell_rules_fallback", site=site)
        self._fired_by_rule: dict[str, object] = {}
        self._rules_by_name: dict[str, Rule] = {}
        self._installed_by_name: dict[str, object] = {}
        # Rules whose LHS fires at a *peer* but whose RHS runs here: the
        # receiving half of the by-value firing codec (rule name + slots
        # cross the wire; this side re-compiles its own program).
        self._remote_rules: dict[str, tuple[Rule, Optional[CompiledRule]]] = {}
        self._chain_depth = 0
        self._m_batches = metrics.counter("shell_batches_processed", site=site)
        self._m_batch_events = metrics.counter("shell_batch_events", site=site)
        #: Offset of this site's local clock from true time, in ticks.
        #: Strategy execution never needs clocks (Section 7.2), but rules
        #: that *stamp* local time — the implicit ``now`` variable, as in
        #: the monitor strategy's Tb — read the skewed local clock, letting
        #: experiments quantify the paper's remark that time-referencing
        #: guarantees must absorb clock skew in their margins.
        self.clock_skew: Ticks = 0
        network.register_site(site, self._on_message)

    #: Maximum depth of rule-chained private writes in one causal chain.
    MAX_CHAIN_DEPTH = 16

    # -- wiring --------------------------------------------------------------

    def add_translator(self, translator: CMTranslator) -> None:
        """Attach a translator; its families become locally resolvable."""
        translator.attach(self)
        for family in translator.families():
            existing = self.translators.get(family)
            if existing is not None and existing is not translator:
                raise ConfigurationError(
                    f"family {family!r} already handled by "
                    f"{existing.source.name!r} at site {self.site!r}"
                )
            self.translators[family] = translator

    def translator_for(self, family: str) -> CMTranslator:
        """The translator owning a family at this site; raises if none."""
        translator = self.translators.get(family)
        if translator is None:
            raise ConfigurationError(
                f"site {self.site!r} has no translator for family {family!r}"
            )
        return translator

    #: Default for :meth:`install`'s ``compiled`` flag.  Set the class (or
    #: instance) attribute to ``False`` to force the tree-walking reference
    #: evaluator everywhere — the debugging escape hatch.
    compile_rules = True

    def install(
        self,
        rule: Rule,
        rhs_site: str | None = None,
        *,
        phase: Optional[Ticks] = None,
        compiled: bool | None = None,
        strict: bool = False,
    ) -> None:
        """Install a strategy rule whose LHS is at this site.

        The rule is keyed into the shell's dispatch index by its LHS
        ``(kind, family)`` discriminator and compiled into an executable
        program (:mod:`repro.core.compile`); rules the compiler cannot
        specialize fall back to the tree-walking reference evaluator
        (``stats()['rules_fallback']``), and ``compiled=False`` forces the
        fallback for debugging.  A periodic LHS (``P(p)``) also starts its
        timer here; ``phase`` is then the tick-of-day of the first firing
        (e.g. 17:00 for end-of-day strategies) — without it the timer
        starts at the epoch and fires every period.  ``rhs_site`` defaults
        to this site (local execution).

        With ``strict=True`` the shell lints itself (the single-site
        subset of CM-Lint: interface compliance, variable safety, cycle
        detection) after indexing the rule; any error-severity finding
        rolls the rule back and raises :class:`ConfigurationError`, so a
        strictly-installed shell is always lint-clean.
        """
        existing = self._rules_by_name.get(rule.name)
        if existing is not None and existing != rule:
            raise ConfigurationError(
                f"rule {rule.name!r} is already installed at site "
                f"{self.site!r} with a different definition; rule names key "
                f"firing counters and must be unique per shell"
            )
        if rule.lhs.kind is not EventKind.PERIODIC and phase is not None:
            raise SpecError(
                f"rule {rule.name!r}: phase only applies to periodic rules"
            )
        if compiled is None:
            compiled = self.compile_rules
        installed = self._index.add(rule, rhs_site, compiled=compiled)
        if strict:
            from repro.analysis import lint_shell

            errors = lint_shell(self).errors
            if errors:
                self._index.remove(installed)
                raise ConfigurationError(
                    f"strict install of rule {rule.name!r} at site "
                    f"{self.site!r} rejected by lint:\n  "
                    + "\n  ".join(str(finding) for finding in errors)
                )
        if rule.lhs.kind is EventKind.PERIODIC:
            self._install_timer(rule, phase)
        if installed.program is not None:
            self._m_compiled.value += 1
        elif compiled:
            self._m_fallback.value += 1
        self._rules_by_name[rule.name] = rule
        self._installed_by_name[rule.name] = installed
        if rule.name not in self._fired_by_rule:
            self._fired_by_rule[rule.name] = self.obs.metrics.counter(
                "rule_fired", site=self.site, rule=rule.name
            )

    def register_remote_rule(self, rule: Rule) -> None:
        """Register a rule installed at a peer whose RHS executes here.

        The by-value firing codec ships only the rule *name* plus encoded
        slot values; this registration is the receiving half of the CM-RID
        contract — both sites hold the same rule definition, and this side
        compiles its own program, so an inbound firing resolves and runs
        without referencing any sender memory.  Compilation is
        deterministic, so the sender's slot layout drops straight into the
        local program.
        """
        existing = self._rules_by_name.get(rule.name)
        if existing is not None and existing != rule:
            raise ConfigurationError(
                f"rule {rule.name!r} is already known at site {self.site!r} "
                f"with a different definition; the firing codec resolves "
                f"rules by name, so names must be unique per shell"
            )
        if rule.name in self._remote_rules:
            return
        program: Optional[CompiledRule] = None
        if self.compile_rules:
            try:
                program = compile_rule(rule)
            except CompileError:
                program = None
        self._remote_rules[rule.name] = (rule, program)

    def _resolve_firing(self, firing: WireFiring) -> tuple[Rule, object]:
        """Resolve an inbound by-value firing against local rule knowledge."""
        name = firing.rule_name
        installed = self._installed_by_name.get(name)
        if installed is not None:
            return installed.rule, installed.program
        entry = self._remote_rules.get(name)
        if entry is not None:
            return entry
        raise ConfigurationError(
            f"shell {self.site!r} received a firing for unknown rule "
            f"{name!r}; a cross-site rule must be registered at its RHS "
            f"site (the CM-RID contract the by-value codec relies on)"
        )

    def _install_timer(self, rule: Rule, phase: Optional[Ticks]) -> None:
        """Start the timer driving a ``P(p)``-triggered rule."""
        period_term = rule.lhs.values[0]
        if not isinstance(period_term, Const):
            raise SpecError(
                f"rule {rule.name!r}: periodic template needs a constant period"
            )
        period = int(period_term.value)

        def fire() -> None:
            p_event = self.trace.record(
                self.sim.now, self.site, periodic_desc(period)
            )
            self._process_event(p_event)

        first = None
        if phase is not None:
            # A daily phase: the next occurrence of ``phase`` past midnight.
            now = self.sim.now
            first = (now // DAY) * DAY + phase
            while first <= now:
                first += DAY
        self._timers.append(PeriodicTimer(self.sim, period, fire, first))

    @property
    def rules(self) -> list[Rule]:
        """All installed rules, in installation order."""
        return self._index.rules

    # The PR-1 counter attributes, read-compatibly backed by the registry.

    @property
    def events_processed(self) -> int:
        """Events this shell has dispatched (registry-backed)."""
        return self._m_events.value

    @property
    def candidates_considered(self) -> int:
        """Rules the dispatch index consulted (registry-backed)."""
        return self._m_candidates.value

    @property
    def rules_fired(self) -> int:
        """Rule firings at this shell (registry-backed)."""
        return self._m_fired.value

    def stats(self) -> dict[str, int]:
        """Dispatch counters for this shell.

        ``candidates_considered`` counts rules the index actually consulted;
        a linear scan would have considered
        ``rules_installed * events_processed``.  Since PR 2 these are an
        adapter over the scenario's metrics registry
        (``shell_events_processed{site=...}`` and friends), so the same
        numbers appear in run reports.
        """
        return {
            "rules_installed": len(self._index),
            "rules_compiled": self._m_compiled.value,
            "rules_fallback": self._m_fallback.value,
            "events_processed": self._m_events.value,
            "candidates_considered": self._m_candidates.value,
            "rules_fired": self._m_fired.value,
            # Zero unless events arrived in blocks (deliver_local_events).
            "batches_processed": self._m_batches.value,
            "batch_events": self._m_batch_events.value,
        }

    def stop_timers(self) -> None:
        """Stop all periodic timers, including translator-driven ones."""
        for timer in self._timers:
            timer.stop()
        seen: set[int] = set()
        for translator in self.translators.values():
            if id(translator) not in seen:
                seen.add(id(translator))
                translator.stop_timers()

    # -- event processing -----------------------------------------------------------

    def deliver_local_event(self, event: Event) -> None:
        """Entry point for events from this site's translators: dispatch
        one already-recorded event."""
        self._process_event(event)

    def deliver_local_events(self, events: list[Event]) -> None:
        """Dispatch a block of already-recorded events, in order: exactly
        :meth:`deliver_local_event` once per event, plus one count in
        ``batches_processed`` and ``batch_events`` (an empty block counts
        nothing)."""
        if events:
            self._m_batches.value += 1
            self._m_batch_events.value += len(events)
        for event in events:
            self._process_event(event)

    def ingest_batch(self, descs) -> int:
        """Record a block of local event descriptors at the current tick,
        then dispatch it.

        The descriptors go through :meth:`ExecutionTrace.record_batch` —
        the whole block is in the trace before the first rule fires, so
        chained RHS writes land *after* their block — and then through
        :meth:`deliver_local_events`.  Returns the number of events
        ingested.
        """
        events = self.trace.record_batch(self.sim.now, self.site, descs)
        self.deliver_local_events(events)
        return len(events)

    def _process_event(self, event: Event) -> None:
        """Dispatch one recorded event: every candidate the index nominates,
        in installation order, through :meth:`_applies` and :meth:`_fire`."""
        self._m_events.value += 1
        obs = self.obs
        span = None
        if obs.enabled:
            if obs.flight is not None:
                # The ring-buffer fast path: one tuple append, the detail
                # (the event descriptor) stringified only if ever dumped.
                obs.flight.record(self.site, "event", self.sim.now, event.desc)
            if obs.tracer.enabled:
                span = obs.tracer.start(
                    "shell.process",
                    self.site,
                    self.sim.now,
                    kind=event.desc.kind.value,
                    event=str(event.desc),
                    seq=event.seq,
                )
                obs.tracer.push(span)
        try:
            desc = event.desc
            candidates = self._index.candidates(desc)
            self._m_candidates.value += len(candidates)
            for installed in candidates:
                bound = self._applies(installed, desc)
                if bound is not None:
                    self._fire(installed, bound, event)
        finally:
            if span is not None:
                obs.tracer.pop()
                obs.tracer.finish(span, self.sim.now)

    # -- the dispatch kernel -----------------------------------------------------
    #
    # Exactly one function decides whether an installed rule applies to a
    # descriptor and exactly one fires it; _process_event is the only loop
    # that calls them.

    def _applies(self, installed: InstalledRule, desc):
        """Match ``desc`` against the rule's LHS and evaluate its condition.

        Returns the firing's bound variables — the compiled program's slot
        list, or the interpreted matcher's bindings dict — or ``None`` when
        the rule does not apply.
        """
        program = installed.program
        if program is None:
            # Interpreted reference path (compiled=False or compile fallback).
            bindings = installed.matcher(desc)
            if bindings is None or not self._lhs_condition_holds(
                installed.rule, bindings
            ):
                return None
            return bindings
        # Compiled hot path: slot matcher -> fused binder/condition closure.
        slots = program.match(desc)
        if slots is None:
            return None
        lhs = program.lhs
        if lhs is not None:
            try:
                if not lhs(slots, self.store):
                    return None
            except (BindingError, TypeError):
                # Unbindable condition (e.g. arithmetic over a cache that is
                # still MISSING): not applicable yet.
                return None
        return slots

    def _fire(self, installed: InstalledRule, bound, trigger: Event) -> None:
        """Fire an applicable rule: run its RHS here, or send the firing to
        the shell owning the RHS site.  ``bound`` is what :meth:`_applies`
        returned."""
        rule = installed.rule
        self._m_fired.value += 1
        self._fired_by_rule[rule.name].value += 1
        program = installed.program
        rhs_site = installed.rhs_site
        if rhs_site is None or rhs_site == self.site:
            if program is not None:
                self._execute_compiled_rhs(program, bound, trigger)
            else:
                self._execute_rhs(rule, bound, trigger)
        else:
            if program is not None:
                message = FireMessage(
                    rule, (), trigger, program=program, slots=tuple(bound)
                )
            else:
                message = FireMessage(rule, tuple(bound.items()), trigger)
            self.network.send(self.site, rhs_site, message)

    def _lhs_condition_holds(self, rule: Rule, bindings: Bindings) -> bool:
        try:
            for var, expr in rule.binders:
                bindings[var] = evaluate_value(expr, bindings, self.store)
            return evaluate(rule.condition, bindings, self.store)
        except (BindingError, TypeError):
            # An unbindable condition (e.g. arithmetic over a cache that is
            # still MISSING) means the rule is simply not applicable yet.
            return False

    # -- RHS execution -----------------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, FireMessage):
            rule, program = payload.rule, payload.program
            slots = payload.slots if program is not None else None
        elif isinstance(payload, FailureNotice):
            self._handle_failure(payload)
            return
        elif isinstance(payload, WireFiring):
            # A firing that crossed a by-value channel: resolve the rule
            # from local knowledge and run the locally compiled program.
            rule, program = self._resolve_firing(payload)
            slots = payload.slots
            if slots is not None and program is None:
                raise ConfigurationError(
                    f"shell {self.site!r}: firing for rule {rule.name!r} "
                    f"carries compiled slots but the rule did not compile "
                    f"here — both sides of a channel must share the rule "
                    f"definition"
                )
        else:
            raise ConfigurationError(
                f"shell {self.site!r} received unknown message {payload!r}"
            )
        obs = self.obs
        span = None
        if obs.enabled:
            if obs.flight is not None:
                obs.flight.record(self.site, "fire", self.sim.now, rule.name)
            if obs.tracer.enabled:
                # Parent is the in-flight net.send activation the network
                # pushed (a local span, or a SpanContext resumed off a wire
                # frame).
                span = obs.tracer.start(
                    "shell.fire", self.site, self.sim.now, rule=rule.name
                )
                obs.tracer.push(span)
        try:
            if slots is not None:
                self._execute_compiled_rhs(program, list(slots), payload.trigger)
            else:
                self._execute_rhs(
                    rule, dict(payload.bindings or ()), payload.trigger
                )
        finally:
            if span is not None:
                obs.tracer.pop()
                obs.tracer.finish(span, self.sim.now)

    def _execute_rhs(self, rule: Rule, bindings: Bindings, trigger: Event) -> None:
        for step in rule.steps:
            if step.template.kind is EventKind.FALSE:
                continue  # prohibitions are promises, not actions
            step_bindings = dict(bindings)
            step_bindings["now"] = self.sim.now + self.clock_skew
            try:
                applicable = evaluate(step.condition, step_bindings, self.store)
            except (BindingError, TypeError):
                applicable = False  # unevaluable condition = not applicable
            if not applicable:
                continue
            self._emit(step.template, step_bindings, rule, trigger)

    def _execute_compiled_rhs(
        self, program, slots: list, trigger: Event
    ) -> None:
        """Run a compiled rule program's RHS plan.

        Semantically identical to :meth:`_execute_rhs` over the equivalent
        bindings dict, but flat: ``now`` is one slot store instead of a
        per-step dict copy, step conditions are pre-compiled closures, and
        each emission's item/value accessors were resolved at install time.
        """
        rule = program.rule
        slots[program.now_slot] = self.sim.now + self.clock_skew
        for step in program.steps:
            condition = step.condition
            if condition is not None:
                try:
                    if not condition(slots, self.store):
                        continue
                except (BindingError, TypeError):
                    continue  # unevaluable condition = not applicable
            kind = step.kind
            if kind is EventKind.WRITE_REQUEST:
                ref = step.make_ref(slots)
                self.translator_for(ref.name).request_write(
                    ref, step.make_value(slots), rule=rule, trigger=trigger
                )
            elif kind is EventKind.READ_REQUEST:
                if step.enumerating:
                    translator = self.translator_for(step.family)
                    for ref in translator.enumerate_refs(step.family):
                        translator.request_read(ref, rule=rule, trigger=trigger)
                else:
                    ref = step.make_ref(slots)
                    self.translator_for(ref.name).request_read(
                        ref, rule=rule, trigger=trigger
                    )
            else:  # EventKind.WRITE — the only other compiled emission
                ref = step.make_ref(slots)
                if ref.name in self.translators:
                    raise SpecError(
                        f"rule {rule.name!r} writes {ref.name!r} directly; "
                        f"database items need a WR (write request) event"
                    )
                event = self.store.write(
                    ref, step.make_value(slots), self.sim.now,
                    rule=rule, trigger=trigger,
                )
                self._chain_depth += 1
                try:
                    if self._chain_depth > self.MAX_CHAIN_DEPTH:
                        raise SpecError(
                            f"rule chaining exceeded depth "
                            f"{self.MAX_CHAIN_DEPTH} at {ref} "
                            f"(self-triggering rule set?)"
                        )
                    self._process_event(event)
                finally:
                    self._chain_depth -= 1

    def _emit(self, template, bindings: Bindings, rule: Rule, trigger: Event) -> None:
        kind = template.kind
        if kind is EventKind.WRITE_REQUEST:
            ref = ground_item(template.item, bindings)
            value = _ground_value(template, bindings, index=0)
            self.translator_for(ref.name).request_write(
                ref, value, rule=rule, trigger=trigger
            )
            return
        if kind is EventKind.READ_REQUEST:
            unbound = template.item.variables() - set(bindings)
            if unbound:
                translator = self.translator_for(template.item.name)
                for ref in translator.enumerate_refs(template.item.name):
                    translator.request_read(ref, rule=rule, trigger=trigger)
                return
            ref = ground_item(template.item, bindings)
            self.translator_for(ref.name).request_read(
                ref, rule=rule, trigger=trigger
            )
            return
        if kind is EventKind.WRITE:
            ref = ground_item(template.item, bindings)
            if ref.name in self.translators:
                raise SpecError(
                    f"rule {rule.name!r} writes {ref.name!r} directly; "
                    f"database items need a WR (write request) event"
                )
            value = _ground_value(template, bindings, index=0)
            event = self.store.write(
                ref, value, self.sim.now, rule=rule, trigger=trigger
            )
            # Rule chaining: a generated write on private data is itself an
            # event other rules may trigger on (how the Section 7.1
            # arithmetic decomposition recomputes X from its caches).  Depth
            # is bounded to catch self-triggering rule sets.
            self._chain_depth += 1
            try:
                if self._chain_depth > self.MAX_CHAIN_DEPTH:
                    raise SpecError(
                        f"rule chaining exceeded depth "
                        f"{self.MAX_CHAIN_DEPTH} at {ref} (self-triggering "
                        f"rule set?)"
                    )
                self._process_event(event)
            finally:
                self._chain_depth -= 1
            return
        raise SpecError(
            f"rule {rule.name!r}: cannot generate a {kind.value} event"
        )

    # -- failure propagation ---------------------------------------------------------------

    def report_failure(self, notice: FailureNotice) -> None:
        """Record a locally detected failure and propagate it (Section 5)."""
        self._handle_failure(notice)
        for peer in self.peers:
            if peer != self.site:
                self.network.send(self.site, peer, notice)

    def _handle_failure(self, notice: FailureNotice) -> None:
        """The one intake for failure notices, local and remote alike.

        Both paths log the notice *and* invoke the ``on_failure`` listeners,
        so a guarantee-status board (or any other observer) attached at this
        shell sees peer failures, not just locally detected ones.  Only
        :meth:`report_failure` — the local detection path — forwards to
        peers, so a notice crosses the network once.
        """
        self._m_failures.value += 1
        self.obs.metrics.counter(
            "failure_notices",
            site=self.site,
            kind=getattr(notice.kind, "value", str(notice.kind)),
            recovered=str(notice.recovered).lower(),
        ).value += 1
        self.failure_log.append(notice)
        flight = self.obs.flight
        if flight is not None:
            flight.record(self.site, "failure", self.sim.now, notice)
            if not notice.recovered:
                # Freeze the rings: the last-N-digests context around the
                # incident.  The reason keys the dedup — one notice relayed
                # to every peer still produces exactly one dump.
                kind = getattr(notice.kind, "value", str(notice.kind))
                flight.dump(
                    f"failure:{notice.site}:{notice.source_name}:"
                    f"{kind}@{notice.time}",
                    self.sim.now,
                )
        for listener in self.on_failure:
            listener(notice)


def _ground_value(template, bindings: Bindings, index: int):
    from repro.core.terms import ground_term

    return ground_term(template.values[index], bindings)
