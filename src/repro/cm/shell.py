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
counters live in the scenario's :mod:`repro.obs` metrics registry.  A
cross-site firing chain (``Ws`` → ``N`` → rule fire → network →
``WR``/``W``) needs no record of its own: every event the shell causes
names its trigger in the execution trace, so the chain is a walk back
through ``trigger``.

A documented extension beyond the paper's examples: a read-request template
with unbound parameters (e.g. ``RR(salary1(n))`` fired by a poll timer) is
executed as an *enumerating read* over all current instances of the family,
which is how parameterized polling and end-of-day scans work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.compile import CompiledRule, compile_rule
from repro.core.errors import BindingError, ConfigurationError, SpecError
from repro.core.events import Event, EventKind, periodic_desc
from repro.core.rules import Rule
from repro.core.terms import Const
from repro.cm.dispatch import InstalledRule, RuleIndex
from repro.core.timebase import DAY, Ticks
from repro.core.trace import ExecutionTrace
from repro.cm.failures import FailureNotice
from repro.cm.store import ShellStore
from repro.cm.translator import CMTranslator
from repro.obs import Instrumentation
from repro.runtime.api import Clock
from repro.runtime.codec import CodecError, WireFiring
from repro.sim.failures import FailurePlan
from repro.sim.network import Message, Network
from repro.sim.process import PeriodicTimer
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class FireMessage:
    """Cross-site rule firing: 'run this program's RHS with these slots'.

    ``program`` is the rule's compiled program and ``slots`` its flat
    binding tuple; the receiving shell runs the program's RHS plan against
    *its* local store and translators.
    """

    program: CompiledRule
    slots: tuple
    trigger: Event


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
        self._fired_by_rule: dict[str, object] = {}
        # Every rule this shell knows by name — installed here, or installed
        # at a peer with its RHS here — as its compiled program.  Names key
        # firing counters and the by-value firing codec, so one name is one
        # definition.
        self._programs: dict[str, CompiledRule] = {}
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
        network.register_resolver(site, self._resolve_firing)

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

    def install(
        self,
        rule: Rule,
        rhs_site: str | None = None,
        *,
        phase: Optional[Ticks] = None,
    ) -> None:
        """Install a strategy rule whose LHS is at this site.

        The rule is compiled (:mod:`repro.core.compile`) and keyed into the
        dispatch index by its LHS ``(kind, family)`` discriminator; a rule
        the compiler rejects raises :class:`~repro.core.errors.CompileError`
        and leaves the shell unchanged.  A periodic LHS (``P(p)``) also
        starts its timer here; ``phase`` is then the tick-of-day of the
        first firing (e.g. 17:00 for end-of-day strategies) — without it the
        timer starts at the epoch and fires every period.  ``rhs_site``
        defaults to this site (local execution).

        This is the raw wiring path: it does not survey interfaces.
        ``cm.install`` and ``cm.install_rule`` do, before calling it; a
        rule installed here that needs a missing interface fails at
        its translator on first use.
        """
        self._check_name(rule)
        if rule.lhs.kind is not EventKind.PERIODIC and phase is not None:
            raise SpecError(
                f"rule {rule.name!r}: phase only applies to periodic rules"
            )
        installed = self._index.add(rule, rhs_site)
        if rule.lhs.kind is EventKind.PERIODIC:
            self._install_timer(rule, phase)
        self._programs[rule.name] = installed.program
        if rule.name not in self._fired_by_rule:
            self._fired_by_rule[rule.name] = self.obs.metrics.counter(
                "rule_fired", site=self.site, rule=rule.name
            )

    def register_remote_rule(self, rule: Rule) -> None:
        """Register a rule installed at a peer whose RHS executes here.

        The by-value firing codec ships only the rule *name* plus encoded
        slot values; this is the receiving half of the CM-RID contract —
        both sites hold the same rule definition and compile it to the same
        slot layout.  Registering the same definition again is a no-op.
        """
        if not self._check_name(rule):
            self._programs[rule.name] = compile_rule(rule)

    def _check_name(self, rule: Rule) -> bool:
        """Whether this shell already knows ``rule``; raises if it knows a
        different rule by the same name."""
        known = self._programs.get(rule.name)
        if known is None:
            return False
        if known.rule != rule:
            raise ConfigurationError(
                f"rule {rule.name!r} is already known at site {self.site!r} "
                f"with a different definition; rule names key firing "
                f"counters and the firing codec, so they must be unique "
                f"per shell"
            )
        return True

    def _resolve_firing(self, firing: WireFiring) -> FireMessage:
        """Resolve an inbound by-value firing against this shell's programs.

        Raises :class:`~repro.runtime.codec.CodecError` for a firing this
        shell cannot run — an unknown rule name, or a slot count other than
        the program's — so the wire drops it like an undecodable payload.
        """
        program = self._programs.get(firing.rule_name)
        if program is None:
            raise CodecError(f"{self.site!r} knows no rule {firing.rule_name!r}")
        slots = firing.slots
        if len(slots) != len(program.slot_names):
            raise CodecError(
                f"rule {firing.rule_name!r} takes {len(program.slot_names)} slots"
            )
        return FireMessage(program, tuple(slots), firing.trigger)

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
        desc = event.desc
        flight = self.obs.flight
        if flight is not None:
            # The ring-buffer fast path: one tuple append, the detail (the
            # event descriptor) stringified only if ever dumped.
            flight.record(self.site, "event", self.sim.now, desc)
        candidates = self._index.candidates(desc)
        self._m_candidates.value += len(candidates)
        for installed in candidates:
            slots = self._applies(installed, desc)
            if slots is not None:
                self._fire(installed, slots, event)

    # -- the dispatch kernel -----------------------------------------------------
    #
    # Exactly one function decides whether an installed rule applies to a
    # descriptor and exactly one fires it; _process_event is the only loop
    # that calls them.

    def _applies(self, installed: InstalledRule, desc) -> Optional[list]:
        """Match ``desc`` against the rule's LHS and evaluate its condition.

        Returns the firing's slot list, or ``None`` when the rule does not
        apply.
        """
        program = installed.program
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

    def _fire(self, installed: InstalledRule, slots: list, trigger: Event) -> None:
        """Fire an applicable rule: run its RHS here, or send the firing to
        the shell owning the RHS site.  ``slots`` is what :meth:`_applies`
        returned."""
        program = installed.program
        self._m_fired.value += 1
        self._fired_by_rule[program.rule.name].value += 1
        rhs_site = installed.rhs_site
        if rhs_site is None or rhs_site == self.site:
            self._execute_rhs(program, slots, trigger)
        else:
            self.network.send(
                self.site, rhs_site, FireMessage(program, tuple(slots), trigger)
            )

    # -- RHS execution -----------------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, FireMessage):
            if not isinstance(payload, FailureNotice):
                raise ConfigurationError(
                    f"shell {self.site!r} received unknown message {payload!r}"
                )
            self._handle_failure(payload)
            return
        program = payload.program
        flight = self.obs.flight
        if flight is not None:
            flight.record(self.site, "fire", self.sim.now, program.rule.name)
        self._execute_rhs(program, list(payload.slots), payload.trigger)

    def _execute_rhs(
        self, program: CompiledRule, slots: list, trigger: Event
    ) -> None:
        """Run a compiled rule program's RHS plan.  A generated private
        write is itself an event other rules may trigger on (how the
        Section 7.1 arithmetic decomposition recomputes X from its caches);
        chaining depth is bounded to catch self-triggering rule sets."""
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

