"""CM-Translator base: mapping native source interfaces to the CM-Interface.

A CM-Translator (Figure 2 of the paper) sits between one raw source and the
site's CM-Shell.  Upward it offers the uniform CM-Interface: write requests,
read requests, notifications, and instance enumeration; downward it speaks
the source's native API.  It is configured by a :class:`~repro.cm.rid.CMRID`,
and it is the component that classifies raw failures into the paper's metric
and logical classes (Section 5) and reports them to the shell.

Time behaviour: every operation takes a sampled service time (plus any
metric-failure slowdown from the scenario's failure plan), so the promised
interface bounds are *honest* — the translator self-reports a metric failure
whenever an operation completes later than the bound the CM-RID advertised.

Resolved once, paid per call: Section 4.1 fixes what a translator knows
about an interface — which kinds a family offers, the interface rule, its
bound δ — at initialization, from the CM-RID.  So :meth:`CMTranslator.attach`
binds the shell's site, clock, trace, failure plan and instrumentation as
plain attributes, the first draw binds this source's RNG stream, and the
first operation on a family resolves its write / read / notify interfaces
into one entry the request, the completion and the notification paths
share.  What stays per call is what an execution can observe: the
failure-plan check (``plan.windows`` read inline, the plan probed only when
it has windows; a plan may gain windows after wiring), the failure notices,
and the service-time and notify-loss draws, from the same stream in the same
order.

Subclasses implement four native hooks:

- ``_native_read(ref)`` — return the current value (MISSING if absent);
- ``_native_write(ref, value)`` — write, or delete when value is MISSING;
- ``_native_enumerate(family)`` — all existing instances of a family;
- ``_setup_native_notify(family)`` — hook the source's change mechanism so
  spontaneous writes reach :meth:`_deliver_notification`.

Spontaneous writes by "local applications" are modelled by calling
:meth:`apply_spontaneous_write`, which records the ``Ws`` event and performs
the native write (firing any declared notify hooks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.core.errors import ConfigurationError, UnsupportedOperationError
from repro.core.events import (
    Event,
    notify_desc,
    read_request_desc,
    read_response_desc,
    spontaneous_write_desc,
    write_desc,
    write_request_desc,
)
from repro.core.interfaces import InterfaceKind, InterfaceSet, InterfaceSpec
from repro.core.items import MISSING, DataItemRef, Value
from repro.core.rules import Rule
from repro.core.timebase import Ticks, seconds
from repro.cm.failures import FailureNotice, classify_error
from repro.cm.rid import CMRID
from repro.ris.base import RawInformationSource, RISError
from repro.sim.failures import FailureKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.cm.shell import CMShell


@dataclass(frozen=True)
class ServiceModel:
    """Base service times of one translator+source pair, in ticks.

    ``jitter`` is a +/- fraction applied uniformly (0.2 = ±20%).
    """

    read: Ticks = seconds(0.02)
    write: Ticks = seconds(0.03)
    notify: Ticks = seconds(0.05)
    jitter: float = 0.2

    def sample(self, operation: str, rng, slowdown: float = 1.0) -> Ticks:
        """One service-time sample for a given operation kind."""
        if operation == "write":
            base = self.write
        elif operation == "read":
            base = self.read
        elif operation == "notify":
            base = self.notify
        else:
            raise KeyError(operation)
        if self.jitter:
            factor = 1.0 + rng.uniform(-self.jitter, self.jitter)
        else:
            factor = 1.0
        return max(1, round(base * factor * slowdown))


class _Offers(NamedTuple):
    """What the CM-RID offers for one family on the operation paths, worked
    out on first use: the interface each operation runs under (its rule is
    the provenance of the events the operation generates, its bound what
    the operation is held to), or ``None`` where the kind is not offered."""

    write: InterfaceSpec | None
    read: InterfaceSpec | None
    #: The conditional-notify interface when offered, else the plain one.
    notify: InterfaceSpec | None


class _Unattached:
    """Stands in for what :meth:`CMTranslator.attach` binds from the shell
    (clock, trace, failure plan, instrumentation): using any of it before
    the translator joined a shell is a wiring mistake."""

    def __init__(self, source_name: str) -> None:
        self._source_name = source_name

    def __getattr__(self, name: str):
        raise ConfigurationError(
            f"translator for {self._source_name!r} is not attached to a shell"
        )


class CMTranslator:
    """Base class for all translators.  See the module docstring."""

    kind = "abstract"
    #: Retries on transient (BUSY/TIMEOUT) errors before declaring logical.
    max_retries = 3
    #: Backoff between retries.
    retry_delay: Ticks = seconds(0.5)

    def __init__(
        self,
        source: RawInformationSource,
        rid: CMRID,
        service: ServiceModel | None = None,
    ):
        if rid.source_name != source.name:
            raise ConfigurationError(
                f"CM-RID names source {rid.source_name!r} but translator was "
                f"given {source.name!r}"
            )
        self.source = source
        self.rid = rid
        self.service = service or ServiceModel()
        self.shell: Optional["CMShell"] = None
        self.site: str | None = None
        self.sim = self.trace = self._plan = self._obs = _Unattached(source.name)
        self._rng = None
        self._interfaces: InterfaceSet | None = None
        self._offers: dict[str, _Offers] = {}
        self._failed: FailureKind | None = None
        self._current_spontaneous: Event | None = None
        self._notify_families: set[str] = set()
        self._timers: list = []
        self.writes_requested = 0
        self.reads_requested = 0
        self.notifications_delivered = 0
        self.notifications_suppressed = 0
        self._busy_until: Ticks = 0
        # Lazily resolved observability instruments (shared registry via the
        # shell; dicts so hot paths pay one lookup, not a registry probe).
        self._op_counters: dict[str, object] = {}
        self._prop_hists: dict[str, object] = {}

    # -- wiring ----------------------------------------------------------------

    def attach(self, shell: "CMShell") -> None:
        """Bind this translator to its site's shell (done by the manager).

        Everything the operation paths need from the shell is bound here,
        once, as plain attributes: the site, the clock, the trace, the
        failure plan and the instrumentation.  The clock and trace are kept
        as *objects* — their methods are looked up per call, so a wrapper
        installed on the class (the benchmark ledger's spans) is always the
        one that runs.
        """
        self.shell = shell
        self.site = shell.site
        self.sim = shell.sim
        self.trace = shell.trace
        self._plan = shell.failure_plan
        self._obs = shell.obs

    def _stream(self):
        """Bind this source's RNG stream, on the first draw (call sites read
        ``self._rng or self._stream()``).  Not in :meth:`attach`: seeding a
        stream costs ~30 µs, and a federation's worth of them there is
        set-up time paid even by translators that never draw."""
        rng = self._rng = self.shell.rngs.stream(f"translator:{self.source.name}")
        return rng

    # -- observability helpers -----------------------------------------------

    def count_op(self, op: str, amount: int = 1) -> None:
        """Count one native (RISI) operation against this source.

        Concrete translators call this from their native hooks
        (``sql_select``, ``file_read``, ``whois_lookup``, ...); the counts
        surface as ``ris_ops{source=...,op=...}`` series and in the run
        report's translator section.
        """
        counter = self._op_counters.get(op)
        if counter is None:
            counter = self._obs.metrics.counter(
                "ris_ops", source=self.source.name, op=op
            )
            self._op_counters[op] = counter
        counter.value += amount

    def _observe_propagation(self, family: str, wr_event: Event, now: Ticks) -> None:
        """Record end-to-end propagation latency for a write completed at
        ``now``.

        Latency is measured from the *root* of the write's trigger chain
        (the spontaneous write or periodic tick that started the causal
        chain) to now — the quantity the metric guarantees bound with κ.
        """
        root = wr_event
        while root.trigger is not None:
            root = root.trigger
        hist = self._prop_hists.get(family)
        if hist is None:
            hist = self._obs.metrics.histogram(
                "propagation_latency", family=family
            )
            self._prop_hists[family] = hist
        hist.observe(now - root.time)

    # -- survey (Section 4.1 initialization) -------------------------------------

    def offered_interfaces(self) -> InterfaceSet:
        """The interfaces this translator offers, from its CM-RID."""
        if self._interfaces is None:
            self._interfaces = self.rid.interface_set()
        return self._interfaces

    def families(self) -> list[str]:
        """Item families this translator manages."""
        return list(self.rid.bindings)

    def _offered(self, family: str) -> _Offers:
        """The family's operation interfaces, resolved from the survey once."""
        offers = self._offers.get(family)
        if offers is None:
            interfaces = self.offered_interfaces()

            def spec(kind: InterfaceKind) -> InterfaceSpec | None:
                if interfaces.has(family, kind):
                    return interfaces.get(family, kind)
                return None

            offers = self._offers[family] = _Offers(
                spec(InterfaceKind.WRITE),
                spec(InterfaceKind.READ),
                spec(InterfaceKind.CONDITIONAL_NOTIFY) or spec(InterfaceKind.NOTIFY),
            )
        return offers

    # -- service-time / failure plumbing --------------------------------------------

    def _schedule_op(self, operation: str, fn) -> None:
        """Schedule a native operation on this translator's FIFO lane.

        A translator models one session to its source: operations complete in
        the order they were submitted, never overtaking each other even when
        their sampled service times differ.  This is what makes the paper's
        in-order-processing assumption (Appendix A property 7) hold across
        interface rules that share this site.

        Per call: the failure plan's slowdown and one service-time draw from
        this source's stream — both observable, so neither is cached.
        """
        sim = self.sim
        now = sim.now
        plan = self._plan
        slowdown = plan.slowdown_at(self.site, now) if plan.windows else 1.0
        completion = max(now, self._busy_until) + self.service.sample(
            operation, self._rng or self._stream(), slowdown
        )
        self._busy_until = completion
        sim.at(completion, fn)

    def _report(self, kind: FailureKind, detail: str) -> None:
        if self._failed is kind:
            return  # already reported; don't spam
        self._failed = kind
        self.shell.report_failure(
            FailureNotice(
                site=self.site,
                source_name=self.source.name,
                kind=kind,
                time=self.sim.now,
                detail=detail,
            )
        )

    def _report_error(self, error: RISError, context: str) -> None:
        self._report(classify_error(error), f"{context}: {error}")

    def _note_success(self) -> None:
        if self._failed is None:
            return
        previous, self._failed = self._failed, None
        self.shell.report_failure(
            FailureNotice(
                site=self.site,
                source_name=self.source.name,
                kind=previous,
                time=self.sim.now,
                detail="operations succeeding again",
                recovered=True,
            )
        )

    def _check_bound(self, spec: InterfaceSpec, elapsed: Ticks) -> None:
        """Self-report a metric failure when an op exceeded its promise.

        An operation that met its bound — or runs under an interface that
        promises none — ends a metric failure.  Logical failures do not
        auto-recover: the interface statements were broken, so the system
        must be reset (Section 5).
        """
        bound = spec.bound
        if bound and elapsed > bound:
            self._report(
                FailureKind.METRIC,
                f"{spec.kind.value} for {spec.family!r} took {elapsed} > "
                f"bound {bound}",
            )
        elif self._failed is FailureKind.METRIC:
            self._note_success()

    # -- CM-Interface: writes ----------------------------------------------------------

    def request_write(
        self,
        ref: DataItemRef,
        value: Value,
        rule: Rule | None = None,
        trigger: Event | None = None,
    ) -> None:
        """Accept a CM write request: records WR, performs W after service time."""
        if self._offered(ref.name).write is None:
            raise UnsupportedOperationError(
                f"{self.source.name!r} offers no write interface for {ref.name!r}"
            )
        self.writes_requested += 1
        wr_event = self.trace.record(
            self.sim.now,
            self.site,
            write_request_desc(ref, value),
            rule=rule,
            trigger=trigger,
        )
        self._schedule_write(ref, value, wr_event, attempt=0)

    def _schedule_write(
        self, ref: DataItemRef, value: Value, wr_event: Event, attempt: int
    ) -> None:
        self._schedule_op(
            "write",
            lambda: self._perform_write(ref, value, wr_event, attempt),
        )

    def _perform_write(
        self, ref: DataItemRef, value: Value, wr_event: Event, attempt: int
    ) -> None:
        sim = self.sim
        plan = self._plan
        if plan.windows and plan.logically_failed(self.site, sim.now):
            self._report(FailureKind.LOGICAL, f"site down; write {ref} lost")
            return
        try:
            self._native_write(ref, value)
        except RISError as error:
            if error.code.transient and attempt < self.max_retries:
                self._report_error(error, f"write {ref} (will retry)")
                sim.after(
                    self.retry_delay * (attempt + 1),
                    lambda: self._perform_write(ref, value, wr_event, attempt + 1),
                )
                return
            if error.code.transient:
                self._report(
                    FailureKind.LOGICAL,
                    f"write {ref} failed after {attempt} retries: {error}",
                )
            else:
                self._report_error(error, f"write {ref}")
            return
        now = sim.now  # after the native call: a wall clock moves during it
        spec = self._offers[ref.name].write
        self._check_bound(spec, now - wr_event.time)
        self._observe_propagation(ref.name, wr_event, now)
        self.trace.record(
            now, self.site, write_desc(ref, value), rule=spec.rule, trigger=wr_event
        )

    # -- CM-Interface: reads --------------------------------------------------------------

    def request_read(
        self,
        ref: DataItemRef,
        rule: Rule | None = None,
        trigger: Event | None = None,
    ) -> None:
        """Accept a CM read request: records RR, delivers R after service time."""
        if self._offered(ref.name).read is None:
            raise UnsupportedOperationError(
                f"{self.source.name!r} offers no read interface for {ref.name!r}"
            )
        self.reads_requested += 1
        rr_event = self.trace.record(
            self.sim.now,
            self.site,
            read_request_desc(ref),
            rule=rule,
            trigger=trigger,
        )
        self._schedule_op("read", lambda: self._perform_read(ref, rr_event))

    def _perform_read(self, ref: DataItemRef, rr_event: Event) -> None:
        sim = self.sim
        plan = self._plan
        if plan.windows and plan.logically_failed(self.site, sim.now):
            self._report(FailureKind.LOGICAL, f"site down; read {ref} lost")
            return
        try:
            value = self._native_read(ref)
        except RISError as error:
            self._report_error(error, f"read {ref}")
            return
        now = sim.now  # after the native call: a wall clock moves during it
        spec = self._offers[ref.name].read
        self._check_bound(spec, now - rr_event.time)
        r_event = self.trace.record(
            now,
            self.site,
            read_response_desc(ref, value),
            rule=spec.rule,
            trigger=rr_event,
        )
        self.shell.deliver_local_event(r_event)

    def enumerate_refs(self, family: str) -> list[DataItemRef]:
        """All current instances of a family (for enumerating reads)."""
        return self._native_enumerate(family)

    # -- CM-Interface: notifications -----------------------------------------------------------

    def setup_notify(self, family: str) -> None:
        """Arrange for update notifications to reach the shell (Section 4.2.1).

        Uses the source's native change mechanism when a (conditional)
        notify interface is offered; falls back to the periodic-notify
        interface (a translator-driven timer pushing the current value every
        period) when that is what the CM-RID offers.
        """
        interfaces = self.offered_interfaces()
        if family in self._notify_families:
            return
        if interfaces.has(family, InterfaceKind.NOTIFY) or interfaces.has(
            family, InterfaceKind.CONDITIONAL_NOTIFY
        ):
            self._notify_families.add(family)
            self._setup_native_notify(family)
            return
        if interfaces.has(family, InterfaceKind.PERIODIC_NOTIFY):
            self._notify_families.add(family)
            self._setup_periodic_notify(
                interfaces.get(family, InterfaceKind.PERIODIC_NOTIFY)
            )
            return
        raise UnsupportedOperationError(
            f"{self.source.name!r} offers no notify interface for {family!r}"
        )

    def _setup_periodic_notify(self, spec) -> None:
        """Drive ``P(p) ∧ (X = b) -> [ε] N(X, b)`` with a translator timer."""
        from repro.core.events import periodic_desc
        from repro.sim.process import PeriodicTimer

        assert spec.period is not None
        ref = DataItemRef(spec.family, ())

        def fire() -> None:
            p_event = self.trace.record(
                self.sim.now, self.site, periodic_desc(spec.period)
            )
            plan = self._plan
            if plan.windows and plan.logically_failed(self.site, self.sim.now):
                return
            try:
                value = self._native_read(ref)
            except RISError as error:
                self._report_error(error, f"periodic read {ref}")
                return
            self._deliver_notification(ref, value, p_event, rule=spec.rule)

        self._timers.append(PeriodicTimer(self.sim, spec.period, fire))

    def stop_timers(self) -> None:
        """Stop any translator-driven timers (end of scenario)."""
        for timer in self._timers:
            timer.stop()

    def _deliver_notification(
        self,
        ref: DataItemRef,
        value: Value,
        trigger: Event | None,
        rule: Rule | None = None,
    ) -> None:
        """Push one update notification to the shell, after the notify delay.

        Silent-loss failure windows (Section 5's undetectable legacy case)
        drop the notification here with no error anywhere.
        """
        now = self.sim.now
        plan = self._plan
        if plan.windows:
            drop_probability = plan.notify_drop_probability(self.site, now)
            if (
                drop_probability
                and (self._rng or self._stream()).random() < drop_probability
            ):
                self.notifications_suppressed += 1
                return
            if plan.logically_failed(self.site, now):
                return  # the site is dead; nothing is sent (logical failure)
        if rule is None:  # else: provenance supplied by the caller (periodic)
            spec = self._offered(ref.name).notify
            if spec is not None:
                rule = spec.rule

        def deliver() -> None:
            n_event = self.trace.record(
                self.sim.now,
                self.site,
                notify_desc(ref, value),
                rule=rule,
                trigger=trigger,
            )
            self.notifications_delivered += 1
            self.shell.deliver_local_event(n_event)

        self._schedule_op("notify", deliver)

    # -- spontaneous activity (local applications) ----------------------------------------------

    def apply_spontaneous_write(self, ref: DataItemRef, value: Value) -> Event:
        """A local application writes the source directly.

        Records the ``Ws`` event and performs the native write; any notify
        hook set up for the family fires as a consequence.
        """
        old = self.trace.current_value(ref)
        ws_event = self.trace.record(
            self.sim.now, self.site, spontaneous_write_desc(ref, old, value)
        )
        self._current_spontaneous = ws_event
        try:
            self._native_write(ref, value)
        finally:
            self._current_spontaneous = None
        return ws_event

    def apply_spontaneous_delete(self, ref: DataItemRef) -> Event:
        """A local application deletes the item (writes MISSING)."""
        return self.apply_spontaneous_write(ref, MISSING)

    # -- native hooks (subclass responsibilities) ---------------------------------------------------

    def _native_read(self, ref: DataItemRef) -> Value:
        raise NotImplementedError

    def _native_write(self, ref: DataItemRef, value: Value) -> None:
        raise NotImplementedError

    def _native_enumerate(self, family: str) -> list[DataItemRef]:
        raise NotImplementedError

    def _setup_native_notify(self, family: str) -> None:
        raise UnsupportedOperationError(
            f"{type(self).__name__} cannot implement notification"
        )
