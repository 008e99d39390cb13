"""The six whole-constraint-path workloads and their correctness scoring.

Each workload is three timed phases over the toolkit's public surface —
``setup`` (build the federation, install strategies, pre-generate the
load), ``run`` (advance to the horizon and settle the trace) and
``verdict`` (the workload's correctness verdict) — plus an untimed
``observe`` that reduces the finished run to a plain :class:`Observation`
which :func:`score` turns into attempted/failed counts.  The scorer only
sees the observation, so a planted failure (:func:`plant`) is
indistinguishable from a real one.

Sizes are the ``--scale 1`` sizes; ``scale`` multiplies the length of the
load (virtual duration or notification count), never the federation shape.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any

from repro import (
    CMRID,
    AsyncRuntime,
    ConstraintManager,
    CopyConstraint,
    DataItemRef,
    InterfaceKind,
    Scenario,
    parse_rule,
    seconds,
    to_seconds,
    verify,
)
from repro.core.events import EventKind
from repro.core import trace as core_trace
from repro.experiments.common import pick_suggestion
from repro.experiments.e4_demarcation import build_inventory_cm
from repro.protocols.demarcation import SlackPolicy
from repro.ris.relational import RelationalDatabase
from repro.workloads import InventoryWorkload
from repro.workloads.generators import notification_stream

#: Appendix A.2 valid-execution properties; each counts as one check.
VALIDITY_PROPERTIES = 7


@dataclass
class State:
    """What ``setup`` hands to the later phases of one repetition."""

    cm: ConstraintManager
    horizon: int
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass
class Observation:
    """A finished run reduced to the facts the scorer judges.

    ``done`` holds the ops that reached their end state by the horizon,
    out of ``expected``; ``reference`` maps a cell name to its
    ``(expected, actual)`` pair from the dispatch reference model.
    ``counts`` are the run's deterministic counts (equal across
    repetitions of one seed) and ``vlatencies`` the per-op virtual
    latencies in seconds, where the workload has a propagation span.
    """

    expected: int
    done: set | int
    guarantees: dict[str, bool] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    silent_gaps: int = 0
    lint_errors: int = 0
    reference: dict[str, tuple] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    vlatencies: list[float] = field(default_factory=list)
    #: fanout_wire only: per-op wall latencies and generator lateness, ms.
    wall_ms: list[float] = field(default_factory=list)
    generator_lag_ms: list[float] = field(default_factory=list)

    @property
    def ops(self) -> int:
        """Ops completed."""
        return self.done if isinstance(self.done, int) else len(self.done)


@dataclass
class Score:
    attempted: int
    failed: int
    failures: list[str]

    @property
    def failure_share(self) -> float:
        return self.failed / self.attempted


def score(obs: Observation) -> Score:
    """Attempted = ops + guarantees + the 7 validity properties (+ reference
    cells); failed = everything among them that did not come out right.  A
    violated property counts once however many events violate it, so that
    failed never exceeds attempted."""
    missing = max(obs.expected - obs.ops, 0)
    bad = [name for name, valid in obs.guarantees.items() if not valid]
    violated = {text.split(":")[0] for text in obs.violations}
    wrong = [
        f"reference {cell}: expected {want!r}, got {got!r}"
        for cell, (want, got) in obs.reference.items()
        if want != got
    ]
    failures = [f"{missing} op(s) incomplete at the horizon"] if missing else []
    failures.extend(f"guarantee not VALID: {name}" for name in bad)
    failures.extend(f"validity: {text}" for text in obs.violations[:5])
    if obs.silent_gaps:
        failures.append(f"{obs.silent_gaps} silent gap(s)")
    if obs.lint_errors:
        failures.append(f"{obs.lint_errors} error-severity lint finding(s)")
    failures.extend(wrong)
    attempted = (
        obs.expected
        + len(obs.guarantees)
        + VALIDITY_PROPERTIES
        + len(obs.reference)
    )
    failed = (
        missing
        + len(bad)
        + len(violated)
        + obs.silent_gaps
        + obs.lint_errors
        + len(wrong)
    )
    return Score(attempted, min(failed, attempted), failures)


PLANTS = ("drop_write", "flip_verdict", "alter_cell")


def plant(obs: Observation, kind: str) -> None:
    """Break one fact of an observation (the gate's self-test)."""
    if kind == "drop_write":
        if isinstance(obs.done, int):
            obs.done -= 1
        else:
            obs.done.remove(min(obs.done))
    elif kind == "flip_verdict":
        name = min(obs.guarantees)
        obs.guarantees[name] = not obs.guarantees[name]
    elif kind == "alter_cell":
        cell = min(obs.reference)
        want, got = obs.reference[cell]
        obs.reference[cell] = (want, ("altered", got))
    else:
        raise ValueError(f"unknown plant {kind!r} (have: {PLANTS})")


def _observe_verification(report, obs: Observation) -> Observation:
    """Fold a :func:`repro.verify` report into the observation."""
    from repro.analysis.diagnostics import Severity

    obs.guarantees = {
        name: r.valid for name, r in report.guarantee_reports.items()
    }
    obs.violations = [str(v) for v in report.trace_violations]
    obs.silent_gaps = len(report.silent_gaps)
    obs.lint_errors = sum(
        1 for d in report.diagnostics if d.severity is Severity.ERROR
    )
    return obs


def _root(event):
    while event.trigger is not None:
        event = event.trigger
    return event


def _federation_counts(cm: ConstraintManager) -> dict[str, int]:
    total = cm.stats()["total"]
    return {
        "events": len(cm.scenario.trace.events),
        "messages": cm.scenario.network.messages_sent,
        "rules_fired": total["rules_fired"],
    }


class Workload:
    """Base: the federations' run and verdict phases."""

    name: str
    why: str
    #: Wire workloads run on a real clock: their run-phase wall is fixed.
    wire = False
    #: Whether ops carry a source-write -> target-write virtual span.
    has_vlatency = False

    def setup(self, seed: int, scale: float) -> State:
        raise NotImplementedError

    def advance(self, state: State) -> None:
        state.cm.run(until=state.horizon)

    def settle(self, state: State) -> None:
        """Materialize every lazily recorded event."""
        len(state.cm.scenario.trace.events)

    def run(self, state: State) -> None:
        self.advance(state)
        self.settle(state)

    def verdict(self, state: State):
        return verify(state.cm)

    def observe(self, state: State, verdict) -> Observation:
        raise NotImplementedError


def schedule_updates(cm, family, keys, count, duration, value) -> list[int]:
    """Pre-schedule exactly ``count`` spontaneous writes to ``family`` at
    uniform random ticks in ``[0, duration)`` — a Poisson process
    conditioned on its count, so every seed gives the same amount of work
    and timings compare across seeds.  Returns the ticks, in order."""
    rng = cm.scenario.rngs.stream(f"workload:{family}")
    ticks = sorted(rng.randrange(duration) for _ in range(count))

    def update() -> None:
        cm.spontaneous_write(family, (rng.choice(keys),), value(rng))

    for tick in ticks:
        cm.scenario.sim.at(tick, update)
    return ticks


def add_relational_site(cm, site, family, offers, keys=()) -> None:
    """A site whose one relational source holds ``family(n)`` as the rows of
    a key/value table, offering ``offers`` (interface kind -> bound in s)."""
    db = RelationalDatabase(f"{site}-db")
    db.execute("CREATE TABLE kv (k TEXT PRIMARY KEY, v TEXT)")
    for key in keys:
        db.execute("INSERT INTO kv (k, v) VALUES (?, ?)", (key, ""))
    rid = CMRID("relational", f"{site}-db").bind(
        family, params=("n",), table="kv", key_column="k", value_column="v"
    )
    for kind, bound in offers.items():
        rid.offer(family, kind, bound_seconds=bound)
    cm.add_site(site)
    cm.add_source(site, db, rid)


class Fanout(Workload):
    """Hub + N relational replicas, one copy constraint per replica under
    the propagation strategy (the ``e10_scale.build_federation`` shape),
    driven by a fixed-count Poisson update stream."""

    has_vlatency = True

    def __init__(self, name, why, replicas, keys, rate, duration, time_scale=None):
        self.name = name
        self.why = why
        self.replicas = replicas
        self.keys = [f"p{i}" for i in range(keys)]
        self.rate = rate
        self.duration = duration
        self.time_scale = time_scale
        self.wire = time_scale is not None

    def setup(self, seed, scale):
        runtime = (
            AsyncRuntime(time_scale=self.time_scale) if self.wire else "sim"
        )
        # On the wire one virtual second is 1/time_scale wall seconds, and a
        # shared box stalls for tens of ms: give every timing bound 20x room
        # there, so a stall is lateness in the latency figures and not a
        # validity failure.  Bounds are checked, never waited for, so they
        # do not change what is measured.
        room = 20.0 if self.wire else 1.0
        cm = ConstraintManager(Scenario(seed=seed, runtime=runtime))
        add_relational_site(
            cm,
            "hub",
            "phone0",
            {InterfaceKind.NOTIFY: 2.0 * room, InterfaceKind.READ: 1.0 * room},
        )
        families = []
        for index in range(1, self.replicas + 1):
            family = f"phone{index}"
            add_relational_site(
                cm,
                f"replica{index}",
                family,
                {
                    InterfaceKind.WRITE: 2.0 * room,
                    InterfaceKind.NO_SPONTANEOUS_WRITE: 0.0,
                },
            )
            constraint = cm.declare(CopyConstraint("phone0", family, params=("n",)))
            suggestions = cm.suggest(constraint, rule_delay=seconds(1.0 * room))
            cm.install(constraint, pick_suggestion(suggestions, "propagation"))
            families.append(family)
        duration = self.duration * scale
        schedule = schedule_updates(
            cm,
            "phone0",
            self.keys,
            round(self.rate * duration),
            seconds(duration),
            lambda rng: f"555-{rng.randint(1000, 9999)}",
        )
        return State(
            cm,
            seconds(duration + 30),
            {"schedule": schedule, "families": set(families)},
        )

    def advance(self, state):
        super().advance(state)
        state.cm.scenario.shutdown()

    def observe(self, state, verdict):
        cm = state.cm
        trace = cm.scenario.trace
        families = state.extra["families"]
        sources = list(trace.events_of_kind(EventKind.SPONTANEOUS_WRITE))
        # Updates fire in schedule order, so the i-th Ws is the i-th tick.
        due = {e.seq: tick for e, tick in zip(sources, state.extra["schedule"])}
        done = set()
        obs = Observation(expected=len(sources) * len(families), done=done)
        ms_per_tick = 1.0 / (1_000.0 * (self.time_scale or 1.0))
        for event in trace.events_of_kind(EventKind.WRITE):
            family = event.desc.item.name
            if family not in families:
                continue
            origin = _root(event)
            if origin.seq not in due or (origin.seq, family) in done:
                continue
            done.add((origin.seq, family))
            obs.vlatencies.append(to_seconds(event.time - origin.time))
            if self.wire:
                obs.wall_ms.append((event.time - due[origin.seq]) * ms_per_tick)
        if self.wire:
            obs.generator_lag_ms = [
                (e.time - due[e.seq]) * ms_per_tick for e in sources
            ]
        obs.counts = _federation_counts(cm)
        obs.counts["updates"] = len(sources)
        return _observe_verification(verdict, obs)


class Polling(Workload):
    """Independent branch -> hq pairs whose sources offer READ only, so the
    catalog's polling strategy (periodic enumerating read, forward, write)
    maintains each copy constraint."""

    has_vlatency = True
    #: A chain polled later than this before the horizon may still be in
    #: flight when the run ends (read 1 s + 2 rule delays + write 2 s).
    SETTLE_SECONDS = 10.0

    def __init__(self, name, why, pairs, keys, rate, duration):
        self.name = name
        self.why = why
        self.pairs = pairs
        self.keys = [f"e{i:03d}" for i in range(keys)]
        self.rate = rate
        self.duration = duration

    def setup(self, seed, scale):
        cm = ConstraintManager(Scenario(seed=seed))
        pairs = []
        for i in range(self.pairs):
            src, dst = f"salary_src{i}", f"salary_dst{i}"
            add_relational_site(
                cm, f"branch{i}", src, {InterfaceKind.READ: 1.0}, keys=self.keys
            )
            add_relational_site(
                cm,
                f"hq{i}",
                dst,
                {InterfaceKind.WRITE: 2.0, InterfaceKind.NO_SPONTANEOUS_WRITE: 0.0},
            )
            constraint = cm.declare(CopyConstraint(src, dst, params=("n",)))
            # Distinct periods: two polling rules with one period on
            # different sites make validate_trace report false property-6
            # violations (see README, findings).
            suggestions = cm.suggest(
                constraint,
                rule_delay=seconds(1),
                polling_period=seconds(10 + 0.25 * i),
            )
            cm.install(constraint, pick_suggestion(suggestions, "polling"))
            pairs.append((src, dst))
        duration = self.duration * scale
        for src, __ in pairs:
            schedule_updates(
                cm,
                src,
                self.keys,
                round(self.rate * duration),
                seconds(duration),
                lambda rng: f"{rng.uniform(0.0, 100.0):.2f}",
            )
        return State(cm, seconds(duration + 30), {"pairs": pairs})

    def observe(self, state, verdict):
        cm = state.cm
        trace = cm.scenario.trace
        sources = {src for src, __ in state.extra["pairs"]}
        targets = {dst: src for src, dst in state.extra["pairs"]}
        deadline = state.horizon - seconds(self.SETTLE_SECONDS)
        polled = {
            e.seq
            for e in trace.events_of_kind(EventKind.READ_REQUEST)
            if e.desc.item.name in sources and e.time <= deadline
        }
        done = set()
        # Target writes per source item, for the staleness span below.
        written: dict[DataItemRef, tuple[list, list]] = {}
        for event in trace.events_of_kind(EventKind.WRITE):
            family = event.desc.item.name
            if family not in targets:
                continue
            chain = event
            while chain.trigger is not None:
                if chain.desc.kind is EventKind.READ_REQUEST:
                    break
                chain = chain.trigger
            if chain.seq in polled:
                done.add(chain.seq)
            src_ref = DataItemRef(targets[family], event.desc.item.args)
            times, values = written.setdefault(src_ref, ([], []))
            times.append(event.time)
            values.append(event.desc.values[0])
        obs = Observation(expected=len(polled), done=done)
        # Source write -> the first later target write carrying its value.
        # An update overwritten inside one polling interval is legitimately
        # missed by polling and has no span.
        updates = 0
        for event in trace.events_of_kind(EventKind.SPONTANEOUS_WRITE):
            updates += 1
            times, values = written.get(event.desc.item, ((), ()))
            index = bisect.bisect_right(times, event.time)
            if index < len(times) and values[index] == event.desc.values[1]:
                obs.vlatencies.append(to_seconds(times[index] - event.time))
        obs.counts = _federation_counts(cm)
        obs.counts["updates"] = updates
        return _observe_verification(verdict, obs)


class Demarcation(Workload):
    """``e4_demarcation.build_inventory_cm`` (EXACT policy) under the
    inventory workload: conditional sends and limit handshakes."""

    def __init__(self, name, why, duration):
        self.name = name
        self.why = why
        self.duration = duration

    def setup(self, seed, scale):
        cm, installed = build_inventory_cm(seed, SlackPolicy.EXACT)
        duration = self.duration * scale
        InventoryWorkload(
            cm.scenario.sim,
            cm.scenario.rngs,
            installed.native_protocol,
            duration=seconds(duration),
        )
        return State(
            cm,
            seconds(duration + 30),
            {"protocol": installed.native_protocol},
        )

    def observe(self, state, verdict):
        protocol = state.extra["protocol"]
        x, y = protocol.x_agent.stats, protocol.y_agent.stats
        attempts = x.updates_attempted + y.updates_attempted
        decided = (
            x.updates_applied
            + y.updates_applied
            + x.updates_denied
            + y.updates_denied
        )
        obs = Observation(expected=attempts, done=decided)
        obs.counts = _federation_counts(state.cm)
        obs.counts["attempts"] = attempts
        obs.counts["denied"] = x.updates_denied + y.updates_denied
        obs.counts["requests"] = x.requests_sent + y.requests_sent
        return _observe_verification(verdict, obs)


class Dispatch(Workload):
    """One shell, no RIS, no network: a notification stream against rules
    with a real right-hand side (condition + private write)."""

    FAMILIES = 64
    KEYS = 16
    #: fam0..15 feed a conditional per-key cache, fam16..31 an
    #: unconditional per-family last value, fam32..63 match no rule.
    CACHE_RULES = 16
    LAST_RULES = 16
    CHUNK = 256
    #: Notifications validated in full by ``validate_trace``: at full
    #: scale the quadratic in-order check would take minutes.
    PREFIX = 5_000

    def __init__(self, name, why, notifications, batched):
        self.name = name
        self.why = why
        self.notifications = notifications
        self.batched = batched

    def _shell(self, seed):
        cm = ConstraintManager(Scenario(seed=seed))
        shell = cm.add_site("bench")
        rules = []
        for i in range(self.CACHE_RULES):
            rules.append(
                parse_rule(
                    f"N(fam{i}(n), b) & (b > 50) -> [0] W(cache{i}(n), b)",
                    name=f"cache{i}",
                )
            )
        for i in range(self.CACHE_RULES, self.CACHE_RULES + self.LAST_RULES):
            rules.append(
                parse_rule(f"N(fam{i}(n), b) -> [0] W(last{i}, b)", name=f"last{i}")
            )
        for rule in rules:
            shell.install(rule)
        return cm, shell, rules

    def _schedule(self, cm, shell, descs):
        """Pre-schedule the feed at increasing ticks; returns the horizon."""
        sim = cm.scenario.sim
        if self.batched:
            starts = range(0, len(descs), self.CHUNK)
            for tick, start in enumerate(starts, start=1):
                chunk = descs[start : start + self.CHUNK]
                sim.at(tick, lambda chunk=chunk: shell.ingest_batch(chunk))
            return len(starts) + 1
        record = cm.scenario.trace.record
        deliver = shell.deliver_local_event
        site = shell.site
        for tick, desc in enumerate(descs, start=1):
            sim.at(
                tick,
                lambda tick=tick, desc=desc: deliver(record(tick, site, desc)),
            )
        return len(descs) + 1

    def setup(self, seed, scale):
        count = max(self.CHUNK, round(self.notifications * scale))
        descs = notification_stream(
            [f"fam{i}" for i in range(self.FAMILIES)], self.KEYS, count, seed=seed
        )
        cm, shell, __ = self._shell(seed)
        horizon = self._schedule(cm, shell, descs)
        return State(cm, horizon, {"descs": descs, "seed": seed})

    def verdict(self, state):
        """Full Appendix-A validation of an untimed-size prefix run."""
        cm, shell, rules = self._shell(state.extra["seed"])
        horizon = self._schedule(cm, shell, state.extra["descs"][: self.PREFIX])
        cm.run(until=horizon)
        # Looked up on the module at call time so the ledger can wrap it.
        return core_trace.validate_trace(cm.scenario.trace, rules)

    def observe(self, state, verdict):
        cm = state.cm
        trace = cm.scenario.trace
        # The reference model: final cells, firing and event counts computed
        # straight from the generated stream.
        cells: dict[DataItemRef, Any] = {}
        firings = 0
        for desc in state.extra["descs"]:
            index = int(desc.item.name[3:])
            value = desc.values[0]
            if index < self.CACHE_RULES:
                if value > 50:
                    cells[DataItemRef(f"cache{index}", desc.item.args)] = value
                    firings += 1
            elif index < self.CACHE_RULES + self.LAST_RULES:
                cells[DataItemRef(f"last{index}")] = value
                firings += 1
        notifications = len(state.extra["descs"])
        stats = cm.stats()["total"]
        obs = Observation(
            expected=notifications, done=stats["events_processed"] - firings
        )
        obs.reference = {
            str(ref): (want, trace.current_value(ref))
            for ref, want in cells.items()
        }
        obs.reference["events"] = (notifications + firings, len(trace.events))
        obs.reference["rules_fired"] = (firings, stats["rules_fired"])
        obs.violations = [str(v) for v in verdict]
        obs.counts = _federation_counts(cm)
        obs.counts["notifications"] = notifications
        return obs


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Fanout(
            "fanout_sim",
            "hub + 32 relational replicas under propagation: the reference "
            "path, where RIS + translator writes are about half the run and "
            "dispatch under a tenth",
            replicas=32,
            keys=50,
            rate=5.0,
            duration=200.0,
        ),
        Polling(
            "polling_sim",
            "8 READ-only branch->hq pairs under polling: the same RIS and "
            "translator layers used for SELECT and periodic enumerating rules, "
            "so a write-path gain that costs reads shows",
            pairs=8,
            keys=40,
            rate=1.0,
            duration=300.0,
        ),
        Demarcation(
            "demarcation_sim",
            "demarcation protocol, EXACT policy: conditional sends and limit "
            "handshakes; more network messages than events, the in-order "
            "check idle",
            duration=100_000.0,
        ),
        Dispatch(
            "dispatch_batched",
            "one shell fed ingest_batch chunks of 256 against rules with a "
            "real RHS: cm.shell + core.trace do all the work, RIS and "
            "translator counters read 0",
            notifications=400_000,
            batched=True,
        ),
        Dispatch(
            "dispatch_per_event",
            "the same stream through record + deliver_local_event, one "
            "scheduler callback per event: the other dispatch path and the "
            "scheduler-heaviest workload",
            notifications=150_000,
            batched=False,
        ),
        Fanout(
            "fanout_wire",
            "fanout with 4 replicas on AsyncRuntime(time_scale=20), open loop "
            "on a real clock: the only workload with codec, framing, channels "
            "and resequencer on the path; reports latency and CPU cost",
            replicas=4,
            keys=25,
            rate=5.0,
            duration=200.0,
            time_scale=20.0,
        ),
    )
}
