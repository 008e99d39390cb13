"""ProcRuntime: every CM-Shell as its own OS process, off the GIL.

``Scenario(runtime="proc")`` deploys the scenario the way the paper's
Figure 1 draws it: one constraint-manager shell per *process*, each with
its own Python interpreter, its own store/translators/rule programs, and
a real loopback-TCP JSON-RPC wire between them (the same
:mod:`repro.runtime.gateway` endpoints the async runtime uses — each
child binds only its own site and dials its peers through injected
ports).  Nothing crosses a process boundary by reference: rule firings,
failure notices, trigger provenance chains, and workload writes all
travel through the by-value codec (:mod:`repro.runtime.codec`).

The architecture is parent-as-coordinator, children-as-shells:

- The **parent** process runs the scenario's bootstrap normally (so the
  test/experiment keeps ordinary objects to inspect: ``cm``, shells,
  translators, the trace) but its shells are *muted* — timers stopped,
  spontaneous writes and failure reports forwarded to the authoritative
  child for that site, and its network stub refuses ``send``.  Workloads
  and scheduled callbacks run **in the parent only**, against the
  parent's wall clock, and each application write is shipped to the
  owning site's process as a ``cm.apply`` notification.
- Each **child** process re-runs the same bootstrap callable (shipped by
  qualified name through the ``spawn`` start method) against a
  :class:`_ChildRuntime`, mutes every shell but its own, opens its wire
  endpoint once, and then serves the parent's control protocol: ``cm.run``
  advances its wall clock to the horizon (anchored to a shared
  ``time.time()`` epoch so all clocks advance in lockstep), ``cm.drain``
  is the cross-process quiesce barrier (wait until ``frames_seen`` per
  inbound channel catches up with the senders' reported
  ``frames_written``), and ``cm.harvest`` returns the child's own-site
  trace events, failure log, and counters by value.
- After the horizon the parent **merges**: harvested events are decoded
  (rules re-resolved against the parent's own installed rule objects,
  sequence numbers preserved — event identity across processes is
  ``(site, seq)``) and re-recorded into the parent trace in global time
  order, so ``check_guarantees``/``validate_trace`` run unchanged over
  one coherent execution trace.

Supervision: the parent pings children between runs, monitors process
liveness during runs, and harvests exit codes.  A child that dies
mid-run becomes a :class:`~repro.cm.failures.FailureNotice` (kind
``logical``, the paper's Section 5 classification for a site that stops
responding) at the parent shell — the run completes without it instead
of hanging.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.errors import ConfigurationError
from repro.core.items import DataItemRef
from repro.core.timebase import Ticks
from repro.runtime.channels import (
    WireFaultPlan,
    decode_payload,
    encode_payload,
)
from repro.runtime.clock import WallClock
from repro.runtime.codec import (
    MAX_TRIGGER_DEPTH,
    decode_event,
    decode_value,
    encode_event,
    encode_value,
)
from repro.runtime.gateway import Gateway, WireNetwork
from repro.runtime.jsonrpc import (
    ErrorResponse,
    Notification,
    ProtocolError,
    Request,
    Response,
)
from repro.runtime.transport import FrameStream
from repro.sim.failures import FailureKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cm.manager import Scenario


# Control-protocol methods (parent <-> child, one TCP stream per child).
REGISTER_METHOD = "cm.register"
PORTS_METHOD = "cm.ports"
RUN_METHOD = "cm.run"
APPLY_METHOD = "cm.apply"
REPORT_FAILURE_METHOD = "cm.report_failure"
DRAIN_METHOD = "cm.drain"
HARVEST_METHOD = "cm.harvest"
PING_METHOD = "cm.ping"
SHUTDOWN_METHOD = "cm.shutdown"

_SENDER_STAT_KEYS = (
    "frames_written",
    "frames_duplicated",
    "frames_reordered",
    "frames_coalesced",
    "frames_dropped_dead",
)
_RECEIVER_STAT_KEYS = (
    "frames_seen",
    "duplicates_discarded",
    "resequencer_high_water",
)


class ProcRuntimeError(RuntimeError):
    """The process runtime failed to make progress (watchdog expired)."""


def trace_rule_resolver(shells: dict[str, Any]) -> Callable[[str], Any]:
    """A rule-name resolver covering everything a trace can attribute.

    Installed rule programs (local and remote-registered) plus the
    translators' interface rules — decoded events re-resolve to these
    exact objects, so provenance indexes keyed by rule identity keep
    working after a cross-process merge.
    """
    rules: dict[str, Any] = {}
    for shell in shells.values():
        rules.update(shell._rules_by_name)
        for name, (rule, _program) in shell._remote_rules.items():
            rules.setdefault(name, rule)
        seen: set[int] = set()
        for translator in shell.translators.values():
            if id(translator) in seen:
                continue
            seen.add(id(translator))
            for spec in translator.offered_interfaces().specs:
                rule = getattr(spec, "rule", None)
                if rule is not None:
                    rules.setdefault(rule.name, rule)
    return rules.get


class ProcNetwork:
    """The parent's transport stub: a topology mirror that never sends.

    The parent's shells register here during bootstrap (so the wiring —
    sites, peers, translators, installed rules — exists as inspectable
    objects), but all real traffic happens between the shell processes.
    ``send`` raising loudly is the contract check: once the parent is
    muted, nothing in-parent should be generating messages.
    """

    def __init__(self, clock: WallClock, default_latency: Any = None) -> None:
        self.clock = clock
        #: Mirrors the scenario's default latency model so static analysis
        #: (CM-Lint feasibility bounds) sees the same topology costs the
        #: children wire up for themselves.
        self.default_latency = default_latency
        self._sites: dict[str, Callable[[Any], None]] = {}
        self._channel_latency: dict[tuple[str, str], Any] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_delivered = 0
        #: Per-channel wire counters merged from the children at harvest:
        #: sender-side fields come from the channel's source process,
        #: receiver-side fields from its destination process.
        self.merged_channel_stats: dict[str, dict[str, int]] = {}

    @property
    def sim(self) -> WallClock:  # parity: Network exposes .sim
        return self.clock

    def register_site(self, site: str, handler: Callable[[Any], None]) -> None:
        if site in self._sites:
            raise ValueError(f"site already registered: {site}")
        self._sites[site] = handler

    def has_site(self, site: str) -> bool:
        return site in self._sites

    @property
    def sites(self) -> list[str]:
        return list(self._sites)

    def set_channel_latency(self, src: str, dst: str, model: Any) -> None:
        # Recorded for the mirror's completeness; the children sample
        # latency from their own (identically seeded) scenario wiring.
        self._channel_latency[(src, dst)] = model

    def send(self, src: str, dst: str, payload: Any) -> Any:
        raise ConfigurationError(
            "the proc runtime's parent process is a coordination mirror; "
            f"nothing should send {src!r}->{dst!r} here — messages move "
            "between the shell processes"
        )

    def channel_stats(self) -> dict[str, dict[str, int]]:
        """Per-channel wire counters, merged from the shell processes."""
        return {
            channel: dict(stats)
            for channel, stats in sorted(self.merged_channel_stats.items())
        }


@dataclass
class _Child:
    """Parent-side state for one shell process."""

    site: str
    process: Any = None
    stream: FrameStream | None = None
    outbox: Any = None  # asyncio.Queue, created on the parent loop
    wire_port: int = 0
    pid: int | None = None
    alive: bool = True
    exit_code: int | None = None
    restarts: int = 0
    writing: bool = False
    reader_task: Any = None
    writer_task: Any = None


class ProcRuntime:
    """The multi-process runtime (``Scenario(runtime="proc")``).

    Needs a *bootstrap*: a picklable module-level callable that rebuilds
    the scenario wiring when called as ``bootstrap(**kwargs, runtime=rt)``
    and returns either an object with a ``cm`` attribute (e.g. the salary
    scenario bundle) or the :class:`~repro.cm.manager.ConstraintManager`
    itself.  Scenario builders hand it over through
    :meth:`accept_bootstrap` (``build_salary_scenario`` does); bespoke
    scenarios pass ``bootstrap=``/``bootstrap_kwargs=`` directly.
    """

    name = "proc"

    def __init__(
        self,
        bootstrap: Callable[..., Any] | None = None,
        bootstrap_kwargs: dict[str, Any] | None = None,
        time_scale: float = 20.0,
        faults: WireFaultPlan | None = None,
        host: str = "127.0.0.1",
        max_wall_seconds: float = 120.0,
        drain_wall: float = 5.0,
        register_wall: float = 30.0,
        epoch_lead: float = 0.25,
    ) -> None:
        self.bootstrap = bootstrap
        self.bootstrap_kwargs = dict(bootstrap_kwargs or {})
        self.time_scale = time_scale
        self.faults = faults
        self.host = host
        self.max_wall_seconds = max_wall_seconds
        self.drain_wall = drain_wall
        self.register_wall = register_wall
        #: How far in the future (wall seconds) the shared clock epoch is
        #: placed at each ``cm.run``: every process must *activate* its
        #: clock before virtual time starts moving, or activation lag
        #: would show up as skipped virtual time.
        self.epoch_lead = epoch_lead
        self.clock: WallClock | None = None
        self.network: ProcNetwork | None = None
        self._scenario: "Scenario | None" = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._children: dict[str, _Child] = {}
        self._pending: dict[tuple[str, int], asyncio.Future] = {}
        self._next_id = 1
        self._register_event: asyncio.Event | None = None
        self._started = False
        self._closing = False
        self._shells: dict[str, Any] = {}
        self._rule_resolver: Callable[[str], Any] | None = None
        # Cumulative-counter snapshots already applied to parent shells.
        self._stats_applied: dict[str, dict[str, int]] = {}
        self._fired_applied: dict[str, dict[str, int]] = {}
        self._net_by_site: dict[str, dict[str, int]] = {}

    # -- Runtime protocol -------------------------------------------------------

    def accept_bootstrap(
        self, bootstrap: Callable[..., Any], kwargs: dict[str, Any]
    ) -> None:
        """Scenario builders hand over their own (picklable) recipe here.

        First one wins: an explicitly constructed ProcRuntime keeps the
        bootstrap it was given.
        """
        if self.bootstrap is None:
            self.bootstrap = bootstrap
            self.bootstrap_kwargs = dict(kwargs)

    def build(self, scenario: "Scenario") -> tuple[WallClock, ProcNetwork]:
        self._scenario = scenario
        self.clock = WallClock(time_scale=self.time_scale)
        self.network = ProcNetwork(self.clock, scenario.default_latency)
        return self.clock, self.network

    def run(self, scenario: "Scenario", until: Ticks) -> None:
        """Advance every shell process (and the parent workload) to ``until``."""
        if self.clock is None or self.network is None:
            raise ProcRuntimeError("runtime was never built for a scenario")
        if self.bootstrap is None:
            raise ConfigurationError(
                "the proc runtime needs a picklable bootstrap to rebuild "
                "the scenario inside each shell process; build the scenario "
                "through a builder that calls runtime.accept_bootstrap(...) "
                "(build_salary_scenario does) or pass bootstrap= explicitly"
            )
        loop = self._ensure_loop()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            loop.run_until_complete(self._session(scenario, until))
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect()

    def shutdown(self, scenario: "Scenario | None" = None) -> None:
        """Orderly teardown: cm.shutdown to every live child, then join."""
        self._closing = True
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.run_until_complete(self._shutdown_session())
            finally:
                loop.close()
        self._loop = None
        self._started = False
        for child in self._children.values():
            process = child.process
            if process is None:
                continue
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            child.alive = False
            child.exit_code = process.exitcode

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        for child in getattr(self, "_children", {}).values():
            process = child.process
            try:
                if process is not None and process.is_alive():
                    process.terminate()
            except Exception:
                pass

    # -- supervision / reporting ------------------------------------------------

    def process_info(self) -> dict[str, dict[str, Any]]:
        """Live pid/exit/restart facts per shell process."""
        info: dict[str, dict[str, Any]] = {}
        for site, child in sorted(self._children.items()):
            process = child.process
            alive = bool(process is not None and process.is_alive())
            exit_code = child.exit_code
            if exit_code is None and process is not None and not alive:
                exit_code = process.exitcode
            info[site] = {
                "pid": child.pid,
                "alive": alive,
                "exit_code": exit_code,
                "restarts": child.restarts,
            }
        return info

    def process_report(self) -> dict[str, Any]:
        """The run report's ``processes`` section."""
        return {
            "enabled": True,
            "runtime": self.name,
            "sites": self.process_info(),
        }

    # -- parent internals -------------------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        # One persistent loop across run() calls: the control server and
        # the child streams live on it, so asyncio.run's loop-per-call
        # would orphan them between runs.
        if self._loop is None or self._loop.is_closed():
            self._loop = asyncio.new_event_loop()
        return self._loop

    def _live_sites(self) -> list[str]:
        return [
            site
            for site, child in self._children.items()
            if child.alive and child.stream is not None
        ]

    async def _session(self, scenario: "Scenario", until: Ticks) -> None:
        try:
            await asyncio.wait_for(
                self._advance(scenario, until), timeout=self.max_wall_seconds
            )
        except asyncio.TimeoutError:  # noqa: UP041 — alias only on 3.11+
            raise ProcRuntimeError(
                f"proc runtime made no progress to horizon {until} within "
                f"{self.max_wall_seconds} wall seconds"
            ) from None

    async def _advance(self, scenario: "Scenario", until: Ticks) -> None:
        assert self.clock is not None and self.network is not None
        if not self._started:
            await self._start_children()
            self._mute_parent()
            self._started = True
        else:
            await self._ping_children()
        epoch = _time.time() + self.epoch_lead
        self.clock.sync_epoch = epoch
        monitor = asyncio.create_task(self._monitor())
        try:
            run_futures = {
                site: self._request(
                    site, RUN_METHOD, {"until": until, "epoch": epoch}
                )
                for site in self._live_sites()
            }
            await self.clock.run_until(until)
            await self._flush_outboxes()
            # Per-channel cumulative frames written, as reported by each
            # live sender after its own horizon + sender flush.
            written: dict[str, int] = {}
            for site, future in run_futures.items():
                result = await future  # None when the child died mid-run
                if result is None:
                    continue
                for channel, count in result.get("frames_written", {}).items():
                    written[channel] = count
            drain_futures = {}
            for site in self._live_sites():
                expected = {
                    channel: count
                    for channel, count in written.items()
                    if channel.split("->", 1)[1] == site
                }
                drain_futures[site] = self._request(
                    site, DRAIN_METHOD, {"expected": expected}
                )
            for future in drain_futures.values():
                await future
            harvest_futures = {
                site: self._request(site, HARVEST_METHOD, {})
                for site in self._live_sites()
            }
            harvests: dict[str, dict[str, Any]] = {}
            for site, future in harvest_futures.items():
                result = await future
                if result is not None:
                    harvests[site] = result
            self._merge(scenario, harvests)
        finally:
            monitor.cancel()

    async def _start_children(self) -> None:
        assert self.network is not None
        loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._accept_control, self.host, 0
        )
        control_port = self._server.sockets[0].getsockname()[1]
        self._register_event = asyncio.Event()
        context = multiprocessing.get_context("spawn")
        for site in self.network.sites:
            child = _Child(site=site)
            child.process = context.Process(
                target=_child_main,
                args=(
                    site,
                    self.host,
                    control_port,
                    self.bootstrap,
                    self.bootstrap_kwargs,
                    self.time_scale,
                    self.faults,
                    self.drain_wall,
                ),
                daemon=True,
                name=f"cm-shell-{site}",
            )
            self._children[site] = child
            child.process.start()
            child.pid = child.process.pid
        deadline = loop.time() + self.register_wall
        while any(c.stream is None for c in self._children.values()):
            for site, child in self._children.items():
                if child.stream is None and not child.process.is_alive():
                    raise ProcRuntimeError(
                        f"shell process for site {site!r} died during "
                        f"startup (exit code {child.process.exitcode})"
                    )
            if loop.time() > deadline:
                missing = [
                    s for s, c in self._children.items() if c.stream is None
                ]
                raise ProcRuntimeError(
                    f"timed out waiting for shell processes to register: "
                    f"{missing}"
                )
            try:
                await asyncio.wait_for(
                    self._register_event.wait(), timeout=0.1
                )
            except asyncio.TimeoutError:
                pass
            self._register_event.clear()
        ports = {
            site: child.wire_port for site, child in self._children.items()
        }
        await asyncio.gather(
            *(
                self._request(site, PORTS_METHOD, {"ports": ports})
                for site in self._live_sites()
            )
        )

    async def _accept_control(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        stream = FrameStream(reader, writer)
        try:
            hello = await stream.recv()
        except ProtocolError:
            await stream.close()
            return
        if not isinstance(hello, Request) or hello.method != REGISTER_METHOD:
            await stream.close()
            return
        site = hello.params.get("site")
        child = self._children.get(site)
        if child is None or child.stream is not None:
            await stream.send(
                ErrorResponse(
                    id=hello.id, code=-32600, message=f"unexpected site {site!r}"
                )
            )
            await stream.close()
            return
        child.stream = stream
        child.outbox = asyncio.Queue()
        child.wire_port = int(hello.params.get("wire_port", 0))
        child.pid = int(hello.params.get("pid", child.pid or 0)) or child.pid
        await stream.send(Response(id=hello.id, result={"site": site}))
        child.reader_task = asyncio.create_task(self._read_loop(child))
        child.writer_task = asyncio.create_task(self._write_loop(child))
        if self._register_event is not None:
            self._register_event.set()

    async def _read_loop(self, child: _Child) -> None:
        while True:
            try:
                frame = await child.stream.recv()
            except ProtocolError:
                frame = None
            if frame is None:
                if not self._closing:
                    self._mark_dead(child.site)
                return
            if isinstance(frame, Response):
                future = self._pending.pop((child.site, frame.id), None)
                if future is not None and not future.done():
                    future.set_result(frame.result)
            elif isinstance(frame, ErrorResponse):
                future = self._pending.pop((child.site, frame.id), None)
                if future is not None and not future.done():
                    future.set_exception(
                        ProcRuntimeError(
                            f"shell process {child.site!r}: {frame.message}"
                        )
                    )

    async def _write_loop(self, child: _Child) -> None:
        while True:
            message = await child.outbox.get()
            child.writing = True
            try:
                await child.stream.send(message)
            except (ConnectionResetError, BrokenPipeError, RuntimeError, OSError):
                if not self._closing:
                    self._mark_dead(child.site)
                return
            finally:
                child.writing = False

    def _request(
        self, site: str, method: str, params: dict[str, Any]
    ) -> asyncio.Future:
        assert self._loop is not None
        future = self._loop.create_future()
        child = self._children.get(site)
        if child is None or not child.alive or child.stream is None:
            future.set_result(None)
            return future
        request_id = self._next_id
        self._next_id += 1
        self._pending[(site, request_id)] = future
        child.outbox.put_nowait(Request(method, params, id=request_id))
        return future

    def _notify(self, site: str, method: str, params: dict[str, Any]) -> None:
        child = self._children.get(site)
        if child is None or not child.alive or child.outbox is None:
            return  # writes to a failed site are lost, like any send to it
        child.outbox.put_nowait(Notification(method, params))

    async def _flush_outboxes(self, wall_budget: float = 5.0) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + wall_budget
        while loop.time() < deadline:
            busy = any(
                child.alive
                and child.outbox is not None
                and (not child.outbox.empty() or child.writing)
                for child in self._children.values()
            )
            if not busy:
                return
            await asyncio.sleep(0.002)

    async def _monitor(self) -> None:
        """Liveness watch during a run: a dead child must not hang the run."""
        while True:
            await asyncio.sleep(0.1)
            for site, child in list(self._children.items()):
                if child.alive and not child.process.is_alive():
                    self._mark_dead(site)

    def _mark_dead(self, site: str) -> None:
        child = self._children.get(site)
        if child is None or not child.alive:
            return
        child.alive = False
        child.exit_code = (
            child.process.exitcode if child.process is not None else None
        )
        for key, future in list(self._pending.items()):
            if key[0] == site:
                self._pending.pop(key, None)
                if not future.done():
                    future.set_result(None)
        if child.writer_task is not None:
            child.writer_task.cancel()
        shell = self._shells.get(site)
        if shell is not None and self.clock is not None:
            from repro.cm.failures import FailureNotice

            shell._handle_failure(
                FailureNotice(
                    site=site,
                    source_name="cm-shell-process",
                    kind=FailureKind.LOGICAL,
                    time=self.clock.now,
                    detail=(
                        f"shell process (pid {child.pid}) exited with code "
                        f"{child.exit_code}"
                    ),
                    recovered=False,
                )
            )

    async def _ping_children(self) -> None:
        futures = {
            site: self._request(site, PING_METHOD, {})
            for site in self._live_sites()
        }
        for site, future in futures.items():
            try:
                result = await asyncio.wait_for(future, timeout=5.0)
            except asyncio.TimeoutError:
                result = None
            if result is None:
                self._mark_dead(site)

    # -- parent muting ----------------------------------------------------------

    def _mute_parent(self) -> None:
        """Silence the parent's shells; forward their inputs to the children.

        After this, the parent wiring is a read-only mirror: timers are
        stopped, each translator's ``apply_spontaneous_write`` ships the
        write to the owning site's process (deletes ride the same method —
        a delete is a write of MISSING), and ``report_failure`` ships the
        notice to the site's process, whose shell logs it and relays it
        over the real wire.  Harvest replays everything back.
        """
        assert self.network is not None
        shells: dict[str, Any] = {}
        for site, handler in self.network._sites.items():
            shell = getattr(handler, "__self__", None)
            if shell is None:
                raise ConfigurationError(
                    f"proc runtime cannot mirror site {site!r}: its handler "
                    f"is not a CMShell method"
                )
            shells[site] = shell
        self._shells = shells
        for site, shell in shells.items():
            shell.stop_timers()
            self._wrap_shell(site, shell)
        self._rule_resolver = trace_rule_resolver(shells)

    def _wrap_shell(self, site: str, shell: Any) -> None:
        runtime = self

        def forward_failure(notice: Any, _site: str = site) -> None:
            runtime._notify(
                _site,
                REPORT_FAILURE_METHOD,
                {"site": _site, "notice": encode_payload(notice)},
            )

        shell.report_failure = forward_failure
        seen: set[int] = set()
        for translator in shell.translators.values():
            if id(translator) in seen:
                continue
            seen.add(id(translator))

            def forward_write(
                ref: DataItemRef, value: Any, _site: str = site
            ) -> None:
                runtime._notify(
                    _site,
                    APPLY_METHOD,
                    {
                        "family": ref.name,
                        "args": [encode_value(a) for a in ref.args],
                        "value": encode_value(value),
                    },
                )
                return None

            translator.apply_spontaneous_write = forward_write

    # -- harvest merge ----------------------------------------------------------

    def _merge(
        self, scenario: "Scenario", harvests: dict[str, dict[str, Any]]
    ) -> None:
        assert self.network is not None
        resolver = self._rule_resolver
        decoded = []
        for result in harvests.values():
            for data in result.get("events", ()):
                decoded.append(decode_event(data, resolver))
        decoded.sort(key=lambda event: (event.time, event.site, event.seq))
        trace = scenario.trace
        events = trace.events
        last = events[-1].time if events else 0
        for event in decoded:
            when = event.time if event.time > last else last
            trace.record(
                when,
                event.site,
                event.desc,
                rule=event.rule,
                trigger=event.trigger,
                seq=event.seq,
            )
            last = when
        for site, result in harvests.items():
            self._apply_shell_stats(site, result)
            self._replay_failures(site, result.get("failures", ()))
            self._merge_channel_stats(site, result.get("channels", {}))
            net = result.get("net")
            if net:
                self._net_by_site[site] = net
        network = self.network
        network.messages_sent = sum(
            n.get("messages_sent", 0) for n in self._net_by_site.values()
        )
        network.messages_dropped = sum(
            n.get("messages_dropped", 0) for n in self._net_by_site.values()
        )
        network.messages_delivered = sum(
            n.get("messages_delivered", 0) for n in self._net_by_site.values()
        )

    def _apply_shell_stats(self, site: str, result: dict[str, Any]) -> None:
        shell = self._shells.get(site)
        if shell is None:
            return
        stats = result.get("shell", {})
        previous = self._stats_applied.get(site, {})

        def delta(key: str) -> int:
            return stats.get(key, 0) - previous.get(key, 0)

        shell._m_events.value += delta("events_processed")
        shell._m_candidates.value += delta("candidates_considered")
        shell._m_fired.value += delta("rules_fired")
        shell._m_batches.value += delta("batches_processed")
        shell._m_batch_events.value += delta("batch_events")
        self._stats_applied[site] = dict(stats)
        fired = result.get("fired", {})
        fired_previous = self._fired_applied.get(site, {})
        for name, count in fired.items():
            counter = shell._fired_by_rule.get(name)
            if counter is not None:
                counter.value += count - fired_previous.get(name, 0)
        self._fired_applied[site] = dict(fired)

    def _replay_failures(self, site: str, failures: Any) -> None:
        # Replayed through _handle_failure (log + listeners, no re-relay):
        # the child's shell saw these — locally reported and peer-relayed
        # alike — so the matching parent shell mirrors its log exactly,
        # and the guarantee board deduplicates by notice value.
        shell = self._shells.get(site)
        if shell is None:
            return
        for data in failures:
            shell._handle_failure(decode_payload(data))

    def _merge_channel_stats(
        self, site: str, channels: dict[str, dict[str, int]]
    ) -> None:
        assert self.network is not None
        merged = self.network.merged_channel_stats
        for channel, stats in channels.items():
            src, _, dst = channel.partition("->")
            entry = merged.setdefault(
                channel,
                {key: 0 for key in _SENDER_STAT_KEYS + _RECEIVER_STAT_KEYS},
            )
            if src == site:
                for key in _SENDER_STAT_KEYS:
                    entry[key] = stats.get(key, 0)
            if dst == site:
                for key in _RECEIVER_STAT_KEYS:
                    entry[key] = stats.get(key, 0)

    # -- teardown ---------------------------------------------------------------

    async def _shutdown_session(self) -> None:
        futures = [
            self._request(site, SHUTDOWN_METHOD, {})
            for site in self._live_sites()
        ]
        for future in futures:
            try:
                await asyncio.wait_for(future, timeout=5.0)
            except (asyncio.TimeoutError, ProcRuntimeError):
                pass
        for child in self._children.values():
            for task in (child.reader_task, child.writer_task):
                if task is not None:
                    task.cancel()
            if child.stream is not None:
                await child.stream.close()
                child.stream = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


# -- the child process ---------------------------------------------------------


class _ChildRuntime:
    """The runtime a shell process builds its scenario against.

    One wall clock plus a :class:`WireNetwork` that binds only this
    process's site; peers are dialed through ports injected by the
    parent's ``cm.ports``.  ``run`` is never called through the Scenario —
    the control-protocol server drives the clock directly.
    """

    name = "proc-child"

    def __init__(
        self,
        site: str,
        time_scale: float,
        faults: WireFaultPlan | None,
        host: str,
    ) -> None:
        self.site = site
        self.time_scale = time_scale
        self.faults = faults
        self.host = host
        self.clock: WallClock | None = None
        self.wire: WireNetwork | None = None

    def build(self, scenario: "Scenario") -> tuple[WallClock, WireNetwork]:
        self.clock = WallClock(time_scale=self.time_scale)
        self.wire = WireNetwork(
            self.clock,
            rng_registry=scenario.rngs,
            default_latency=scenario.default_latency,
            failure_plan=scenario.failure_plan,
            in_order=scenario.in_order,
            obs=scenario.obs,
            faults=self.faults,
            gateway=Gateway(self.host),
            local_sites=[self.site],
        )
        return self.clock, self.wire

    def run(self, scenario: "Scenario", until: Ticks) -> None:
        raise ConfigurationError(
            "a proc-runtime shell process is driven by the control "
            "protocol, not by Scenario.run"
        )

    def shutdown(self, scenario: "Scenario") -> None:
        """The control server owns the sockets; nothing to do here."""


def _child_main(
    site: str,
    host: str,
    control_port: int,
    bootstrap: Callable[..., Any],
    bootstrap_kwargs: dict[str, Any],
    time_scale: float,
    faults: WireFaultPlan | None,
    drain_wall: float,
) -> None:
    """Process entry point for one CM-Shell (spawn start method)."""
    try:
        asyncio.run(
            _child_session(
                site,
                host,
                control_port,
                bootstrap,
                bootstrap_kwargs,
                time_scale,
                faults,
                drain_wall,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive interrupt
        pass


async def _child_session(
    site: str,
    host: str,
    control_port: int,
    bootstrap: Callable[..., Any],
    bootstrap_kwargs: dict[str, Any],
    time_scale: float,
    faults: WireFaultPlan | None,
    drain_wall: float,
) -> None:
    runtime = _ChildRuntime(site, time_scale, faults, host)
    built = bootstrap(**bootstrap_kwargs, runtime=runtime)
    cm = getattr(built, "cm", built)
    clock = runtime.clock
    wire = runtime.wire
    assert clock is not None and wire is not None
    # This process is authoritative for exactly one site: every peer
    # shell in the rebuilt wiring is muted (no timers), and the wire only
    # binds this site's endpoint, so peers cannot receive here either.
    for peer, shell in cm.shells.items():
        if peer != site:
            shell.stop_timers()
    own_shell = cm.shell(site)
    await wire.start()
    control = await FrameStream.open(host, control_port)
    send_lock = asyncio.Lock()

    async def send(message: Any) -> None:
        async with send_lock:
            await control.send(message)

    await send(
        Request(
            REGISTER_METHOD,
            {
                "site": site,
                "wire_port": wire.gateway.ports[site],
                "pid": os.getpid(),
            },
            id=0,
        )
    )
    ack = await control.recv()
    if not isinstance(ack, Response):
        await control.close()
        return
    event_cursor = 0
    failure_cursor = 0
    tasks: set[asyncio.Task] = set()

    def spawn(coroutine: Any) -> None:
        task = asyncio.create_task(coroutine)
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    async def run_once(request_id: Any, params: dict[str, Any]) -> None:
        until = params["until"]
        clock.sync_epoch = params.get("epoch")
        wire.horizon = until
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            await clock.run_until(until)
            await wire.flush_senders(drain_wall)
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect()
        written = {}
        for channel, stats in wire.channel_stats().items():
            src, _, _dst = channel.partition("->")
            if src == site:
                written[channel] = stats["frames_written"]
        await send(Response(id=request_id, result={"frames_written": written}))

    async def drain(request_id: Any, params: dict[str, Any]) -> None:
        expected = params.get("expected", {})
        loop = asyncio.get_running_loop()
        deadline = loop.time() + drain_wall

        def satisfied() -> bool:
            for channel, count in expected.items():
                src, _, dst = channel.partition("->")
                if wire.frames_seen.get((src, dst), 0) < count:
                    return False
            return True

        while not satisfied() and loop.time() < deadline:
            await asyncio.sleep(0.002)
        await send(Response(id=request_id, result={"drained": satisfied()}))

    def harvest() -> dict[str, Any]:
        nonlocal event_cursor, failure_cursor
        events = cm.scenario.trace.events
        own_events = [
            encode_event(event, MAX_TRIGGER_DEPTH)
            for event in events[event_cursor:]
            if event.site == site
        ]
        event_cursor = len(events)
        failures = [
            encode_payload(notice)
            for notice in own_shell.failure_log[failure_cursor:]
        ]
        failure_cursor = len(own_shell.failure_log)
        return {
            "events": own_events,
            "failures": failures,
            "shell": own_shell.stats(),
            "fired": {
                name: counter.value
                for name, counter in own_shell._fired_by_rule.items()
            },
            "net": {
                "messages_sent": wire.messages_sent,
                "messages_dropped": wire.messages_dropped,
                "messages_delivered": wire.messages_delivered,
            },
            "channels": wire.channel_stats(),
            "clock": {
                "events_processed": clock.events_processed,
                "max_queue_depth": clock.max_queue_depth,
            },
        }

    def apply_write(params: dict[str, Any]) -> None:
        ref_args = tuple(decode_value(a) for a in params["args"])
        value = decode_value(params["value"])
        cm.spontaneous_write(params["family"], ref_args, value)

    def report_failure(params: dict[str, Any]) -> None:
        notice = decode_payload(params["notice"])
        cm.shell(params.get("site", site)).report_failure(notice)

    try:
        while True:
            try:
                frame = await control.recv()
            except ProtocolError:
                continue
            if frame is None:
                break  # parent went away: exit gracefully
            if isinstance(frame, Request):
                method = frame.method
                params = frame.params or {}
                if method == PORTS_METHOD:
                    wire.gateway.set_remote_ports(
                        {s: int(p) for s, p in params["ports"].items()}
                    )
                    await send(Response(id=frame.id, result={}))
                elif method == RUN_METHOD:
                    spawn(run_once(frame.id, params))
                elif method == DRAIN_METHOD:
                    spawn(drain(frame.id, params))
                elif method == HARVEST_METHOD:
                    await send(Response(id=frame.id, result=harvest()))
                elif method == PING_METHOD:
                    await send(
                        Response(
                            id=frame.id,
                            result={"site": site, "pid": os.getpid()},
                        )
                    )
                elif method == SHUTDOWN_METHOD:
                    await send(Response(id=frame.id, result={}))
                    break
                else:
                    await send(
                        ErrorResponse(
                            id=frame.id,
                            code=-32601,
                            message=f"unknown method {method!r}",
                        )
                    )
            elif isinstance(frame, Notification):
                if frame.method == APPLY_METHOD:
                    apply_write(frame.params)
                elif frame.method == REPORT_FAILURE_METHOD:
                    report_failure(frame.params)
    finally:
        for task in tasks:
            task.cancel()
        try:
            await wire.stop()
        except Exception:
            pass
        await control.close()
