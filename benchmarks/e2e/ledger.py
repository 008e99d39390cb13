"""The outside-in layer ledger: spans around the calls *into* each layer.

Nothing under ``src/`` is edited.  :meth:`Ledger.install` replaces, at run
time, the public entry points of each layer (and the two scheduling
methods, so every scheduled callback becomes a root span named after the
module that scheduled it) with wrappers that record ``(name, start, end,
parent)`` into an in-memory list; :meth:`Ledger.uninstall` puts the
originals back.  A span name is ``layer.part`` with the layer being the
module name (``ris``, ``translator``, ``shell``, ``sim``, ``demarcation``,
``runtime``, ``trace``, ``verify``, ``obs``, ``workloads``); a layer's
self-time is its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import repro.analysis
import repro.core.trace
import repro.ris.relational.database
import repro.runtime.gateway
from repro.cm.manager import ConstraintManager
from repro.cm.shell import CMShell
from repro.cm.translator import CMTranslator
from repro.core.trace import ExecutionTrace
from repro.protocols.demarcation import DemarcationAgent
from repro.ris.relational import RelationalDatabase
from repro.runtime.clock import WallClock
from repro.runtime.gateway import WireNetwork
from repro.sim.network import Network
from repro.sim.scheduler import Simulator

#: ``repro.cm.verify`` the attribute is the function; this is the module.
verify_module = importlib.import_module("repro.cm.verify")

#: Root-span name for a scheduled callback, by the module that defined it.
CALLBACK_SPANS = {
    "repro.sim.network": "sim.net",
    "repro.sim.process": "sim.timer",
    "repro.cm.shell": "shell.dispatch",
    "repro.protocols.demarcation": "demarcation.protocol",
}


def callback_span(callback) -> str:
    """The span a scheduled callback is booked under."""
    module = getattr(callback, "__module__", None) or ""
    name = CALLBACK_SPANS.get(module)
    if name is not None:
        return name
    if module == "repro.cm.translator":
        # The translator's completions are closures; their qualified name
        # says which operation they finish.
        qualname = getattr(callback, "__qualname__", "")
        for part in ("write", "read", "notif"):
            if part in qualname:
                return "translator." + ("notify" if part == "notif" else part)
        return "translator.other"
    if module.startswith("repro.") and not module.startswith("repro.workloads"):
        return module[len("repro.") :]
    # repro.workloads.* generators and the benchmark's own feed callbacks.
    return "workloads.generate"


@dataclass
class Totals:
    """One phase's spans, summed per span name.  ``covered`` is the wall
    under root spans: what the ledger attributes at all."""

    sql_texts: set
    sql_verbs: dict
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    inclusive: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    covered: float = 0.0


class Ledger:
    """In-memory span recorder plus the run-time wrappers that feed it."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent_index)``; a slot is ``None`` while
        #: its span is open.
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.sql_texts: set[str] = set()
        self.sql_verbs: dict[str, int] = defaultdict(int)

    # -- recording -------------------------------------------------------------

    def wrap(self, name: str, fn, before=None):
        """``fn`` recorded as a span; ``before(*args)`` sees its arguments."""
        spans, stack, clock = self.spans, self._stack, perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` from the benchmark's own code as a span."""
        return self.wrap(name, fn)(*args)

    def take(self) -> "Totals":
        """Analyse and forget the spans recorded since the last take: one
        call per phase keeps set-up, run, verdict and report apart."""
        assert not self._stack, "taken inside an open span"
        totals = Totals(set(self.sql_texts), dict(self.sql_verbs))
        spans = self.spans
        for name, start, end, parent in spans:
            duration = end - start
            totals.self_s[name] += duration
            totals.inclusive[name] += duration
            totals.calls[name] += 1
            if parent >= 0:
                totals.self_s[spans[parent][0]] -= duration
            else:
                totals.covered += duration
        del spans[:]
        self.sql_texts.clear()
        self.sql_verbs.clear()
        return totals

    # -- installation -------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_span(self, owner, attr: str, name: str, before=None) -> None:
        self._patch(owner, attr, self.wrap(name, owner.__dict__[attr], before))

    def _patch_scheduler(self, clock_class) -> None:
        original = clock_class.__dict__["at"]
        ledger = self

        def at(self, time, callback):
            return original(
                self, time, ledger.wrap(callback_span(callback), callback)
            )

        self._patch(clock_class, "at", at)

    def _patch_register_site(self, network_class) -> None:
        original = network_class.__dict__["register_site"]
        ledger = self

        def register_site(self, site, handler):
            return original(
                self, site, ledger.wrap("shell.remote_fire", handler)
            )

        self._patch(network_class, "register_site", register_site)

    def install(self) -> None:
        """Wrap every layer's entry points.  Idempotence is not needed:
        one ledger is installed once and uninstalled once."""
        assert not self._patches, "ledger already installed"
        # ``after`` goes through ``at`` on both clocks.
        self._patch_scheduler(Simulator)
        self._patch_scheduler(WallClock)
        self._patch_span(Simulator, "run", "sim.scheduler")
        self._patch_register_site(Network)
        self._patch_register_site(WireNetwork)
        self._patch_span(Network, "send", "sim.net")

        def note_sql(db, sql, params=()):
            self.sql_verbs[sql.split(None, 1)[0].upper()] += 1

        self._patch_span(RelationalDatabase, "execute", "ris.execute", note_sql)
        self._patch_span(
            repro.ris.relational.database,
            "parse_sql",
            "ris.parse",
            self.sql_texts.add,
        )
        self._patch_span(CMTranslator, "request_write", "translator.write")
        self._patch_span(CMTranslator, "request_read", "translator.read")
        self._patch_span(
            CMTranslator, "apply_spontaneous_write", "translator.spontaneous"
        )
        for entry in ("deliver_local_event", "deliver_local_events", "ingest_batch"):
            self._patch_span(CMShell, entry, "shell.dispatch")
        self._patch_span(ExecutionTrace, "record", "trace.record")
        self._patch_span(ExecutionTrace, "record_batch", "trace.record_batch")
        self._patch_span(DemarcationAgent, "attempt_update", "demarcation.protocol")
        self._patch_span(DemarcationAgent, "handle_message", "demarcation.protocol")
        self._patch_span(repro.runtime.gateway, "encode_payload", "runtime.codec")
        self._patch_span(repro.runtime.gateway, "decode_payload", "runtime.codec")
        self._patch_span(repro.analysis, "lint_manager", "verify.lint")
        self._patch_span(ConstraintManager, "check_guarantees", "verify.guarantees")
        self._patch_span(verify_module, "validate_trace", "verify.validity")
        self._patch_span(repro.core.trace, "validate_trace", "verify.validity")
        self._patch_span(ConstraintManager, "run_report", "obs.report")

    def uninstall(self) -> None:
        """Put every original back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
