"""The structured end-of-run report.

A :class:`RunReport` is the one document that makes two runs comparable:
per-constraint firing counts, propagation-latency histograms, network
channel statistics and queue depths, translator RISI op counts, failure
classifications, and per-guarantee staleness.  It is assembled from the
scenario's metrics registry, guarantee-status board, and (when attached)
flight recorder — :meth:`repro.cm.manager.ConstraintManager.run_report`
builds one, and ``experiments/runner.py --json`` persists them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Union

from repro.core.items import DataItemRef
from repro.core.timebase import Ticks, to_seconds
from repro.obs.metrics import MetricsRegistry


@dataclass
class RunReport:
    """Structured summary of one scenario run (all times in seconds)."""

    horizon_s: float
    dispatch: dict[str, dict[str, int]]
    constraints: list[dict] = field(default_factory=list)
    propagation: list[dict] = field(default_factory=list)
    network: dict = field(default_factory=dict)
    translators: list[dict] = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    guarantees: list[dict] = field(default_factory=list)
    scheduler: dict = field(default_factory=dict)
    trace_index: dict = field(default_factory=dict)
    #: Static CM-Lint findings over the configuration (list of
    #: ``Diagnostic.to_dict()`` entries), so a persisted run report records
    #: what was statically knowable about the wiring that produced it.
    lint: list[dict] = field(default_factory=list)
    #: Flight-recorder digest — ring fill levels plus every incident dump
    #: (failures and guarantee violations); empty unless the recorder was
    #: enabled.
    flight: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "horizon_s": self.horizon_s,
            "dispatch": self.dispatch,
            "constraints": self.constraints,
            "propagation": self.propagation,
            "network": self.network,
            "translators": self.translators,
            "failures": self.failures,
            "guarantees": self.guarantees,
            "scheduler": self.scheduler,
            "trace_index": self.trace_index,
            "lint": self.lint,
            "flight": self.flight,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(_refs_as_str(self.to_dict()), indent=indent, default=str)

    def write_to(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    def render(self) -> str:
        """Human-readable digest (the JSON carries the full detail)."""
        lines = [f"run report (horizon {self.horizon_s:g}s)"]
        total = self.dispatch.get("total", {})
        lines.append(
            f"  dispatch: {total.get('events_processed', 0)} events, "
            f"{total.get('candidates_considered', 0)} candidates, "
            f"{total.get('rules_fired', 0)} fired "
            f"({total.get('rules_installed', 0)} rules installed)"
        )
        for entry in self.constraints:
            fired = sum(entry["rules_fired"].values())
            lines.append(
                f"  constraint {entry['constraint']}: "
                f"{entry['strategy']} strategy, {fired} firings"
            )
        for entry in self.propagation:
            lines.append(
                f"  propagation {entry['family']}: n={entry['count']}, "
                f"mean={entry['mean_s']:.3f}s, max={entry['max_s']:.3f}s"
            )
        net = self.network
        if net:
            lines.append(
                f"  network: {net.get('messages_sent', 0)} sent, "
                f"{net.get('messages_dropped', 0)} dropped, "
                f"{len(net.get('channels', []))} channels"
            )
        for entry in self.translators:
            lines.append(
                f"  translator {entry['source']}: "
                f"{entry['reads_requested']}r/{entry['writes_requested']}w, "
                f"{entry['notifications_delivered']} notify"
            )
        failures = self.failures
        if failures.get("total", 0):
            lines.append(
                f"  failures: {failures.get('metric', 0)} metric, "
                f"{failures.get('logical', 0)} logical, "
                f"{failures.get('recoveries', 0)} recoveries"
            )
        for entry in self.guarantees:
            staleness = entry["staleness_s"]
            lines.append(
                f"  guarantee {entry['name']}: "
                f"{'standing' if entry['standing'] else 'NOT standing'}, "
                f"stale {staleness:g}s ({entry['staleness_fraction']:.1%})"
            )
        flight = self.flight
        if flight:
            lines.append(
                f"  flight: {flight.get('records_taken', 0)} digests over "
                f"{len(flight.get('ring_sizes', {}))} rings, "
                f"{len(flight.get('dumps', []))} dumps"
            )
            for dump in flight.get("dumps", []):
                lines.append(
                    f"    dump {dump['reason']} at {dump['time_s']:g}s "
                    f"({len(dump['records'])} records)"
                )
        index = self.trace_index
        if index:
            lines.append(
                f"  trace: {index.get('events_recorded', 0)} events over "
                f"{index.get('items_tracked', 0)} items, "
                f"{index.get('state_versions', 0)} state versions, "
                f"{index.get('interpretation_materializations', 0)} "
                f"materializations"
            )
        return "\n".join(lines)


def _refs_as_str(value: Any) -> Any:
    """``value`` with every :class:`DataItemRef` in it rendered as its
    ``str``.  A ref is a tuple, and ``json`` encodes a tuple (subclass or
    not) as a list without consulting ``default``."""
    if isinstance(value, DataItemRef):
        return str(value)
    if isinstance(value, dict):
        return {key: _refs_as_str(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_refs_as_str(item) for item in value]
    return value


def build_run_report(cm: Any) -> RunReport:
    """Assemble the report for a :class:`~repro.cm.manager.ConstraintManager`.

    Typed as ``Any`` to keep :mod:`repro.obs` import-independent of
    :mod:`repro.cm`; the manager's ``run_report()`` method is the public
    entry point.
    """
    scenario = cm.scenario
    registry: MetricsRegistry = scenario.obs.metrics
    horizon: Ticks = scenario.trace.horizon

    report = RunReport(
        horizon_s=to_seconds(horizon),
        dispatch=cm.stats(),
    )

    # -- per-constraint firing counts ---------------------------------------
    for installed in cm.installed:
        rule_names = [rule.name for rule in installed.strategy.rules]
        fired = {
            name: int(
                sum(
                    counter.value
                    for counter in registry.series("rule_fired")
                    if dict(counter.labels).get("rule") == name
                )
            )
            for name in rule_names
        }
        report.constraints.append(
            {
                "constraint": str(installed.constraint),
                "strategy": installed.strategy.name,
                "kind": installed.strategy.kind,
                "rules_fired": fired,
            }
        )

    # -- propagation latency -------------------------------------------------
    for hist in registry.series("propagation_latency"):
        entry = {"family": dict(hist.labels).get("family", "?")}
        entry.update(hist.summary())
        entry["max_s"] = entry.get("max_s") or 0.0
        report.propagation.append(entry)

    # -- network --------------------------------------------------------------
    network = scenario.network
    channels = []
    for hist in registry.series("net_latency"):
        labels = dict(hist.labels)
        channel = f"{labels.get('src', '?')}->{labels.get('dst', '?')}"
        gauge = registry.get(
            "net_in_flight", src=labels.get("src"), dst=labels.get("dst")
        )
        entry = {
            "channel": channel,
            "max_in_flight": int(gauge.high) if gauge is not None else 0,
        }
        entry.update(hist.summary())
        wire_ms = registry.get(
            "wire_latency_ms", src=labels.get("src"), dst=labels.get("dst")
        )
        if wire_ms is not None and wire_ms.count:
            # Wire-runtime channels record real milliseconds next to the
            # virtual-tick series; summarize the exact stats only (the
            # histogram's buckets — and so its quantiles — are tick-scaled).
            entry["wire_ms"] = {
                "count": wire_ms.count,
                "mean_ms": round(wire_ms.mean, 3),
                "min_ms": round(wire_ms.min, 3),
                "max_ms": round(wire_ms.max, 3),
            }
        channels.append(entry)
    report.network = {
        "messages_sent": network.messages_sent,
        "messages_dropped": network.messages_dropped,
        "channels": channels,
    }

    # -- translators ----------------------------------------------------------
    seen: set[int] = set()
    for shell in cm.shells.values():
        for translator in shell.translators.values():
            if id(translator) in seen:
                continue
            seen.add(id(translator))
            ops = {
                dict(counter.labels)["op"]: counter.value
                for counter in registry.series("ris_ops")
                if dict(counter.labels).get("source") == translator.source.name
            }
            report.translators.append(
                {
                    "source": translator.source.name,
                    "site": shell.site,
                    "kind": translator.kind,
                    "reads_requested": translator.reads_requested,
                    "writes_requested": translator.writes_requested,
                    "notifications_delivered": (
                        translator.notifications_delivered
                    ),
                    "notifications_suppressed": (
                        translator.notifications_suppressed
                    ),
                    "ris_ops": ops,
                }
            )

    # -- failures --------------------------------------------------------------
    notices = cm.board.notices
    by_kind: dict[str, int] = {}
    recoveries = 0
    for notice in notices:
        if notice.recovered:
            recoveries += 1
        else:
            kind = getattr(notice.kind, "value", str(notice.kind))
            by_kind[kind] = by_kind.get(kind, 0) + 1
    report.failures = {
        "total": len(notices),
        "metric": by_kind.get("metric", 0),
        "logical": by_kind.get("logical", 0),
        "recoveries": recoveries,
        "notices": [notice.to_dict() for notice in notices],
    }

    # -- guarantee staleness ---------------------------------------------------
    flight = scenario.obs.flight
    for guarantee in cm.board.guarantees():
        invalid = cm.board.invalid_intervals(guarantee, horizon)
        stale: Ticks = invalid.total_length
        standing = cm.board.is_valid(guarantee)
        if flight is not None and (not standing or stale):
            # A violated (or ever-invalid) guarantee freezes the rings:
            # the report carries the incident's last-N-digests context.
            flight.dump(f"guarantee:{guarantee.name}", horizon)
        report.guarantees.append(
            {
                "name": guarantee.name,
                "metric": guarantee.metric,
                "standing": standing,
                "staleness_s": to_seconds(stale),
                "staleness_fraction": (
                    to_seconds(stale) / to_seconds(horizon) if horizon else 0.0
                ),
            }
        )

    # -- scheduler -------------------------------------------------------------
    sim = scenario.sim
    report.scheduler = {
        "callbacks_run": sim.events_processed,
        "max_queue_depth": sim.max_queue_depth,
    }

    # -- flight recorder (only when the recorder was attached) -----------------
    if flight is not None:
        report.flight = flight.to_dict()

    # -- execution-trace recording/index counters ------------------------------
    report.trace_index = scenario.trace.stats()

    # -- static lint findings over the (still-wired) configuration -------------
    from repro.analysis import lint_manager

    report.lint = [
        finding.to_dict() for finding in lint_manager(cm).diagnostics
    ]
    return report
