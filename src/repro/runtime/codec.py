"""Self-contained by-value encoding for everything that crosses a channel.

The wire runtime's original payload codec shipped rule firings *by
in-process handle*: the frame carried a token and the sender-side payload
table paired it back up at the receiving endpoint — which only works while
both endpoints share one address space.  This module replaces that seam
with a value codec: every payload that crosses a channel is encoded into
plain JSON-compatible data, and the receiving shell *re-resolves* the rule
from its own installed rule set (CM-RID is the shared contract — both
sites hold the same rule definitions, keyed by name) and re-compiles the
program locally instead of receiving pickled closures.

Four layers, each building on the previous:

- **values** — JSON scalars pass through; the :data:`~repro.core.items.MISSING`
  existence sentinel, tuples, :class:`~repro.core.items.DataItemRef` and
  the rare nested container are tagged dicts, decoded back to canonical
  objects (``MISSING`` decodes to *the* singleton, so ``is``-checks hold
  across the boundary).
- **descriptors** — :class:`~repro.core.events.EventDesc` as a dict.
- **events** — a trigger :class:`~repro.core.events.Event` travels as its
  provenance chain (depth-bounded), reconstructed bottom-up with explicit
  sequence numbers so decoding never advances the global event counter.
  Event identity across the boundary is ``(site, seq)`` — the trace
  validators key provenance on that pair, not on object identity.
- **firings** — a :class:`~repro.cm.shell.FireMessage` crosses as rule
  name + encoded slot values + the trigger chain; it decodes to a
  :class:`WireFiring`, a neutral record the receiving shell resolves
  against its own rules.

Demarcation-protocol payloads (``_LimitRequest``/``_LimitGrant``) are
plain facts and encode field-by-field like failure notices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.events import Event, EventDesc, EventKind
from repro.core.interpretations import Interpretation
from repro.core.items import MISSING, DataItemRef

#: Provenance chains are encoded to this depth; a trigger further up is
#: dropped (its descendants keep their own times/sites, which is all the
#: validators and the propagation-latency walk need from a remote chain).
MAX_TRIGGER_DEPTH = 8

#: Containers (tuples, lists, dicts, item refs) nest at most this deep in one
#: value; a deeper one raises :class:`CodecError` on both sides, so neither a
#: hostile frame nor a runaway value reaches the interpreter's recursion
#: limit, whatever nesting depth the JSON parser admits.
MAX_VALUE_DEPTH = 32

_TAG = "$"


class CodecError(ValueError):
    """A payload the by-value codec cannot represent."""


# -- values -------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """Encode one value into JSON-compatible data."""
    return _encode(value, MAX_VALUE_DEPTH)


def decode_value(data: Any) -> Any:
    """Reverse :func:`encode_value`, refusing what it would have refused."""
    return _decode(data, MAX_VALUE_DEPTH)


def _too_deep() -> CodecError:
    return CodecError(f"value nests deeper than {MAX_VALUE_DEPTH} containers")


def _encode(value: Any, depth: int) -> Any:
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (str, int, float)):
        return value
    if value is MISSING or type(value).__name__ == "_Missing":
        return {_TAG: "missing"}
    if isinstance(value, (tuple, list, dict)) and depth < 1:
        raise _too_deep()
    depth -= 1
    if isinstance(value, DataItemRef):
        return {
            _TAG: "item",
            "name": value.name,
            "args": [_encode(a, depth) for a in value.args],
        }
    if isinstance(value, tuple):
        return {_TAG: "tuple", "v": [_encode(v, depth) for v in value]}
    if isinstance(value, list):
        return {_TAG: "list", "v": [_encode(v, depth) for v in value]}
    if isinstance(value, dict):
        return {
            _TAG: "dict",
            "v": [[_encode(k, depth), _encode(v, depth)] for k, v in value.items()],
        }
    raise CodecError(f"value not encodable by the wire codec: {value!r}")


def _decode(data: Any, depth: int) -> Any:
    if isinstance(data, dict):
        tag = data.get(_TAG)
        if tag == "missing":
            return MISSING
        if depth < 1:
            raise _too_deep()
        depth -= 1
        if tag == "item":
            return DataItemRef(
                data["name"], tuple(_decode(a, depth) for a in data["args"])
            )
        if tag == "tuple":
            return tuple(_decode(v, depth) for v in data["v"])
        if tag == "list":
            return [_decode(v, depth) for v in data["v"]]
        if tag == "dict":
            return {_decode(k, depth): _decode(v, depth) for k, v in data["v"]}
        raise CodecError(f"unknown value tag: {tag!r}")
    return data


# -- descriptors --------------------------------------------------------------


def encode_desc(desc: EventDesc) -> dict[str, Any]:
    """Encode a ground descriptor as a JSON dict."""
    item = desc.item
    return {
        "kind": desc.kind.value,
        "item": None
        if item is None
        else {"name": item.name, "args": [encode_value(a) for a in item.args]},
        "values": [encode_value(v) for v in desc.values],
    }


def decode_desc(data: dict[str, Any]) -> EventDesc:
    """Reverse :func:`encode_desc`."""
    item_data = data["item"]
    item = (
        None
        if item_data is None
        else DataItemRef(
            item_data["name"],
            tuple(decode_value(a) for a in item_data["args"]),
        )
    )
    return EventDesc(
        EventKind(data["kind"]),
        item,
        tuple(decode_value(v) for v in data["values"]),
    )


# -- events (trigger provenance chains) ---------------------------------------


def encode_event(
    event: Event, depth: int = MAX_TRIGGER_DEPTH
) -> dict[str, Any]:
    """Encode an event and its trigger chain, depth-bounded."""
    trigger = event.trigger
    return {
        "time": event.time,
        "site": event.site,
        "seq": event.seq,
        "desc": encode_desc(event.desc),
        "rule": event.rule.name if event.rule is not None else None,
        "trigger": (
            encode_event(trigger, depth - 1)
            if trigger is not None and depth > 1
            else None
        ),
    }


def decode_event(
    data: dict[str, Any], depth: int = MAX_TRIGGER_DEPTH
) -> Event:
    """Reverse :func:`encode_event`, bottom-up.

    Reconstructed events carry empty interpretations (the receiving side
    never reads ``old``/``new`` off a remote trigger) and their *original*
    sequence numbers — passing ``seq=`` explicitly keeps the global event
    counter untouched, so local event numbering is unaffected by decoding.
    The ``rule`` field decodes to ``None``: the frame carries the rule's
    *name*, and validators identify remote triggers by ``(site, seq)``,
    not by their rule field.  A chain longer than the encoder ever emits
    (:data:`MAX_TRIGGER_DEPTH` events) raises :class:`CodecError`, so a
    hostile frame cannot drive the recursion to the interpreter's limit.
    """
    trigger_data = data["trigger"]
    if trigger_data is None:
        trigger = None
    elif depth > 1:
        trigger = decode_event(trigger_data, depth - 1)
    else:
        raise CodecError(
            f"trigger chain deeper than {MAX_TRIGGER_DEPTH} events"
        )
    return Event(
        time=data["time"],
        site=data["site"],
        desc=decode_desc(data["desc"]),
        old=Interpretation(),
        new=Interpretation(),
        trigger=trigger,
        seq=data["seq"],
    )


# -- firings ------------------------------------------------------------------


@dataclass(frozen=True)
class WireFiring:
    """A decoded cross-site firing, before rule resolution.

    The receiving shell resolves ``rule_name`` against its own installed
    and registered-remote rules (same CM-RID on both sides), then runs the
    locally compiled program with ``slots`` — the slot layout is
    deterministic per rule, so slot values computed by the sender drop
    straight into the receiver's program.
    """

    rule_name: str
    trigger: Event
    slots: list


def encode_firing(fire: Any) -> dict[str, Any]:
    """Encode a :class:`~repro.cm.shell.FireMessage` by value."""
    return {
        "rule": fire.program.rule.name,
        "trigger": encode_event(fire.trigger),
        "slots": [encode_value(v) for v in fire.slots],
    }


def decode_firing(data: dict[str, Any]) -> WireFiring:
    """Reverse :func:`encode_firing` into a neutral :class:`WireFiring`."""
    return WireFiring(
        rule_name=data["rule"],
        trigger=decode_event(data["trigger"]),
        slots=[decode_value(v) for v in data["slots"]],
    )
