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

from repro.core.events import (  # and the slot setters
    Event, EventDesc, EventKind, _set_desc, _set_item, _set_kind, _set_new,
    _set_old, _set_rule, _set_seq, _set_site, _set_time, _set_trigger, _set_values,
)
from repro.core.interpretations import EMPTY_INTERPRETATION
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
_new = object.__new__


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
    if value is None or isinstance(value, (str, int, float)):  # bool is an int
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

#: Types that are their own encoding: a sequence of them is copied in C.
_PLAIN = frozenset({str, int, float, bool, type(None)})

#: ``kind._value_`` -> (kind, takes an item, value arity): one lookup.
_KINDS = {kind._value_: (kind, kind.takes_item, kind.value_arity) for kind in EventKind}


def _encode_all(values: Any) -> list:
    plain = _PLAIN.issuperset(map(type, values))
    return list(values) if plain else [_encode(v, MAX_VALUE_DEPTH) for v in values]


def _decode_all(data: Any) -> list:
    tagged = dict in map(type, data)  # only a dict is a tagged value
    return [_decode(v, MAX_VALUE_DEPTH) for v in data] if tagged else list(data)


def encode_desc(desc: EventDesc) -> dict[str, Any]:
    """Encode a ground descriptor as a JSON dict."""
    item = desc.item
    return {
        "kind": desc.kind._value_,
        "item": None
        if item is None
        else {"name": item.name, "args": _encode_all(item.args)},
        "values": _encode_all(desc.values),
    }


def decode_desc(data: dict[str, Any]) -> EventDesc:
    """Reverse :func:`encode_desc`: an unknown kind or a wrong shape is a
    :class:`CodecError`."""
    item = data["item"]
    if item is not None:
        item = DataItemRef(item["name"], tuple(_decode_all(item["args"])))
    values = tuple(_decode_all(data["values"]))
    try:
        kind, takes_item, arity = _KINDS[data["kind"]]
    except (KeyError, TypeError):  # unknown, or not even hashable
        raise CodecError(f"unknown event kind: {data['kind']!r}") from None
    if (item is None) is takes_item or len(values) != arity:
        raise CodecError(f"{kind._value_} descriptor of the wrong shape")
    desc = _new(EventDesc)
    _set_kind(desc, kind)
    _set_item(desc, item)
    _set_values(desc, values)
    return desc


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
    """Reverse :func:`encode_event`, bottom-up, in one loop.

    Decoded events share one empty interpretation (the receiving side never
    reads ``old``/``new`` off a remote trigger), keep their *original*
    sequence numbers (local numbering is unaffected) and carry no rule: the
    frame carries its *name*, and validators identify remote triggers by
    ``(site, seq)``.  A chain longer than the encoder ever emits
    (:data:`MAX_TRIGGER_DEPTH` events), or an event whose time, site or seq
    has the wrong type, raises :class:`CodecError`.
    """
    chain = [data]
    while (data := data["trigger"]) is not None:
        if len(chain) >= depth:
            raise CodecError(f"trigger chain deeper than {MAX_TRIGGER_DEPTH} events")
        chain.append(data)
    event = None
    for data in reversed(chain):
        time, site, seq = data["time"], data["site"], data["seq"]
        if type(time) is not int or type(seq) is not int or type(site) is not str:
            raise CodecError("event time, site or seq of the wrong type")
        trigger, event = event, _new(Event)
        _set_time(event, time)
        _set_site(event, site)
        _set_desc(event, decode_desc(data["desc"]))
        _set_old(event, EMPTY_INTERPRETATION)
        _set_new(event, EMPTY_INTERPRETATION)
        _set_rule(event, None)
        _set_trigger(event, trigger)
        _set_seq(event, seq)
    return event


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


#: The last trigger encoded, held (matched by identity) until a wire session
#: stops, and its encoding, which frames share read-only: a fan-out encodes
#: its trigger chain once.
_last_trigger: list = [None, None]


def encode_firing(fire: Any) -> dict[str, Any]:
    """Encode a :class:`~repro.cm.shell.FireMessage` by value."""
    trigger, last = fire.trigger, _last_trigger
    if last[0] is not trigger:
        last[:] = trigger, encode_event(trigger)
    return {
        "rule": fire.program.rule.name,
        "trigger": last[1],
        "slots": _encode_all(fire.slots),
    }


def decode_firing(data: dict[str, Any]) -> WireFiring:
    """Reverse :func:`encode_firing` into a neutral :class:`WireFiring`."""
    return WireFiring(
        rule_name=data["rule"],
        trigger=decode_event(data["trigger"]),
        slots=_decode_all(data["slots"]),
    )
