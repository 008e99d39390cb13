"""Events: the six-tuples of Appendix A.1.

An event is ``(time, desc, old, new, rule, trigger)`` plus, in this
implementation, a globally unique sequence number and the site at which the
event occurs (each event has a unique site, Section 3.2).

Event *descriptors* name what happened.  The descriptor set from the paper:

==========  =====================================================
``W``       the database performs the write ``X <- b`` (generated)
``Ws``      an application writes ``X`` spontaneously: ``X: a -> b``
``WR``      the database receives a CM write request for ``X <- b``
``RR``      the database receives a CM read request for ``X``
``R``       the CM receives the read response ``X = b``
``N``       the CM receives a notification of ``X <- b``
``P``       a periodic event with period ``p`` (occurs by definition)
``F``       the false event — never occurs (used in templates only)
==========  =====================================================

Spontaneous events (``Ws``, and ``P`` which occurs by definition) have null
``rule``/``trigger``; generated events carry the rule whose firing produced
them and the event that triggered the rule (valid-execution properties 4-5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional

from repro.core.interpretations import Interpretation
from repro.core.items import DataItemRef, Value
from repro.core.timebase import Ticks, format_ticks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.rules import Rule


class EventKind(Enum):
    """The descriptor vocabulary of the rule language."""

    WRITE = "W"
    SPONTANEOUS_WRITE = "Ws"
    WRITE_REQUEST = "WR"
    READ_REQUEST = "RR"
    READ_RESPONSE = "R"
    NOTIFY = "N"
    PERIODIC = "P"
    FALSE = "F"

    @property
    def is_write(self) -> bool:
        """Kinds that change the value of a data item."""
        return self in (EventKind.WRITE, EventKind.SPONTANEOUS_WRITE)

    @property
    def value_arity(self) -> int:
        """Number of value components after the item argument."""
        return _VALUE_ARITY[self]

    @property
    def takes_item(self) -> bool:
        """Whether the descriptor's first argument is a data item."""
        return self not in (EventKind.PERIODIC, EventKind.FALSE)


_VALUE_ARITY = {
    EventKind.WRITE: 1,
    EventKind.SPONTANEOUS_WRITE: 2,  # (old, new); template shorthand Ws(X, b)
    EventKind.WRITE_REQUEST: 1,
    EventKind.READ_REQUEST: 0,
    EventKind.READ_RESPONSE: 1,
    EventKind.NOTIFY: 1,
    EventKind.PERIODIC: 1,  # the period p
    EventKind.FALSE: 0,
}

#: ``kind._value_`` -> (takes an item, value arity): a descriptor's whole
#: shape check is one lookup, with no Python-level ``Enum`` hash or property.
_SHAPE = {kind._value_: (kind.takes_item, _VALUE_ARITY[kind]) for kind in EventKind}


def _shape_error(kind: EventKind, item: Optional[DataItemRef], values) -> None:
    """Raise the ``ValueError`` naming what is wrong with a descriptor's
    shape; return when nothing is."""
    if kind.takes_item and item is None:
        raise ValueError(f"{kind.value} descriptor requires an item")
    if not kind.takes_item and item is not None:
        raise ValueError(f"{kind.value} descriptor takes no item")
    if len(values) != kind.value_arity:
        raise ValueError(
            f"{kind.value} takes {kind.value_arity} value(s), got {len(values)}"
        )


@dataclass(frozen=True, slots=True)
class EventDesc:
    """A ground event descriptor, e.g. ``N(salary1('e042'), 95000)``.

    Slotted, like :class:`Event`.  The constructor checks shape; the hot
    helpers below (``write_desc`` and co.) fix kind and arity themselves,
    check the item, and fill the slots through their member descriptors,
    which costs no Python-level call.
    """

    kind: EventKind
    item: Optional[DataItemRef]
    values: tuple[Value, ...] = ()

    def __post_init__(self) -> None:
        takes_item, arity = _SHAPE[self.kind._value_]
        if (self.item is None) is not takes_item and len(self.values) == arity:
            return
        _shape_error(self.kind, self.item, self.values)

    def __str__(self) -> str:
        parts: list[str] = []
        if self.item is not None:
            parts.append(str(self.item))
        parts.extend(repr(v) for v in self.values)
        return f"{self.kind.value}({', '.join(parts)})"


_new_desc = object.__new__
_set_kind = EventDesc.kind.__set__
_set_item = EventDesc.item.__set__
_set_values = EventDesc.values.__set__
_WRITE = EventKind.WRITE
_SPONTANEOUS_WRITE = EventKind.SPONTANEOUS_WRITE
_WRITE_REQUEST = EventKind.WRITE_REQUEST
_NOTIFY = EventKind.NOTIFY


def write_desc(ref: DataItemRef, value: Value) -> EventDesc:
    """``W(X, b)`` — the database performs ``X <- b``."""
    if ref is None:
        _shape_error(_WRITE, ref, (value,))
    desc = _new_desc(EventDesc)
    _set_kind(desc, _WRITE)
    _set_item(desc, ref)
    _set_values(desc, (value,))
    return desc


def spontaneous_write_desc(
    ref: DataItemRef, old_value: Value, new_value: Value
) -> EventDesc:
    """``Ws(X, a, b)`` — an application updates ``X`` from ``a`` to ``b``."""
    if ref is None:
        _shape_error(_SPONTANEOUS_WRITE, ref, (old_value, new_value))
    desc = _new_desc(EventDesc)
    _set_kind(desc, _SPONTANEOUS_WRITE)
    _set_item(desc, ref)
    _set_values(desc, (old_value, new_value))
    return desc


def write_request_desc(ref: DataItemRef, value: Value) -> EventDesc:
    """``WR(X, b)`` — the CM requests the write ``X <- b``."""
    if ref is None:
        _shape_error(_WRITE_REQUEST, ref, (value,))
    desc = _new_desc(EventDesc)
    _set_kind(desc, _WRITE_REQUEST)
    _set_item(desc, ref)
    _set_values(desc, (value,))
    return desc


def read_request_desc(ref: DataItemRef) -> EventDesc:
    """``RR(X)`` — the CM requests a read of ``X``."""
    return EventDesc(EventKind.READ_REQUEST, ref, ())


def read_response_desc(ref: DataItemRef, value: Value) -> EventDesc:
    """``R(X, b)`` — the CM receives the read response ``X = b``."""
    return EventDesc(EventKind.READ_RESPONSE, ref, (value,))


def notify_desc(ref: DataItemRef, value: Value) -> EventDesc:
    """``N(X, b)`` — the CM is notified of the update ``X <- b``."""
    if ref is None:
        _shape_error(_NOTIFY, ref, (value,))
    desc = _new_desc(EventDesc)
    _set_kind(desc, _NOTIFY)
    _set_item(desc, ref)
    _set_values(desc, (value,))
    return desc


def periodic_desc(period: Ticks) -> EventDesc:
    """``P(p)`` — the periodic event with period ``p`` ticks."""
    return EventDesc(EventKind.PERIODIC, None, (period,))


_next_seq = 1


def reset_event_sequence() -> None:
    """Reset the global event numbering (used between test scenarios)."""
    global _next_seq
    _next_seq = 1


def next_event_seq() -> int:
    """Take the next event sequence number.

    Event numbers come from one counter, ``_next_seq``: a constructed
    :class:`Event` takes one here, and :meth:`ExecutionTrace.record`
    advances the same module attribute inline.
    """
    global _next_seq
    seq = _next_seq
    _next_seq = seq + 1
    return seq


@dataclass(frozen=True, slots=True)
class Event:
    """One occurrence: the Appendix A six-tuple plus sequence number and site.

    ``old``/``new`` are interpretations over the constraint-relevant items;
    for write events they differ exactly on the written item.  ``rule`` and
    ``trigger`` are null for spontaneous events.

    Slotted: a trace holds one of these per event and the verdict reads
    every field of every one, so instances carry no ``__dict__`` (DESIGN.md
    §6 has the build / read / bytes measurements).
    """

    time: Ticks
    site: str
    desc: EventDesc
    old: Interpretation
    new: Interpretation
    rule: Optional["Rule"] = None
    trigger: Optional["Event"] = None
    seq: int = field(default_factory=next_event_seq)

    @property
    def is_spontaneous(self) -> bool:
        """Spontaneous events have no generating rule (Appendix A property 4)."""
        return self.rule is None

    @property
    def written_value(self) -> Value:
        """The value written, for ``W``/``Ws`` descriptors."""
        if self.desc.kind is EventKind.WRITE:
            return self.desc.values[0]
        if self.desc.kind is EventKind.SPONTANEOUS_WRITE:
            return self.desc.values[1]
        raise ValueError(f"not a write event: {self.desc}")

    def __str__(self) -> str:
        return f"[{format_ticks(self.time)} @{self.site}] {self.desc}"


# The builders that fill an event's fields themselves (the trace's record and
# views, the wire codec's decoder) set its slots through their member
# descriptors, like the descriptor helpers above: the generated frozen
# ``__init__`` sets every field through ``object.__setattr__``, ~2.5x the cost.
_set_time = Event.time.__set__
_set_site = Event.site.__set__
_set_desc = Event.desc.__set__
_set_old = Event.old.__set__
_set_new = Event.new.__set__
_set_rule = Event.rule.__set__
_set_trigger = Event.trigger.__set__
_set_seq = Event.seq.__set__
