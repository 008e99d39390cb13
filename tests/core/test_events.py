"""Unit tests for events and descriptors."""

import dataclasses
import pickle

import pytest

from repro.core.events import (
    Event,
    EventDesc,
    EventKind,
    notify_desc,
    periodic_desc,
    read_request_desc,
    read_response_desc,
    spontaneous_write_desc,
    write_desc,
    write_request_desc,
)
from repro.core.interpretations import EMPTY_INTERPRETATION, Interpretation
from repro.core.items import item


class TestDescriptors:
    def test_write_desc(self):
        desc = write_desc(item("X"), 5)
        assert desc.kind is EventKind.WRITE
        assert str(desc) == "W(X, 5)"

    def test_spontaneous_write_carries_old_and_new(self):
        desc = spontaneous_write_desc(item("X"), 1, 2)
        assert desc.values == (1, 2)

    def test_read_request_has_no_values(self):
        assert read_request_desc(item("X")).values == ()

    def test_periodic_takes_no_item(self):
        desc = periodic_desc(300)
        assert desc.item is None and desc.values == (300,)

    def test_item_kind_requires_item(self):
        with pytest.raises(ValueError):
            EventDesc(EventKind.NOTIFY, None, (1,))

    def test_periodic_rejects_item(self):
        with pytest.raises(ValueError):
            EventDesc(EventKind.PERIODIC, item("X"), (1,))

    def test_wrong_value_arity_rejected(self):
        with pytest.raises(ValueError):
            EventDesc(EventKind.WRITE, item("X"), (1, 2))


#: Value arity per kind, and whether the kind takes an item.
SHAPES = {
    EventKind.WRITE: (True, 1),
    EventKind.SPONTANEOUS_WRITE: (True, 2),
    EventKind.WRITE_REQUEST: (True, 1),
    EventKind.READ_REQUEST: (True, 0),
    EventKind.READ_RESPONSE: (True, 1),
    EventKind.NOTIFY: (True, 1),
    EventKind.PERIODIC: (False, 1),
    EventKind.FALSE: (False, 0),
}

#: Every helper, with values of the right arity and its kind.
HELPERS = [
    (write_desc, (5,), EventKind.WRITE),
    (spontaneous_write_desc, (4, 5), EventKind.SPONTANEOUS_WRITE),
    (write_request_desc, (5,), EventKind.WRITE_REQUEST),
    (read_request_desc, (), EventKind.READ_REQUEST),
    (read_response_desc, (5,), EventKind.READ_RESPONSE),
    (notify_desc, (5,), EventKind.NOTIFY),
]


class TestDescriptorShapeErrors:
    """The exact ``ValueError`` texts, on the constructor and on every
    helper, whichever way the descriptor is built."""

    @pytest.mark.parametrize("kind", list(EventKind), ids=lambda k: k.value)
    def test_constructor_messages(self, kind):
        takes_item, arity = SHAPES[kind]
        values = (0,) * arity
        if takes_item:
            with pytest.raises(ValueError) as missing:
                EventDesc(kind, None, values)
            assert str(missing.value) == f"{kind.value} descriptor requires an item"
        else:
            with pytest.raises(ValueError) as spurious:
                EventDesc(kind, item("X"), values)
            assert str(spurious.value) == f"{kind.value} descriptor takes no item"
        good_item = item("X") if takes_item else None
        with pytest.raises(ValueError) as wrong:
            EventDesc(kind, good_item, values + (0,))
        assert str(wrong.value) == (
            f"{kind.value} takes {arity} value(s), got {arity + 1}"
        )
        assert EventDesc(kind, good_item, values).values == values

    @pytest.mark.parametrize(
        "helper, values, kind", HELPERS, ids=[h.__name__ for h, *_ in HELPERS]
    )
    def test_helper_requires_an_item(self, helper, values, kind):
        with pytest.raises(ValueError) as missing:
            helper(None, *values)
        assert str(missing.value) == f"{kind.value} descriptor requires an item"

    @pytest.mark.parametrize(
        "helper, values, kind", HELPERS, ids=[h.__name__ for h, *_ in HELPERS]
    )
    def test_helper_builds_what_the_constructor_builds(self, helper, values, kind):
        built = helper(item("s", 1), *values)
        constructed = EventDesc(kind, item("s", 1), values)
        assert type(built) is EventDesc
        assert built == constructed and hash(built) == hash(constructed)
        assert repr(built) == repr(constructed) and str(built) == str(constructed)
        assert pickle.loads(pickle.dumps(built)) == constructed
        assert not hasattr(built, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.values = ()


class TestEvent:
    def _event(self, desc, **kwargs):
        return Event(
            time=10,
            site="a",
            desc=desc,
            old=EMPTY_INTERPRETATION,
            new=EMPTY_INTERPRETATION,
            **kwargs,
        )

    def test_sequence_numbers_increase(self):
        first = self._event(notify_desc(item("X"), 1))
        second = self._event(notify_desc(item("X"), 2))
        assert second.seq > first.seq

    def test_spontaneous_when_no_rule(self):
        event = self._event(spontaneous_write_desc(item("X"), 0, 1))
        assert event.is_spontaneous

    def test_written_value_for_both_write_kinds(self):
        w = self._event(write_desc(item("X"), 7))
        ws = self._event(spontaneous_write_desc(item("X"), 1, 9))
        assert w.written_value == 7
        assert ws.written_value == 9

    def test_written_value_rejects_non_writes(self):
        event = self._event(read_response_desc(item("X"), 7))
        with pytest.raises(ValueError):
            __ = event.written_value

    def test_str_mentions_site_and_descriptor(self):
        event = self._event(write_request_desc(item("X"), 3))
        assert "@a" in str(event) and "WR(X, 3)" in str(event)

    def test_slotted_and_frozen(self):
        # A trace holds one Event per recorded event: no per-instance dict.
        event = self._event(notify_desc(item("X"), 1))
        assert not hasattr(event, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.time = 11
        # (Not always FrozenInstanceError: 3.11's frozen + slotted
        # ``__setattr__`` raises TypeError for a name that is not a field.)
        with pytest.raises((AttributeError, TypeError)):
            event.extra = 1

    def test_value_semantics(self):
        trigger = self._event(spontaneous_write_desc(item("X"), 0, 1), seq=1)
        event = self._event(notify_desc(item("X"), 1), trigger=trigger, seq=2)
        twin = self._event(notify_desc(item("X"), 1), trigger=trigger, seq=2)
        assert event == twin and hash(event) == hash(twin)
        assert event != dataclasses.replace(event, seq=3)
        assert repr(event).startswith(
            "Event(time=10, site='a', desc=EventDesc(kind=<EventKind.NOTIFY: 'N'>"
        )
        assert repr(event).endswith(", seq=2)")

    def test_pickle_round_trip(self):
        trigger = self._event(spontaneous_write_desc(item("X"), 0, 1), seq=1)
        event = self._event(notify_desc(item("X"), 1), trigger=trigger, seq=2)
        copy = pickle.loads(pickle.dumps(event))
        assert copy == event and copy.trigger == trigger
        assert not hasattr(copy, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.seq = 3
