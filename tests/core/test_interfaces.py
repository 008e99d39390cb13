"""Tests for the interface menu (Section 3.1.1)."""

import pytest

from repro.core.dsl import parse_condition
from repro.core.errors import SpecError
from repro.core.events import EventKind
from repro.core.interfaces import (
    InterfaceKind,
    InterfaceSet,
    conditional_notify_interface,
    no_spontaneous_write_interface,
    notify_interface,
    periodic_notify_interface,
    read_interface,
    update_window_interface,
    write_interface,
)
from repro.core.rules import RuleRole
from repro.core.timebase import clock_time, seconds


class TestMenuShapes:
    def test_write_interface_rule_shape(self):
        spec = write_interface("salary2", seconds(2), params=("n",))
        rule = spec.rule
        assert rule.lhs.kind is EventKind.WRITE_REQUEST
        assert rule.steps[0].template.kind is EventKind.WRITE
        assert rule.delay == seconds(2)
        assert rule.role is RuleRole.INTERFACE

    def test_read_interface_binds_current_value(self):
        spec = read_interface("X", seconds(1))
        assert [name for name, __ in spec.rule.binders] == ["b"]

    def test_notify_interface(self):
        spec = notify_interface("salary1", seconds(2), params=("n",))
        assert spec.rule.lhs.kind is EventKind.SPONTANEOUS_WRITE
        assert spec.rule.steps[0].template.kind is EventKind.NOTIFY

    def test_conditional_notify_carries_condition(self):
        condition = parse_condition("abs(b - a) > a * 0.1")
        spec = conditional_notify_interface("X", seconds(2), condition)
        assert spec.rule.condition is condition
        # The LHS template uses the two-value Ws form (old, new).
        assert len(spec.rule.lhs.values) == 2

    def test_periodic_notify(self):
        spec = periodic_notify_interface("X", seconds(300), seconds(1))
        assert spec.period == seconds(300)
        assert spec.rule.lhs.kind is EventKind.PERIODIC

    def test_no_spontaneous_write_is_prohibition(self):
        spec = no_spontaneous_write_interface("Y")
        assert spec.rule.is_prohibition

    def test_update_window_carries_window(self):
        spec = update_window_interface(
            "balance1", clock_time(17), clock_time(8), params=("n",)
        )
        assert spec.window_start == clock_time(17)
        assert spec.window_end == clock_time(8)
        assert spec.rule.is_prohibition


class TestInterfaceSet:
    def build(self) -> InterfaceSet:
        interfaces = InterfaceSet()
        interfaces.add(notify_interface("X", seconds(2)))
        interfaces.add(read_interface("X", seconds(1)))
        interfaces.add(write_interface("Y", seconds(3)))
        return interfaces

    def test_kinds_for(self):
        interfaces = self.build()
        assert interfaces.kinds_for("X") == {
            InterfaceKind.NOTIFY,
            InterfaceKind.READ,
        }

    def test_get_and_bound(self):
        interfaces = self.build()
        assert interfaces.bound("Y", InterfaceKind.WRITE) == seconds(3)

    def test_get_missing_raises_with_available_list(self):
        interfaces = self.build()
        with pytest.raises(SpecError) as excinfo:
            interfaces.get("X", InterfaceKind.WRITE)
        assert "notify" in str(excinfo.value)

    def test_lookup_keeps_the_first_spec_of_a_kind(self):
        first = notify_interface("X", seconds(2))
        interfaces = InterfaceSet(specs=[first, notify_interface("X", seconds(9))])
        assert interfaces.has("X", InterfaceKind.NOTIFY)
        assert not interfaces.has("Y", InterfaceKind.NOTIFY)
        assert interfaces.get("X", InterfaceKind.NOTIFY) is first
        assert len(interfaces.specs) == 2

    def test_describe_is_readable(self):
        text = self.build().describe()
        assert "X: notify (bound 2s)" in text
