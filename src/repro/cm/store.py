"""Shell-private data (Section 3.2: "Each CM-Shell can have private data,
stored in the CM-Shell itself, for use in strategies").

The store implements the :class:`~repro.core.conditions.LocalData` protocol
so strategy conditions can read it, and records every write as a ``W`` event
in the execution trace so guarantees over auxiliary data (``Flag``, ``Tb``,
caches) are checkable.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Optional

from repro.core.events import Event, write_desc
from repro.core.items import MISSING, DataItemRef, Value
from repro.core.rules import Rule
from repro.core.trace import ExecutionTrace


class ShellStore:
    """The private database of one CM-Shell."""

    def __init__(self, site: str, trace: ExecutionTrace):
        self.site = site
        self.trace = trace
        self._data: dict[DataItemRef, Value] = {}
        self.writes = 0
        self._items_view: Mapping[DataItemRef, Value] = MappingProxyType(
            self._data
        )

    def read_local(self, ref: DataItemRef) -> Value:
        """Current value of a private item; MISSING if never written."""
        return self._data.get(ref, MISSING)

    def write(
        self,
        ref: DataItemRef,
        value: Value,
        time: int,
        rule: Optional[Rule] = None,
        trigger: Optional[Event] = None,
    ) -> Event:
        """Write a private item, recording the W event."""
        self._data[ref] = value
        self.writes += 1
        return self.trace.record(
            time, self.site, write_desc(ref, value), rule=rule, trigger=trigger
        )

    def items(self) -> Mapping[DataItemRef, Value]:
        """Read-only live view of all private data (for applications,
        Section 7.1); every call returns the same mapping object."""
        return self._items_view
