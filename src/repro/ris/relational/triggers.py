"""Row triggers: the hook CM-Translators use to build Notify Interfaces.

Section 4.2.1 of the paper: "a CM-Translator supporting a Notify Interface
for a Sybase RIS may need to declare triggers on the underlying database."
Our engine supports ``AFTER INSERT / UPDATE [OF column] / DELETE`` row
triggers whose bodies are host-language callbacks, each called once per
row the statement changed, right after that row's change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.ris.relational.errors import CatalogError

Row = dict[str, Any]


@dataclass(frozen=True)
class TriggerEvent:
    """What a fired trigger reports to its callback."""

    trigger_name: str
    table: str
    operation: str  # INSERT | UPDATE | DELETE
    old_row: Optional[Row]
    new_row: Optional[Row]


TriggerCallback = Callable[[TriggerEvent], None]


@dataclass
class TriggerDef:
    """One declared trigger (callback may be attached later)."""

    name: str
    operation: str
    table: str
    column: Optional[str]
    callback: Optional[TriggerCallback] = None


class TriggerManager:
    """Registry and dispatcher for row triggers."""

    def __init__(self) -> None:
        self._triggers: dict[str, TriggerDef] = {}

    def create(
        self, name: str, operation: str, table: str, column: Optional[str]
    ) -> TriggerDef:
        """Declare a trigger; CatalogError on duplicate names."""
        if name in self._triggers:
            raise CatalogError(f"trigger {name!r} already exists")
        trigger = TriggerDef(name, operation, table, column)
        self._triggers[name] = trigger
        return trigger

    def set_callback(self, name: str, callback: TriggerCallback) -> None:
        """Attach the host-language body to a declared trigger."""
        trigger = self._triggers.get(name)
        if trigger is None:
            raise CatalogError(f"no such trigger: {name!r}")
        trigger.callback = callback

    def matching(
        self, table: str, operation: str, assigned: frozenset[str] = frozenset()
    ) -> list[TriggerDef]:
        """The triggers one kind of row change on a table fires, in
        declaration order.

        ``UPDATE OF col`` follows real-DBMS semantics: it fires when the
        column is *assigned* in the SET clause, even if the new value equals
        the old one — which is why redundant updates still generate
        notifications, and why the paper's CM-side cache (Section 3.2) is
        worth having.
        """
        return [
            trigger
            for trigger in self._triggers.values()
            if trigger.table == table
            and trigger.operation == operation
            and (
                operation != "UPDATE"
                or trigger.column is None
                or trigger.column in assigned
            )
        ]
