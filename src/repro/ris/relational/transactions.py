"""Local transactions with undo logging.

The engine supports simple, single-session transactions: ``BEGIN`` starts an
undo log, ``ROLLBACK`` replays it backwards, ``COMMIT`` discards it and
releases queued trigger events.  There is no concurrency to isolate against
— in the discrete-event world every database operation executes atomically
at one virtual instant — so undo + trigger-deferral is exactly the facility
the paper's scenarios need (notably the Demarcation Protocol's local
constraint checks, Section 6.1).
"""

from __future__ import annotations

from typing import Callable

from repro.ris.relational.errors import TransactionError
from repro.ris.relational.triggers import TriggerDef, TriggerEvent

UndoAction = Callable[[], None]


class Transaction:
    """One open transaction: an undo log plus deferred trigger events."""

    def __init__(self) -> None:
        self._undo: list[UndoAction] = []
        self._deferred_triggers: list[tuple[TriggerDef, TriggerEvent]] = []
        self.statements = 0

    def log_undo(self, action: UndoAction) -> None:
        """Record how to reverse the change just made."""
        self._undo.append(action)

    def defer_trigger(self, trigger: TriggerDef, event: TriggerEvent) -> None:
        """Queue a trigger firing until commit."""
        self._deferred_triggers.append((trigger, event))

    def rollback(self) -> None:
        """Undo everything, newest change first.  Triggers are dropped."""
        while self._undo:
            self._undo.pop()()
        self._deferred_triggers.clear()

    def take_deferred_triggers(self) -> list[tuple[TriggerDef, TriggerEvent]]:
        """Hand the queued trigger firings to the committer."""
        deferred = self._deferred_triggers
        self._deferred_triggers = []
        return deferred


class TransactionManager:
    """Begin/commit/rollback state machine (no nesting)."""

    def __init__(self) -> None:
        self.current: Transaction | None = None
        self.committed = 0
        self.rolled_back = 0

    @property
    def active(self) -> bool:
        """Whether a transaction is open."""
        return self.current is not None

    def begin(self) -> Transaction:
        """Open a transaction; error if one is already open."""
        if self.current is not None:
            raise TransactionError("transaction already in progress")
        self.current = Transaction()
        return self.current

    def commit(self) -> list[tuple[TriggerDef, TriggerEvent]]:
        """Close the transaction, returning its deferred trigger firings."""
        if self.current is None:
            raise TransactionError("no transaction in progress")
        deferred = self.current.take_deferred_triggers()
        self.current = None
        self.committed += 1
        return deferred

    def rollback(self) -> None:
        """Undo the open transaction completely."""
        if self.current is None:
            raise TransactionError("no transaction in progress")
        self.current.rollback()
        self.current = None
        self.rolled_back += 1
