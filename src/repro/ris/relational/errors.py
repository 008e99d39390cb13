"""Error taxonomy of the relational RIS: :class:`~repro.ris.base.RISError`
subclasses whose code the translator classifies (Section 5)."""

from __future__ import annotations

from repro.ris.base import RISError, RISErrorCode


class SqlError(RISError):
    """Base class; raised for a wrong parameter count or unbindable value."""


class SqlSyntaxError(SqlError):
    """The SQL text failed to parse, or SQLite refused to run it."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(RISErrorCode.INVALID_REQUEST, message)
        self.position = position


class CatalogError(SqlError):
    """Unknown (or duplicate) table, column, or trigger."""

    def __init__(self, message: str):
        super().__init__(RISErrorCode.NOT_FOUND, message)


class TypeMismatchError(SqlError):
    """A value does not fit the declared column type."""

    def __init__(self, message: str):
        super().__init__(RISErrorCode.INVALID_REQUEST, message)


class ConstraintViolationError(SqlError):
    """A primary-key or not-null constraint rejected a change."""

    def __init__(self, message: str):
        super().__init__(RISErrorCode.CONSTRAINT_VIOLATION, message)


class DatabaseUnavailableError(SqlError):
    """The server is down (injected by failure plans)."""

    def __init__(self, message: str = "database unavailable"):
        super().__init__(RISErrorCode.UNAVAILABLE, message)


class DatabaseBusyError(SqlError):
    """The server is overloaded; retry later (transient)."""

    def __init__(self, message: str = "database busy"):
        super().__init__(RISErrorCode.BUSY, message)
