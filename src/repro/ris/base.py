"""Common vocabulary for raw information sources.

A source describes itself once, in the CM-RID: the ``offer(...)``
statements a CM-Translator reads name the interfaces it can support
(Section 4.1: during initialization the CM-Shells survey the
CM-Translators, not the sources).  A source only exposes its native API.

Errors raised by a RIS carry an errno-like :class:`RISErrorCode`.  The
CM-Translator maps these codes to the paper's failure classes (Section 5):
transient codes become *metric* failures, permanent codes become *logical*
failures.
"""

from __future__ import annotations

from enum import Enum


class RISErrorCode(Enum):
    """Errno-like error codes surfaced by raw sources.

    ``transient`` codes indicate the operation may succeed if retried (the
    translator classifies these as metric failures); non-transient codes
    indicate the interface contract is broken (logical failures).
    """

    #: The source is overloaded or briefly unavailable (transient).
    BUSY = "busy"
    #: The operation timed out (transient).
    TIMEOUT = "timeout"
    #: The source has crashed / is unreachable (permanent until reset).
    UNAVAILABLE = "unavailable"
    #: The named object does not exist.
    NOT_FOUND = "not-found"
    #: Input was malformed (bad query, wrong type).
    INVALID_REQUEST = "invalid-request"
    #: A local integrity constraint rejected the operation.
    CONSTRAINT_VIOLATION = "constraint-violation"
    #: The operation is not supported by this source at all.
    UNSUPPORTED = "unsupported"

    @property
    def transient(self) -> bool:
        """Whether retrying could help (drives metric-vs-logical mapping)."""
        return self in (RISErrorCode.BUSY, RISErrorCode.TIMEOUT)


class RISError(Exception):
    """Base error for all raw-information-source failures."""

    def __init__(self, code: RISErrorCode, message: str):
        super().__init__(f"[{code.value}] {message}")
        self.code = code
        self.message = message


class RawInformationSource:
    """Base class for raw sources.

    Concrete sources expose their own native APIs (SQL strings, file paths,
    lookup keys, ...); this base class only fixes a display name.  The
    heterogeneity is the point: nothing above the CM-Translator layer ever
    sees these native APIs.
    """

    #: Human-readable kind, e.g. "relational", "flat-file".
    kind: str = "abstract"

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
