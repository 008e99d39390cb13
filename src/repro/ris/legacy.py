"""A legacy system whose update feed can fail *silently*.

Section 5 of the paper discusses the hard case: "consider a CM-Translator
supporting a Notify Interface for a legacy database, and suppose the database
simply sends a message to the CM-Translator whenever there is an update...
If the database fails silently and does not report some update, there is no
way for the CM-Translator to detect the failure."

:class:`LegacySystem` reproduces that: it is a key-value store with an
update-message hook, and a ``drop_probability`` callback (wired to the
scenario's failure plan) decides whether each update message is silently
swallowed.  The experiment harness uses it to show why the paper recommends
falling back to a Read Interface + polling when undetectable notify loss is
unacceptable.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.ris.base import RawInformationSource, RISError, RISErrorCode

UpdateCallback = Callable[[str, Any], None]


class LegacySystem(RawInformationSource):
    """Opaque key-value store with an unreliable update feed."""

    kind = "legacy"

    def __init__(
        self,
        name: str,
        drop_decider: Callable[[], bool] | None = None,
    ):
        super().__init__(name)
        self._data: dict[str, Any] = {}
        self._listeners: list[UpdateCallback] = []
        self._drop_decider = drop_decider or (lambda: False)
        self._available = True
        self.updates_sent = 0
        self.updates_dropped = 0

    def set_available(self, available: bool) -> None:
        """Simulate the system being down (a detectable failure)."""
        self._available = available

    def _check_available(self) -> None:
        if not self._available:
            raise RISError(
                RISErrorCode.UNAVAILABLE, f"legacy system {self.name} down"
            )

    # -- the native interface ------------------------------------------------

    def get(self, key: str) -> Any:
        """Read a value; NOT_FOUND if absent."""
        self._check_available()
        if key not in self._data:
            raise RISError(RISErrorCode.NOT_FOUND, f"no key {key!r}")
        return self._data[key]

    def put(self, key: str, value: Any) -> None:
        """Write a value and (maybe) send update messages to listeners.

        The *write always happens*; only the notification can be lost —
        silently, with no error raised anywhere.  That asymmetry is the whole
        point of this source.
        """
        self._check_available()
        self._data[key] = value
        if self._drop_decider():
            self.updates_dropped += 1
            return
        self.updates_sent += 1
        for listener in self._listeners:
            listener(key, value)

    def subscribe(self, callback: UpdateCallback) -> None:
        """Register for update messages (best effort, see :meth:`put`)."""
        self._listeners.append(callback)

    def keys(self) -> list[str]:
        """All keys (used by recovery/audit polling)."""
        self._check_available()
        return sorted(self._data)
