"""A "whois"-style directory server — lookup-only access.

Models the Stanford whois database of Section 4.3: a key-to-record directory
administered out of band.  The CM can only look entries up, so copy
constraints against it use polling strategies; administrators update entries
through :meth:`admin_update`, which is invisible to the CM until polled.
"""

from __future__ import annotations

from typing import Iterator

from repro.ris.base import RawInformationSource, RISError, RISErrorCode

Entry = dict[str, str]


class WhoisDirectory(RawInformationSource):
    """Username -> attribute-record directory."""

    kind = "whois"

    def __init__(self, name: str):
        super().__init__(name)
        self._entries: dict[str, Entry] = {}
        self._available = True
        self.lookups = 0

    def set_available(self, available: bool) -> None:
        """Simulate the directory being unreachable."""
        self._available = available

    def _check_available(self) -> None:
        if not self._available:
            raise RISError(
                RISErrorCode.UNAVAILABLE, f"whois server {self.name} down"
            )

    # -- administration (out of band, invisible to the CM) -------------------

    def admin_update(self, key: str, **fields: str) -> None:
        """Create or update an entry's fields."""
        entry = self._entries.setdefault(key, {})
        entry.update(fields)

    def admin_remove(self, key: str) -> None:
        """Delete an entry."""
        if key not in self._entries:
            raise RISError(RISErrorCode.NOT_FOUND, f"no entry {key!r}")
        del self._entries[key]

    # -- the lookup protocol -----------------------------------------------------

    def lookup(self, key: str) -> Entry:
        """Fetch an entry by key."""
        self._check_available()
        self.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            raise RISError(RISErrorCode.NOT_FOUND, f"no entry {key!r}")
        return dict(entry)

    def field(self, key: str, field_name: str) -> str:
        """One field of one entry."""
        entry = self.lookup(key)
        if field_name not in entry:
            raise RISError(
                RISErrorCode.NOT_FOUND,
                f"entry {key!r} has no field {field_name!r}",
            )
        return entry[field_name]

    def exists(self, key: str) -> bool:
        """Whether an entry exists."""
        self._check_available()
        self.lookups += 1
        return key in self._entries

    def keys(self) -> Iterator[str]:
        """All entry keys."""
        self._check_available()
        self.lookups += 1
        return iter(sorted(self._entries))
