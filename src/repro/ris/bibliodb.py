"""A bibliographic information system — read-only from the CM's viewpoint.

Models the bibliographic database of the paper's Stanford scenario
(Section 4.3): records arrive from an external feed (here, a workload
generator calling :meth:`ingest`), and the only access the constraint
manager gets is field queries.  No writes, no notifications — so any
constraint involving this source can at best be *monitored* via polling,
exercising the Section 6.3 monitor strategy and the referential-integrity
scenario of Section 6.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.ris.base import RawInformationSource, RISError, RISErrorCode


@dataclass(frozen=True)
class BibRecord:
    """One bibliographic record."""

    record_id: str
    title: str
    authors: tuple[str, ...]
    year: int
    venue: str = ""


class BiblioDatabase(RawInformationSource):
    """Append-mostly record store with field queries."""

    kind = "bibliographic"

    def __init__(self, name: str):
        super().__init__(name)
        self._records: dict[str, BibRecord] = {}
        self._by_author: dict[str, set[str]] = {}
        self._available = True
        self.queries = 0

    def set_available(self, available: bool) -> None:
        """Simulate the server being unreachable."""
        self._available = available

    def _check_available(self) -> None:
        if not self._available:
            raise RISError(
                RISErrorCode.UNAVAILABLE, f"biblio server {self.name} down"
            )

    # -- feed side (not exposed to the CM) ---------------------------------

    def ingest(self, record: BibRecord) -> None:
        """Add/replace a record (models the external cataloguing feed)."""
        previous = self._records.get(record.record_id)
        if previous is not None:
            for author in previous.authors:
                self._by_author.get(author, set()).discard(record.record_id)
        self._records[record.record_id] = record
        for author in record.authors:
            self._by_author.setdefault(author, set()).add(record.record_id)

    def withdraw(self, record_id: str) -> None:
        """Remove a record (rare, but catalogues do issue retractions)."""
        record = self._records.pop(record_id, None)
        if record is None:
            raise RISError(RISErrorCode.NOT_FOUND, f"no record {record_id!r}")
        for author in record.authors:
            self._by_author.get(author, set()).discard(record_id)

    # -- the query interface (what the CM-Translator uses) -------------------

    def lookup(self, record_id: str) -> BibRecord:
        """Fetch one record by id."""
        self._check_available()
        self.queries += 1
        record = self._records.get(record_id)
        if record is None:
            raise RISError(RISErrorCode.NOT_FOUND, f"no record {record_id!r}")
        return record

    def exists(self, record_id: str) -> bool:
        """Whether a record id is present."""
        self._check_available()
        self.queries += 1
        return record_id in self._records

    def by_author(self, author: str) -> list[BibRecord]:
        """All records naming an author."""
        self._check_available()
        self.queries += 1
        ids = sorted(self._by_author.get(author, ()))
        return [self._records[i] for i in ids]

    def search(self, **fields) -> list[BibRecord]:
        """Records matching all given field equalities (title, year, venue)."""
        self._check_available()
        self.queries += 1
        results: list[BibRecord] = []
        for record in self._records.values():
            if all(getattr(record, name) == value for name, value in fields.items()):
                results.append(record)
        return sorted(results, key=lambda r: r.record_id)

    def record_ids(self) -> Iterator[str]:
        """All record ids (the polling translator enumerates these)."""
        self._check_available()
        self.queries += 1
        return iter(sorted(self._records))

    def __len__(self) -> int:
        return len(self._records)
