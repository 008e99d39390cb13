"""A flat-file record store — the paper's "Unix file system" source.

The native interface is deliberately primitive: whole files of text are read
and written by path, with per-file modification times.  There are no
transactions and no notifications; a CM-Translator wanting change detection
must poll (comparing mtimes or contents), exactly the situation the paper's
Section 4 polling strategy addresses.

A conventional record format (one ``key<TAB>value`` pair per line) is
provided by :func:`parse_records` / :func:`render_records` so translators can
map data items onto file entries; the store itself treats content as opaque
text, as a real file system would.
"""

from __future__ import annotations

from typing import Callable

from repro.core.timebase import Ticks
from repro.ris.base import RawInformationSource, RISError, RISErrorCode


def parse_records(content: str) -> dict[str, str]:
    """Parse ``key<TAB>value`` lines into a dict (later keys win)."""
    records: dict[str, str] = {}
    for line_number, line in enumerate(content.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise RISError(
                RISErrorCode.INVALID_REQUEST,
                f"malformed record on line {line_number}: {line!r}",
            )
        key, __, value = line.partition("\t")
        records[key] = value
    return records


def render_records(records: dict[str, str]) -> str:
    """Serialize a dict back into the line-based record format."""
    return "".join(f"{key}\t{value}\n" for key, value in sorted(records.items()))


class FlatFileStore(RawInformationSource):
    """An in-memory file system: paths, contents, and mtimes.

    ``clock`` supplies the current virtual time for mtimes; wire it to
    ``simulator.now`` via ``lambda: sim.now`` in scenarios (a plain
    ``lambda: 0`` suffices for unit tests).
    """

    kind = "flat-file"

    def __init__(self, name: str, clock: Callable[[], Ticks] = lambda: 0):
        super().__init__(name)
        self._clock = clock
        self._files: dict[str, str] = {}
        self._mtimes: dict[str, Ticks] = {}
        self._available = True
        self.reads = 0
        self.writes = 0

    def set_available(self, available: bool) -> None:
        """Simulate the file server becoming unreachable."""
        self._available = available

    def _check_available(self) -> None:
        if not self._available:
            raise RISError(
                RISErrorCode.UNAVAILABLE, f"file store {self.name} unreachable"
            )

    # -- the native interface ------------------------------------------------

    def read_file(self, path: str) -> str:
        """Return a file's content; NOT_FOUND if it does not exist."""
        self._check_available()
        self.reads += 1
        if path not in self._files:
            raise RISError(RISErrorCode.NOT_FOUND, f"no such file: {path!r}")
        return self._files[path]

    def write_file(self, path: str, content: str) -> None:
        """Create or overwrite a file."""
        self._check_available()
        self.writes += 1
        self._files[path] = content
        self._mtimes[path] = self._clock()

    def exists(self, path: str) -> bool:
        """Whether a file exists."""
        self._check_available()
        return path in self._files

    def mtime(self, path: str) -> Ticks:
        """Last modification time of a file."""
        self._check_available()
        if path not in self._mtimes:
            raise RISError(RISErrorCode.NOT_FOUND, f"no such file: {path!r}")
        return self._mtimes[path]

    def list_files(self) -> list[str]:
        """All paths, sorted."""
        self._check_available()
        return sorted(self._files)

    # -- record-level conveniences (used by workloads and translators) --------

    def read_record(self, path: str, key: str) -> str:
        """One record's value from a record-format file."""
        records = parse_records(self.read_file(path))
        if key not in records:
            raise RISError(
                RISErrorCode.NOT_FOUND, f"no record {key!r} in {path!r}"
            )
        return records[key]

    def write_record(self, path: str, key: str, value: str) -> None:
        """Upsert one record in a record-format file (creating the file)."""
        try:
            records = parse_records(self.read_file(path))
        except RISError as error:
            if error.code is not RISErrorCode.NOT_FOUND:
                raise
            records = {}
        records[key] = value
        self.write_file(path, render_records(records))

    def delete_record(self, path: str, key: str) -> None:
        """Remove one record from a record-format file."""
        records = parse_records(self.read_file(path))
        if key not in records:
            raise RISError(
                RISErrorCode.NOT_FOUND, f"no record {key!r} in {path!r}"
            )
        del records[key]
        self.write_file(path, render_records(records))
