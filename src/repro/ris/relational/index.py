"""Index structures for the mini relational DBMS.

Two kinds:

- :class:`HashIndex` — equality lookups; backs primary-key / unique
  constraints and equality predicates.
- :class:`OrderedIndex` — a sorted (value, rowid) list with binary search for
  range predicates.

NULL values are not indexed (SQL-style: NULL never equals anything, and
unique constraints admit multiple NULLs).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Iterable, Iterator


class HashIndex:
    """Value -> set of rowids."""

    def __init__(self, column: str, unique: bool = False):
        self.column = column
        self.unique = unique
        self._buckets: dict[Any, set[int]] = {}

    def add(self, value: Any, rowid: int) -> None:
        if value is None:
            return
        self._buckets.setdefault(value, set()).add(rowid)

    def remove(self, value: Any, rowid: int) -> None:
        if value is None:
            return
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(rowid)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: Any) -> list[int]:
        """Rowids holding the value, ascending (none for NULL)."""
        return sorted(self._buckets.get(value, ()))

    def would_violate(self, value: Any, ignoring_rowid: int | None = None) -> bool:
        """Whether adding ``value`` would break a unique constraint."""
        if not self.unique or value is None:
            return False
        bucket = self._buckets.get(value, set())
        return bool(bucket - ({ignoring_rowid} if ignoring_rowid is not None else set()))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class OrderedIndex:
    """Sorted (value, rowid) pairs supporting range scans."""

    def __init__(self, column: str):
        self.column = column
        self._entries: list[tuple[Any, int]] = []

    def add(self, value: Any, rowid: int) -> None:
        if value is None:
            return
        insort(self._entries, (value, rowid))

    def remove(self, value: Any, rowid: int) -> None:
        if value is None:
            return
        index = bisect_left(self._entries, (value, rowid))
        if index < len(self._entries) and self._entries[index] == (value, rowid):
            del self._entries[index]

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[int]:
        """Rowids with ``low <op> value <op> high`` (None bound = open)."""
        if low is None:
            start = 0
        elif include_low:
            start = bisect_left(self._entries, (low,))
        else:
            start = bisect_right(self._entries, (low, float("inf")))
            start = self._skip_value(start, low)
        for value, rowid in self._entries[start:]:
            if high is not None:
                if include_high and value > high:
                    break
                if not include_high and value >= high:
                    break
            if low is not None and not include_low and value == low:
                continue
            yield rowid

    def _skip_value(self, start: int, low: Any) -> int:
        while start < len(self._entries) and self._entries[start][0] == low:
            start += 1
        return start

    def load(self, pairs: Iterable[tuple[Any, int]]) -> None:
        """Bulk-load and sort (used when creating an index on existing data)."""
        self._entries = sorted(
            (value, rowid) for value, rowid in pairs if value is not None
        )

    def __len__(self) -> int:
        return len(self._entries)
