"""Interpretations: (partial) states of the constraint-relevant data.

Appendix A.1 defines an interpretation as a function mapping each data item
to a value, where items may map to *null*, meaning "unconstrained".  Events
carry an ``old`` and a ``new`` interpretation; for write events they differ
exactly on the written item, and consecutive events chain
(``E_i.old == E_{i-1}.new``, valid-execution property 3).

Interpretations only model constraint-relevant items — the handful of items
the constraint manager was told about — not entire databases.

Two representations share the :class:`Interpretation` interface:

- the plain dict-backed form, for hand-built states; and
- :class:`VersionedInterpretation`, a copy-on-write *view* over a shared
  :class:`StateJournal`.  The trace records one journal write per write
  event — O(1), independent of how many items are traced — and keeps each
  event's ``old``/``new`` as journal versions (write counts); a view pinned
  to one is made when someone reads it.  Per-item lookups
  are binary searches over that item's write history; the full mapping is
  materialized (and cached) only if someone iterates or compares it against
  a foreign interpretation.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Iterator, Mapping, Optional

from repro.core.items import MISSING, DataItemRef, Value

_entry_version = itemgetter(0)
_new_view = object.__new__


class Interpretation(Mapping[DataItemRef, Value]):
    """An immutable partial mapping from data items to values.

    Items absent from the mapping are *null* / unconstrained.  Items mapped
    to :data:`~repro.core.items.MISSING` explicitly do not exist (this is how
    the ``E(X)`` exists predicate is evaluated).
    """

    __slots__ = ("_values",)
    #: The journal a view reads (:class:`VersionedInterpretation`); none here.
    _journal: Optional["StateJournal"] = None

    def __init__(self, values: Mapping[DataItemRef, Value] | None = None) -> None:
        self._values: dict[DataItemRef, Value] = dict(values or {})

    def __getitem__(self, ref: DataItemRef) -> Value:
        return self._values[ref]

    def __iter__(self) -> Iterator[DataItemRef]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(
            self._values.items(), key=lambda kv: str(kv[0])))
        return f"Interpretation({{{inner}}})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interpretation):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(frozenset(self._values.items()))

    def specifies(self, ref: DataItemRef) -> bool:
        """Whether this interpretation constrains ``ref`` at all."""
        return ref in self._values

    def exists(self, ref: DataItemRef) -> bool:
        """The ``E(X)`` predicate: item is specified and not MISSING."""
        value = self._values.get(ref, MISSING)
        return value is not MISSING

    def updated(self, ref: DataItemRef, value: Value) -> "Interpretation":
        """A new interpretation with ``ref`` set to ``value``.

        This is the Appendix A.2 property-2 transformation:
        ``new = old - {X = a} + {X = b}``.
        """
        values = dict(self._values)
        values[ref] = value
        return Interpretation(values)

    def restricted(self, refs: set[DataItemRef]) -> "Interpretation":
        """A new interpretation constraining only the given items."""
        return Interpretation(
            {k: v for k, v in self._values.items() if k in refs}
        )


class StateJournal:
    """The append-only, versioned write history of one execution's state.

    Version 0 is the seeded initial state; each :meth:`write` produces the
    next version.  Every version stays addressable forever: per item the
    journal keeps the list of versions that set it, so the value of any item
    at any version is one binary search away, and the set of items specified
    at a version is a prefix of the first-specified order.

    A version is a write count, nothing more: per write the journal keeps
    the written item, its value and the version in that item's list (three
    pointers, no new container), and ``current`` — the one view pinned to
    the latest version.
    """

    __slots__ = (
        "_history", "_seeds", "_order", "_log", "_logged", "current",
        "materializations",
    )

    def __init__(self) -> None:
        #: Per item: the versions that set it, ascending (0: it was seeded).
        self._history: dict[DataItemRef, list[int]] = {}
        self._seeds: dict[DataItemRef, Value] = {}
        #: (first-specified version, item), in first-specified order.
        self._order: list[tuple[int, DataItemRef]] = []
        #: ``_log[i]`` / ``_logged[i]``: the write that produced version i+1.
        self._log: list[DataItemRef] = []
        self._logged: list[Value] = []
        #: The view pinned to the latest version (interned until the next
        #: write or seed, so events that do not write share it).
        self.current = VersionedInterpretation(self, 0)
        #: How many views had to materialize a full dict (diagnostics).
        self.materializations = 0

    @property
    def version(self) -> int:
        """The current (latest) version number."""
        return len(self._log)

    def __len__(self) -> int:
        return len(self._order)

    def seed(self, ref: DataItemRef, value: Value) -> None:
        """Set an item's version-0 value.  Only valid before any write."""
        if self._log:
            raise ValueError("cannot seed a journal after writes")
        if ref not in self._history:
            self._history[ref] = [0]
            self._order.append((0, ref))
        self._seeds[ref] = value
        self.current = VersionedInterpretation(self, 0)

    def write(self, ref: DataItemRef, value: Value) -> int:
        """Append one write, returning the version it produced.  O(1)."""
        log = self._log
        log.append(ref)
        self._logged.append(value)
        version = len(log)
        history = self._history.get(ref)
        if history is None:
            self._history[ref] = [version]
            self._order.append((version, ref))
        else:
            history.append(version)
        # Built through its slots: no ``__init__`` frame on the record path.
        view = _new_view(VersionedInterpretation)
        view._journal = self
        view.version = version
        view._cache = None
        self.current = view
        return version

    def view(self, version: int | None = None) -> "VersionedInterpretation":
        """An interpretation view pinned to ``version`` (default: current).

        The current-version view is interned, so consecutive events that do
        not write share one ``old``/``new`` object and chain checks are
        identity comparisons.
        """
        if version is None or version == len(self._log):
            return self.current
        return VersionedInterpretation(self, version)

    def lookup(self, ref: DataItemRef, version: int) -> tuple[bool, Value]:
        """``(specified, value)`` of ``ref`` at ``version``."""
        history = self._history.get(ref)
        if history is None:
            return False, MISSING
        index = bisect_right(history, version)
        if index == 0:
            return False, MISSING
        version = history[index - 1]  # the write (or seed, 0) in force
        return True, self._seeds[ref] if version == 0 else self._logged[version - 1]

    def specifies(self, ref: DataItemRef, version: int) -> bool:
        """Whether ``ref`` was seeded or written at or before ``version``."""
        history = self._history.get(ref)
        return history is not None and history[0] <= version

    def current_value(self, ref: DataItemRef, default: Value = MISSING) -> Value:
        """The latest value of ``ref`` — O(1)."""
        history = self._history.get(ref)
        if not history:
            return default
        version = history[-1]
        return self._seeds[ref] if version == 0 else self._logged[version - 1]

    def size_at(self, version: int) -> int:
        """How many items are specified at ``version``."""
        return bisect_right(self._order, version, key=_entry_version)

    def refs_at(self, version: int) -> Iterator[DataItemRef]:
        """The items specified at ``version``, in first-specified order."""
        count = bisect_right(self._order, version, key=_entry_version)
        return iter([ref for __, ref in self._order[:count]])

    def log(self) -> tuple[list[DataItemRef], list[Value]]:
        """The write log, read-only: the item and the value written at
        version ``v`` are at index ``v - 1`` of the two lists."""
        return self._log, self._logged

    def effective_delta(self, lo: int, hi: int) -> dict[DataItemRef, Value]:
        """Items whose value at version ``hi`` differs from version ``lo``.

        Cost is proportional to the number of writes between the versions,
        not to the state size — this is what makes equality of two views of
        one journal cheap.
        """
        written = dict(zip(self._log[lo:hi], self._logged[lo:hi]))
        changed: dict[DataItemRef, Value] = {}
        for ref, value in written.items():
            specified, before = self.lookup(ref, lo)
            if not specified or before != value:
                changed[ref] = value
        return changed

    def materialize(self, version: int) -> dict[DataItemRef, Value]:
        """The full item→value dict at ``version`` (one binary search per item)."""
        self.materializations += 1
        values: dict[DataItemRef, Value] = {}
        for first, ref in self._order:
            if first > version:
                break
            values[ref] = self.lookup(ref, version)[1]
        return values


class VersionedInterpretation(Interpretation):
    """A copy-on-write interpretation: a (journal, version) pair.

    Behaves exactly like the dict-backed :class:`Interpretation` over the
    journal's state at the pinned version.  Item lookups and the exists
    predicate never build the full mapping; iteration, hashing, ``repr`` and
    comparisons against foreign interpretations materialize it lazily (once,
    cached).  Equality between two views of the same journal is decided from
    the write log alone.
    """

    __slots__ = ("_journal", "version", "_cache")

    def __init__(self, journal: StateJournal, version: int) -> None:
        self._journal = journal
        #: The journal version this view is pinned to.
        self.version = version
        self._cache: dict[DataItemRef, Value] | None = None

    @property
    def _values(self) -> dict[DataItemRef, Value]:  # type: ignore[override]
        cache = self._cache
        if cache is None:
            cache = self._journal.materialize(self.version)
            self._cache = cache
        return cache

    def __getitem__(self, ref: DataItemRef) -> Value:
        specified, value = self._journal.lookup(ref, self.version)
        if not specified:
            raise KeyError(ref)
        return value

    def __contains__(self, ref: object) -> bool:
        if not isinstance(ref, DataItemRef):
            return False
        return self._journal.specifies(ref, self.version)

    def __iter__(self) -> Iterator[DataItemRef]:
        return self._journal.refs_at(self.version)

    def __len__(self) -> int:
        return self._journal.size_at(self.version)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if (
            isinstance(other, VersionedInterpretation)
            and other._journal is self._journal
        ):
            lo, hi = sorted((self.version, other.version))
            if lo == hi:
                return True
            return not self._journal.effective_delta(lo, hi)
        if not isinstance(other, Interpretation):
            return NotImplemented
        return self._values == other._values

    __hash__ = Interpretation.__hash__

    def specifies(self, ref: DataItemRef) -> bool:
        """Whether this interpretation constrains ``ref`` at all."""
        return self._journal.specifies(ref, self.version)

    def exists(self, ref: DataItemRef) -> bool:
        """The ``E(X)`` predicate: item is specified and not MISSING."""
        specified, value = self._journal.lookup(ref, self.version)
        return specified and value is not MISSING


#: The fully unconstrained interpretation.
EMPTY_INTERPRETATION = Interpretation()
