"""Interpretations: (partial) states of the constraint-relevant data.

Appendix A.1 defines an interpretation as a function mapping each data item
to a value, where items may map to *null*, meaning "unconstrained".  Events
carry an ``old`` and a ``new`` interpretation; for write events they differ
exactly on the written item, and consecutive events chain
(``E_i.old == E_{i-1}.new``, valid-execution property 3).

Interpretations only model constraint-relevant items — the handful of items
the constraint manager was told about — not entire databases.

:class:`Interpretation` is the dict-backed form, for hand-built states (the
wire codec gives a decoded event the empty one).  The events of a trace
carry row-backed views instead (:mod:`repro.core.trace`): the trace's rows
are its only record of state, and a view reads an item's value from the row
of its last write.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.core.items import DataItemRef, Value


class Interpretation(Mapping[DataItemRef, Value]):
    """An immutable partial mapping from data items to values.

    Items absent from the mapping are *null* / unconstrained.  Items mapped
    to :data:`~repro.core.items.MISSING` explicitly do not exist (this is how
    the ``E(X)`` exists predicate is evaluated).
    """

    __slots__ = ("_values",)
    #: The trace rows that back a view (:mod:`repro.core.trace`); none here.
    _store: Any = None

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

    def updated(self, ref: DataItemRef, value: Value) -> "Interpretation":
        """A new interpretation with ``ref`` set to ``value``.

        This is the Appendix A.2 property-2 transformation:
        ``new = old - {X = a} + {X = b}``.
        """
        values = dict(self._values)
        values[ref] = value
        return Interpretation(values)


#: The fully unconstrained interpretation.
EMPTY_INTERPRETATION = Interpretation()
