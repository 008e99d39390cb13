"""Data items and parameterized data-item names.

The paper does not fix a granularity for "data items": one may be a single
object, a file, or a set of tuples.  Parameterized names like ``salary1(n)``
denote a family of items, one per value of ``n`` (Section 3.1.1,
"Parameterized Interfaces").

Concretely:

- :class:`DataItemRef` — a fully ground item, e.g. ``salary1('e042')``.
- Item *patterns* (a name plus term arguments, possibly containing variables)
  live in :mod:`repro.core.terms` since they share the term language with
  event templates.
- :class:`Locations` — the registry mapping item family names to sites, used
  by the constraint manager to decide which CM-Shell owns each rule side.

Existence is modelled with the :data:`MISSING` sentinel: an item whose current
value is ``MISSING`` does not exist (this implements the ``E(X)`` exists
predicate of Section 6.2 — inserting writes a real value, deleting writes
``MISSING``).
"""

from __future__ import annotations

from collections import _tuplegetter
from typing import Any, Iterator

from repro.core.errors import ConfigurationError

Value = Any


class _Missing:
    """Singleton sentinel for "this item does not exist"."""

    _instance: "_Missing | None" = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False


#: The value of a data item that does not (currently) exist.
MISSING = _Missing()


#: The last element of every :class:`DataItemRef` tuple: a ref equals only a
#: tuple carrying this object, so never a plain ``(name, args)`` tuple.
_REF_MARK = object()
_new_tuple = tuple.__new__


class DataItemRef(tuple):
    """A ground reference to one data item, e.g. ``phone('alice')``.

    ``name`` identifies the item family (unique across the whole federation,
    as in the paper where ``salary1`` and ``salary2`` name items in different
    databases); ``args`` are the concrete parameter values, empty for plain
    items like ``X``.

    An immutable value, stored as the tuple ``(name, args, _REF_MARK)`` so
    that ``hash`` and ``==`` run in C: every trace index and store
    is keyed by refs.  The private mark keeps a ref from equalling (or
    colliding as a key with) the plain tuple of its fields; ``name`` and
    ``args`` read through the C field getters ``namedtuple`` uses.
    """

    __slots__ = ()

    def __new__(cls, name: str, args: tuple[Value, ...] = ()) -> "DataItemRef":
        return _new_tuple(cls, (name, args, _REF_MARK))

    name = _tuplegetter(0, "The item family's name.")
    args = _tuplegetter(1, "The concrete parameter values.")

    def __repr__(self) -> str:
        return f"DataItemRef(name={self[0]!r}, args={self[1]!r})"

    def __str__(self) -> str:
        name, args = self[0], self[1]
        if not args:
            return name
        rendered = ", ".join(repr(a) for a in args)
        return f"{name}({rendered})"

    def __reduce__(self):
        return (type(self), (self[0], self[1]))


def item(name: str, *args: Value) -> DataItemRef:
    """Convenience constructor: ``item('salary1', 'e042')``."""
    return DataItemRef(name, tuple(args))


class Locations:
    """Registry of item-family locations (family name -> site name).

    The constraint manager uses this to route rules: a rule whose left-hand
    event mentions ``salary1(n)`` belongs to the shell at ``salary1``'s site
    (Section 4.1, rule distribution).
    """

    def __init__(self) -> None:
        self._sites: dict[str, str] = {}

    def register(self, family: str, site: str) -> None:
        """Declare that item family ``family`` lives at ``site``."""
        existing = self._sites.get(family)
        if existing is not None and existing != site:
            raise ConfigurationError(
                f"item family {family!r} already registered at {existing!r}, "
                f"cannot re-register at {site!r}"
            )
        self._sites[family] = site

    def site_of(self, family: str) -> str:
        """The site hosting ``family``; raises if unknown."""
        try:
            return self._sites[family]
        except KeyError:
            raise ConfigurationError(f"unknown item family: {family!r}") from None

    def known(self, family: str) -> bool:
        """Whether ``family`` has been registered."""
        return family in self._sites

    def families(self) -> Iterator[str]:
        """All registered family names."""
        return iter(self._sites)

    def families_at(self, site: str) -> list[str]:
        """All families hosted at ``site``."""
        return [f for f, s in self._sites.items() if s == site]
