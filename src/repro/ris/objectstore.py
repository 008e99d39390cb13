"""A small object-oriented database — the "OODB" source of the paper.

Classes declare typed attributes; objects are identified by OIDs and grouped
into class extents.  Unlike the relational engine, the native interface is
navigational (get object, read attribute, follow reference) rather than
declarative, so its CM-Translator is structurally different — which is the
heterogeneity the toolkit is meant to absorb.

The store offers a change hook (:meth:`on_change`), the moral equivalent of
an OODB's event notification service, so translators can implement Notify
Interfaces on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.ris.base import RawInformationSource, RISError, RISErrorCode

_TYPES: dict[str, type | tuple[type, ...]] = {
    "int": int,
    "float": (int, float),
    "str": str,
    "bool": bool,
    "ref": str,  # a reference is an OID string
}


@dataclass(frozen=True)
class ClassDef:
    """A class: named, typed attributes."""

    name: str
    attributes: dict[str, str]  # attribute name -> type name


@dataclass
class StoredObject:
    """One object: its OID, class, and attribute values."""

    oid: str
    class_name: str
    attributes: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ChangeEvent:
    """Reported to change-hook subscribers."""

    operation: str  # create | update | delete
    oid: str
    class_name: str
    attribute: Optional[str]
    old_value: Any
    new_value: Any


ChangeCallback = Callable[[ChangeEvent], None]


class ObjectStore(RawInformationSource):
    """Classes, extents, objects, and attribute access by OID."""

    kind = "object"

    def __init__(self, name: str):
        super().__init__(name)
        self._classes: dict[str, ClassDef] = {}
        self._objects: dict[str, StoredObject] = {}
        self._extents: dict[str, set[str]] = {}
        self._subscribers: list[ChangeCallback] = []
        self._next_oid = 1
        self._available = True

    def set_available(self, available: bool) -> None:
        """Simulate the object server going down."""
        self._available = available

    def _check_available(self) -> None:
        if not self._available:
            raise RISError(
                RISErrorCode.UNAVAILABLE, f"object store {self.name} down"
            )

    # -- schema ------------------------------------------------------------

    def define_class(self, name: str, attributes: dict[str, str]) -> ClassDef:
        """Declare a class with its attribute types."""
        self._check_available()
        if name in self._classes:
            raise RISError(RISErrorCode.INVALID_REQUEST, f"class exists: {name!r}")
        for attr, type_name in attributes.items():
            if type_name not in _TYPES:
                raise RISError(
                    RISErrorCode.INVALID_REQUEST,
                    f"unknown attribute type {type_name!r} for {attr!r}",
                )
        class_def = ClassDef(name, dict(attributes))
        self._classes[name] = class_def
        self._extents[name] = set()
        return class_def

    def classes(self) -> list[str]:
        """All class names."""
        return sorted(self._classes)

    # -- change hook -----------------------------------------------------------

    def on_change(self, callback: ChangeCallback) -> None:
        """Subscribe to all create/update/delete events."""
        self._subscribers.append(callback)

    def _emit(self, event: ChangeEvent) -> None:
        for callback in self._subscribers:
            callback(event)

    # -- object lifecycle ---------------------------------------------------------

    def _check_value(self, class_def: ClassDef, attr: str, value: Any) -> None:
        if attr not in class_def.attributes:
            raise RISError(
                RISErrorCode.INVALID_REQUEST,
                f"class {class_def.name!r} has no attribute {attr!r}",
            )
        expected = _TYPES[class_def.attributes[attr]]
        if value is not None and not isinstance(value, expected):
            raise RISError(
                RISErrorCode.INVALID_REQUEST,
                f"attribute {attr!r} expects {class_def.attributes[attr]}, "
                f"got {value!r}",
            )

    def create(
        self, class_name: str, attributes: dict[str, Any], oid: str | None = None
    ) -> str:
        """Create an object; returns its OID."""
        self._check_available()
        class_def = self._classes.get(class_name)
        if class_def is None:
            raise RISError(RISErrorCode.NOT_FOUND, f"no class {class_name!r}")
        for attr, value in attributes.items():
            self._check_value(class_def, attr, value)
        if oid is None:
            oid = f"{class_name}:{self._next_oid}"
            self._next_oid += 1
        if oid in self._objects:
            raise RISError(RISErrorCode.INVALID_REQUEST, f"OID exists: {oid!r}")
        stored = StoredObject(oid, class_name, dict(attributes))
        self._objects[oid] = stored
        self._extents[class_name].add(oid)
        self._emit(ChangeEvent("create", oid, class_name, None, None, None))
        return oid

    def get(self, oid: str) -> StoredObject:
        """Fetch an object by OID."""
        self._check_available()
        stored = self._objects.get(oid)
        if stored is None:
            raise RISError(RISErrorCode.NOT_FOUND, f"no object {oid!r}")
        return stored

    def exists(self, oid: str) -> bool:
        """Whether an object with this OID exists."""
        self._check_available()
        return oid in self._objects

    def read_attr(self, oid: str, attr: str) -> Any:
        """Read one attribute."""
        stored = self.get(oid)
        class_def = self._classes[stored.class_name]
        if attr not in class_def.attributes:
            raise RISError(
                RISErrorCode.INVALID_REQUEST,
                f"class {stored.class_name!r} has no attribute {attr!r}",
            )
        return stored.attributes.get(attr)

    def write_attr(self, oid: str, attr: str, value: Any) -> None:
        """Write one attribute, emitting a change event."""
        stored = self.get(oid)
        class_def = self._classes[stored.class_name]
        self._check_value(class_def, attr, value)
        old = stored.attributes.get(attr)
        stored.attributes[attr] = value
        self._emit(
            ChangeEvent("update", oid, stored.class_name, attr, old, value)
        )

    def delete(self, oid: str) -> None:
        """Delete an object."""
        stored = self.get(oid)
        del self._objects[oid]
        self._extents[stored.class_name].discard(oid)
        self._emit(
            ChangeEvent("delete", oid, stored.class_name, None, None, None)
        )

    # -- queries --------------------------------------------------------------------

    def extent(self, class_name: str) -> list[str]:
        """All OIDs of a class."""
        self._check_available()
        if class_name not in self._extents:
            raise RISError(RISErrorCode.NOT_FOUND, f"no class {class_name!r}")
        return sorted(self._extents[class_name])

    def find(self, class_name: str, attr: str, value: Any) -> list[str]:
        """OIDs of class members whose attribute equals a value."""
        return [
            oid
            for oid in self.extent(class_name)
            if self._objects[oid].attributes.get(attr) == value
        ]

    def follow(self, oid: str, path: list[str]) -> Any:
        """Navigate a path of ``ref`` attributes, returning the final value.

        ``follow(emp, ['dept', 'manager', 'phone'])`` reads ``emp.dept`` (an
        OID), then that object's ``manager`` (an OID), then its ``phone``.
        """
        current: Any = oid
        for step_index, attr in enumerate(path):
            if not isinstance(current, str):
                raise RISError(
                    RISErrorCode.INVALID_REQUEST,
                    f"path step {step_index} is not a reference: {current!r}",
                )
            current = self.read_attr(current, attr)
        return current
