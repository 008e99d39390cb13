"""The interface menu of Section 3.1.1.

An *interface* is a promise a database makes to the constraint manager about
one data item (or parameterized family of items): how it may be read,
written, or monitored, and within what time bound.  Interfaces are specified
as rules; this module provides the paper's standard menu as constructors
producing :class:`InterfaceSpec` objects, each carrying its rule and the
machine-readable attributes (kind, bound, period) the strategy-suggestion
catalog matches against.

Database administrators pick interfaces from this menu (or write custom
rules) and the CM-Translators advertise them to the CM-Shells during
initialization (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.core.conditions import Binary, Expr, ItemRead, Name
from repro.core.errors import SpecError
from repro.core.events import EventKind
from repro.core.rules import RhsStep, Rule, RuleRole
from repro.core.templates import FALSE_TEMPLATE, Template, template
from repro.core.terms import Const, ItemPattern, Var
from repro.core.timebase import Ticks, to_seconds


class InterfaceKind(Enum):
    """The standard interface shapes of Section 3.1.1."""

    WRITE = "write"
    READ = "read"
    NOTIFY = "notify"
    CONDITIONAL_NOTIFY = "conditional-notify"
    PERIODIC_NOTIFY = "periodic-notify"
    NO_SPONTANEOUS_WRITE = "no-spontaneous-write"
    UPDATE_WINDOW = "update-window"


@dataclass(frozen=True)
class InterfaceSpec:
    """One offered interface: the rule plus its searchable attributes."""

    kind: InterfaceKind
    family: str
    rule: Rule
    bound: Ticks = 0
    period: Optional[Ticks] = None
    params: tuple[str, ...] = ()
    #: For UPDATE_WINDOW interfaces: the daily quiet window (ticks past
    #: midnight) during which no spontaneous writes occur.  A window that
    #: wraps midnight has start > end.
    window_start: Optional[Ticks] = None
    window_end: Optional[Ticks] = None

    def __str__(self) -> str:
        return f"{self.kind.value}({self.family}): {self.rule}"


def _item(family: str, params: tuple[str, ...]) -> ItemPattern:
    return ItemPattern(family, tuple(Var(p) for p in params))


def write_interface(
    family: str, bound: Ticks, params: tuple[str, ...] = ()
) -> InterfaceSpec:
    """``WR(X, b) -> [δ] W(X, b)`` — CM write requests are honoured in δ."""
    item = _item(family, params)
    rule = Rule(
        name=f"iface_write_{family}",
        lhs=template(EventKind.WRITE_REQUEST, item, "b"),
        delay=bound,
        steps=(RhsStep(template(EventKind.WRITE, item, "b")),),
        role=RuleRole.INTERFACE,
    )
    return InterfaceSpec(InterfaceKind.WRITE, family, rule, bound, params=params)


def read_interface(
    family: str, bound: Ticks, params: tuple[str, ...] = ()
) -> InterfaceSpec:
    """``RR(X) ∧ (X = b) -> [δ] R(X, b)`` — reads answered within δ."""
    item = _item(family, params)
    condition: Expr = Binary("==", ItemRead(item), Name("b"))
    rule = Rule(
        name=f"iface_read_{family}",
        lhs=template(EventKind.READ_REQUEST, item),
        condition=condition,
        delay=bound,
        steps=(RhsStep(template(EventKind.READ_RESPONSE, item, "b")),),
        role=RuleRole.INTERFACE,
    )
    return InterfaceSpec(InterfaceKind.READ, family, rule, bound, params=params)


def notify_interface(
    family: str, bound: Ticks, params: tuple[str, ...] = ()
) -> InterfaceSpec:
    """``Ws(X, b) -> [δ] N(X, b)`` — spontaneous updates are pushed in δ."""
    item = _item(family, params)
    rule = Rule(
        name=f"iface_notify_{family}",
        lhs=template(EventKind.SPONTANEOUS_WRITE, item, "b"),
        delay=bound,
        steps=(RhsStep(template(EventKind.NOTIFY, item, "b")),),
        role=RuleRole.INTERFACE,
    )
    return InterfaceSpec(InterfaceKind.NOTIFY, family, rule, bound, params=params)


def conditional_notify_interface(
    family: str,
    bound: Ticks,
    condition: Expr,
    params: tuple[str, ...] = (),
) -> InterfaceSpec:
    """``Ws(X, a, b) ∧ C -> [δ] N(X, b)`` — notify only when C holds.

    The condition may use the parameters ``a`` (old value) and ``b`` (new
    value), e.g. the paper's 10%-change filter
    ``abs(b - a) > a * 0.1``.
    """
    item = _item(family, params)
    rule = Rule(
        name=f"iface_cond_notify_{family}",
        lhs=template(EventKind.SPONTANEOUS_WRITE, item, "a", "b"),
        condition=condition,
        delay=bound,
        steps=(RhsStep(template(EventKind.NOTIFY, item, "b")),),
        role=RuleRole.INTERFACE,
    )
    return InterfaceSpec(
        InterfaceKind.CONDITIONAL_NOTIFY, family, rule, bound, params=params
    )


def periodic_notify_interface(
    family: str, period: Ticks, bound: Ticks
) -> InterfaceSpec:
    """``P(p) ∧ (X = b) -> [ε] N(X, b)`` — current value pushed every p.

    Only offered for plain (non-parameterized) items: a periodic push of a
    whole family would be a bulk feed, which the menu models instead as
    polling with an enumerating read (see strategies).
    """
    item = ItemPattern(family, ())
    condition: Expr = Binary("==", Name("b"), ItemRead(item))
    rule = Rule(
        name=f"iface_periodic_notify_{family}",
        lhs=Template(EventKind.PERIODIC, None, (Const(period),)),
        condition=condition,
        delay=bound,
        steps=(RhsStep(template(EventKind.NOTIFY, item, "b")),),
        role=RuleRole.INTERFACE,
    )
    return InterfaceSpec(
        InterfaceKind.PERIODIC_NOTIFY, family, rule, bound, period=period
    )


def no_spontaneous_write_interface(
    family: str, params: tuple[str, ...] = ()
) -> InterfaceSpec:
    """``Ws(X, b) -> F`` — the item is never updated behind the CM's back."""
    item = _item(family, params)
    rule = Rule(
        name=f"iface_no_spont_{family}",
        lhs=template(EventKind.SPONTANEOUS_WRITE, item, "b"),
        delay=0,
        steps=(RhsStep(FALSE_TEMPLATE),),
        role=RuleRole.INTERFACE,
    )
    return InterfaceSpec(InterfaceKind.NO_SPONTANEOUS_WRITE, family, rule, 0,
                         params=params)


def update_window_interface(
    family: str,
    window_start: Ticks,
    window_end: Ticks,
    params: tuple[str, ...] = (),
) -> InterfaceSpec:
    """No spontaneous writes during a daily quiet window (Section 6.4).

    The paper's banking example: "the branch offers an interface that
    guarantees that there will be no updates to account balances between
    5 p.m. and 8 a.m."  Formally this is the prohibition
    ``Ws(X, b) ∧ in_window(t) -> F``; since the rule language's conditions
    range over data, not the clock, the window is carried as interface
    metadata and the prohibition rule documents the shape.
    """
    item = _item(family, params)
    rule = Rule(
        name=f"iface_update_window_{family}",
        lhs=template(EventKind.SPONTANEOUS_WRITE, item, "b"),
        delay=0,
        steps=(RhsStep(FALSE_TEMPLATE),),
        role=RuleRole.INTERFACE,
    )
    return InterfaceSpec(
        InterfaceKind.UPDATE_WINDOW,
        family,
        rule,
        0,
        params=params,
        window_start=window_start,
        window_end=window_end,
    )


@dataclass
class InterfaceSet:
    """All interfaces offered for the item families of one source."""

    specs: list[InterfaceSpec] = field(default_factory=list)
    #: First spec added per (family, kind); ``specs`` is only ever read.
    _by_kind: dict[tuple[str, InterfaceKind], InterfaceSpec] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for spec in self.specs:
            self._by_kind.setdefault((spec.family, spec.kind), spec)

    def add(self, spec: InterfaceSpec) -> None:
        """Add one offered interface."""
        self.specs.append(spec)
        self._by_kind.setdefault((spec.family, spec.kind), spec)

    def for_family(self, family: str) -> list[InterfaceSpec]:
        """All interfaces offered for a family."""
        return [s for s in self.specs if s.family == family]

    def kinds_for(self, family: str) -> set[InterfaceKind]:
        """The interface kinds offered for a family."""
        return {s.kind for s in self.for_family(family)}

    def get(self, family: str, kind: InterfaceKind) -> InterfaceSpec:
        """One offered interface by (family, kind); raises if absent."""
        spec = self._by_kind.get((family, kind))
        if spec is None:
            raise SpecError(
                f"no {kind.value} interface offered for {family!r} "
                f"(offered: {sorted(k.value for k in self.kinds_for(family))})"
            )
        return spec

    def has(self, family: str, kind: InterfaceKind) -> bool:
        """Whether a (family, kind) interface is offered."""
        return (family, kind) in self._by_kind

    def bound(self, family: str, kind: InterfaceKind) -> Ticks:
        """The δ of one offered interface (0 if the kind is unbounded)."""
        return self.get(family, kind).bound

    def describe(self) -> str:
        """Menu-style listing for operators."""
        lines = []
        for spec in self.specs:
            suffix = ""
            if spec.period is not None:
                suffix = f", period {to_seconds(spec.period):g}s"
            lines.append(
                f"  {spec.family}: {spec.kind.value} "
                f"(bound {to_seconds(spec.bound):g}s{suffix})"
            )
        return "\n".join(lines)
