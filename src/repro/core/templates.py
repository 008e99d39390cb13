"""Event templates and matching interpretations (Appendix A.1).

A template is an event descriptor in which components may be parameterized
(variables) or wild-carded.  ``W_s(X, b)`` denotes the set of spontaneous
write descriptors to ``X`` with any new value; the paper treats it as
shorthand for ``W_s(X, *, b)``, and so does :func:`template`.

An event *matches* a template when there is an interpretation of the
template's variables whose substitution yields the event's descriptor; that
interpretation is the *matching interpretation* ``mi(E, T)`` used to carry
bindings from a rule's left-hand side to its right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.events import EventDesc, EventKind
from repro.core.items import DataItemRef
from repro.core.terms import (
    FAMILY_WILDCARD,
    WILDCARD,
    Bindings,
    Const,
    ItemPattern,
    Term,
    Var,
    ground_item,
    ground_term,
    match_item,
    match_term,
)

#: A pre-compiled template matcher (:func:`compile_fields_matcher`): an
#: event's kind value, item and values in, matching interpretation (or
#: ``None``) out.
Matcher = Callable[..., Optional[Bindings]]


@dataclass(frozen=True)
class Template:
    """An event template: kind, item pattern, and value terms.

    The false template ``F`` (:data:`FALSE_TEMPLATE`) matches no event; it is
    used on rule right-hand sides to state prohibitions such as the
    "no spontaneous writes" interface.
    """

    kind: EventKind
    item: Optional[ItemPattern]
    values: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is EventKind.FALSE:
            return
        if self.kind.takes_item and self.item is None:
            raise ValueError(f"{self.kind.value} template requires an item pattern")
        if not self.kind.takes_item and self.item is not None:
            raise ValueError(f"{self.kind.value} template takes no item pattern")
        if len(self.values) != self.kind.value_arity:
            raise ValueError(
                f"{self.kind.value} takes {self.kind.value_arity} value term(s), "
                f"got {len(self.values)}"
            )

    def __str__(self) -> str:
        if self.kind is EventKind.FALSE:
            return "FALSE"
        if self.kind is EventKind.PERIODIC and isinstance(
            self.values[0], Const
        ):
            from repro.core.timebase import to_seconds

            return f"P({to_seconds(self.values[0].value):g})"
        parts: list[str] = []
        if self.item is not None:
            parts.append(str(self.item))
        parts.extend(str(v) for v in self.values)
        return f"{self.kind.value}({', '.join(parts)})"

    @property
    def item_family(self) -> Optional[str]:
        """The item family name the template mentions, if any."""
        return self.item.name if self.item is not None else None

    @property
    def dispatch_family(self) -> Optional[str]:
        """The family this template can be *keyed* by for event dispatch.

        ``None`` for item-less templates (``P``, ``F``) and for
        family-variable templates (:data:`~repro.core.terms.FAMILY_WILDCARD`
        patterns), which must be consulted for every event of their kind.
        """
        if self.item is None or self.item.name == FAMILY_WILDCARD:
            return None
        return self.item.name

    def variables(self) -> set[str]:
        """All variable names appearing anywhere in the template."""
        found: set[str] = set()
        if self.item is not None:
            found |= self.item.variables()
        for term in self.values:
            if isinstance(term, Var):
                found.add(term.name)
        return found


#: The template that matches no event (the paper's special event ``F``).
FALSE_TEMPLATE = Template(EventKind.FALSE, None, ())


def _coerce_term(value: object) -> Term:
    if isinstance(value, Term):
        return value
    if isinstance(value, str):
        return Var(value)
    return Const(value)


def template(kind: EventKind, item: ItemPattern | None, *values: object) -> Template:
    """Build a template; bare strings become variables, other values constants.

    For ``Ws`` the paper's two-argument shorthand is honoured: a single value
    term is treated as the *new* value with a wildcard old value.
    """
    terms = tuple(_coerce_term(v) for v in values)
    if kind is EventKind.SPONTANEOUS_WRITE and len(terms) == 1:
        terms = (WILDCARD, terms[0])
    return Template(kind, item, terms)


def match_desc(tmpl: Template, desc: EventDesc) -> Optional[Bindings]:
    """Match a ground descriptor against a template.

    Returns the matching interpretation (bindings dict) or ``None``.  The
    returned dict is fresh; callers may extend it.
    """
    if tmpl.kind is EventKind.FALSE:
        return None
    if tmpl.kind is not desc.kind:
        return None
    bindings: Bindings = {}
    if tmpl.item is not None:
        assert desc.item is not None  # enforced by EventDesc invariant
        if not match_item(tmpl.item, desc.item, bindings):
            return None
    for term, value in zip(tmpl.values, desc.values):
        if not match_term(term, value, bindings):
            return None
    return bindings


def _compile_term(term: Term) -> Callable[[object, Bindings], bool]:
    """Specialize one term into a closure ``(value, bindings) -> matched``."""
    if term is WILDCARD:
        return lambda value, bindings: True
    if isinstance(term, Const):
        expected = term.value
        return lambda value, bindings: value == expected
    if isinstance(term, Var):
        name = term.name

        def check_or_bind(value: object, bindings: Bindings) -> bool:
            if name in bindings:
                return bindings[name] == value
            bindings[name] = value
            return True

        return check_or_bind
    raise TypeError(f"not a matchable term: {term!r}")


def compile_fields_matcher(tmpl: Template) -> Matcher:
    """Pre-compile a template into a matcher over a descriptor's fields.

    ``match(kind value, item, first value, second value)`` is semantically
    identical to ``match_desc(tmpl, desc)`` for the descriptor with those
    fields, but resolves the template's structure — kind, family, per-term
    dispatch — once at compile time instead of re-interpreting it on every
    event, and reads an event stored as atoms (the trace's rows) without
    building a descriptor; a value the kind does not carry is passed as
    ``None``.
    """
    if tmpl.kind is EventKind.FALSE:
        return lambda kind, item, first, second: None
    kind = tmpl.kind._value_
    # A template carries exactly its kind's value arity (at most two).
    tests = [_compile_term(term) for term in tmpl.values]
    first_test = tests[0] if tests else None
    second_test = tests[1] if len(tests) > 1 else None

    if tmpl.item is None:

        def itemless_matcher(
            got: str, item: object, first: object, second: object
        ) -> Optional[Bindings]:
            if got != kind:
                return None
            bindings: Bindings = {}
            if first_test is not None and not first_test(first, bindings):
                return None
            if second_test is not None and not second_test(second, bindings):
                return None
            return bindings

        return itemless_matcher

    family = tmpl.item.name
    any_family = family == FAMILY_WILDCARD
    arg_tests = tuple(_compile_term(term) for term in tmpl.item.args)
    arg_count = len(arg_tests)

    def matcher(
        got: str, item: Optional[DataItemRef], first: object, second: object
    ) -> Optional[Bindings]:
        if got != kind or item is None:
            return None
        if not any_family and item.name != family:
            return None
        if len(item.args) != arg_count:
            return None
        bindings: Bindings = {}
        for test, value in zip(arg_tests, item.args):
            if not test(value, bindings):
                return None
        if first_test is not None and not first_test(first, bindings):
            return None
        if second_test is not None and not second_test(second, bindings):
            return None
        return bindings

    return matcher


def instantiate(tmpl: Template, bindings: Bindings) -> EventDesc:
    """Ground a template with bindings, yielding an event descriptor.

    All variables must be bound (the paper's semantics pass the matching
    interpretation of the LHS to the RHS; RHS-only variables in templates are
    not supported — they would denote nondeterministic values).
    """
    if tmpl.kind is EventKind.FALSE:
        raise ValueError("the false template cannot be instantiated")
    ref: Optional[DataItemRef] = None
    if tmpl.item is not None:
        ref = ground_item(tmpl.item, bindings)
    values = tuple(ground_term(term, bindings) for term in tmpl.values)
    return EventDesc(tmpl.kind, ref, values)
