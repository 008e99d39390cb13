"""Indexed event dispatch for CM-Shell rule engines.

A shell with *R* installed rules that linearly scans them on every event
does O(R × events) template matches — almost all of which fail, since a
strategy rule only ever matches one ``(event kind, item family)``
combination.  Distributed rule systems avoid exactly this by keying rules
on their trigger discriminator; this module does the same for the paper's
rule language:

- at install time each rule is compiled into its program
  (:func:`~repro.core.compile.compile_rule`) and keyed by its LHS
  ``(EventKind, family)`` pair;
- *family-variable* templates (item patterns named
  :data:`~repro.core.terms.FAMILY_WILDCARD`) and item-less templates with
  no family to key on land in a per-kind **catch-all bucket**;
- :meth:`RuleIndex.candidates` returns, for a ground descriptor, only the
  rules in the exact bucket plus the kind's catch-all bucket — merged by
  installation order, so the firing sequence is *identical* to the linear
  scan's.  The merged bucket is memoized per ``(kind, family)`` until the
  next rule is added.

The index is purely a pre-filter: every rule it returns still runs its
compiled matcher (which re-checks kind and family), so indexing can drop
non-candidates but never admit a spurious match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, Optional

from repro.core.compile import CompiledRule, compile_rule
from repro.core.events import EventDesc, EventKind
from repro.core.rules import Rule


@dataclass(frozen=True)
class InstalledRule:
    """One installed rule with its routing and its compiled program
    (:mod:`repro.core.compile`)."""

    rule: Rule
    rhs_site: Optional[str]
    serial: int
    program: CompiledRule = field(compare=False)

    def __str__(self) -> str:
        return f"#{self.serial} {self.rule.name}: {self.rule}"


class RuleIndex:
    """Rules keyed by their LHS dispatch discriminator.

    Iteration order (:meth:`__iter__`, and the merge inside
    :meth:`candidates`) is installation order, preserving the linear scan's
    firing semantics.
    """

    def __init__(self) -> None:
        self._buckets: dict[tuple[EventKind, Optional[str]], list[InstalledRule]] = {}
        self._catch_all: dict[EventKind, list[InstalledRule]] = {}
        self._all: list[InstalledRule] = []
        # (kind value, family) -> merged candidate bucket.  Keyed by the
        # kind's string value: hashing an Enum member is a Python-level call.
        self._memo: dict[tuple[str, Optional[str]], list[InstalledRule]] = {}

    def add(self, rule: Rule, rhs_site: Optional[str]) -> InstalledRule:
        """Compile and install a rule; returns its index entry.

        A rule the compiler rejects raises
        :class:`~repro.core.errors.CompileError` before the index changes.
        """
        installed = InstalledRule(
            rule=rule,
            rhs_site=rhs_site,
            serial=len(self._all),
            program=compile_rule(rule),
        )
        self._all.append(installed)
        self._memo.clear()
        kind = rule.lhs.kind
        family = rule.lhs.dispatch_family
        if family is None and rule.lhs.item is not None:
            # Family-variable template: must see every event of its kind.
            self._catch_all.setdefault(kind, []).append(installed)
        else:
            # Keyed template — including item-less kinds (P), whose
            # "family" is None and whose descriptors carry no item either.
            self._buckets.setdefault((kind, family), []).append(installed)
        return installed

    def candidates(self, desc: EventDesc) -> list[InstalledRule]:
        """Rules whose LHS might match ``desc``, in installation order.

        The returned list is shared: callers must not mutate it.
        """
        item = desc.item
        family = item.name if item is not None else None
        key = (desc.kind._value_, family)
        bucket = self._memo.get(key)
        if bucket is None:
            kind = desc.kind
            bucket = self._buckets.get((kind, family), [])
            catch_all = self._catch_all.get(kind)
            if catch_all:
                bucket = sorted(bucket + catch_all, key=attrgetter("serial"))
            self._memo[key] = bucket
        return bucket

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[InstalledRule]:
        return iter(self._all)

    @property
    def rules(self) -> list[Rule]:
        """All installed rules in installation order."""
        return [installed.rule for installed in self._all]
