"""Guarantee base class, reports, and family-pairing helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.intervals import Interval
from repro.core.items import DataItemRef
from repro.core.trace import ExecutionTrace, Timeline


@dataclass
class GuaranteeReport:
    """The result of checking one guarantee over one trace.

    ``valid`` is the verdict over everything that could be decided;
    ``inconclusive`` counts obligations whose deadline lies beyond the trace
    horizon (they neither support nor refute the guarantee).
    ``stats`` carries measured quantities the experiments report, such as the
    smallest metric bound that would have held.  ``violated_during``: the
    tick intervals the counterexamples hold in, if the checker records them
    (the copy family does); neither ``str`` nor :meth:`to_dict` renders it.
    """

    guarantee: str
    valid: bool
    checked_instances: int = 0
    counterexamples: list[str] = field(default_factory=list)
    inconclusive: int = 0
    stats: dict[str, Any] = field(default_factory=dict)
    violated_during: list[Interval] = field(default_factory=list)

    def merge(self, other: "GuaranteeReport") -> None:
        """Fold another (per-instance) report into this aggregate."""
        self.valid = self.valid and other.valid
        self.checked_instances += other.checked_instances
        self.counterexamples.extend(other.counterexamples)
        self.inconclusive += other.inconclusive
        self.violated_during.extend(other.violated_during)
        for key, value in other.stats.items():
            if key in self.stats and isinstance(value, (int, float)):
                self.stats[key] = max(self.stats[key], value)
            else:
                self.stats[key] = value

    def __str__(self) -> str:
        verdict = "VALID" if self.valid else "VIOLATED"
        extra = f", {self.inconclusive} inconclusive" if self.inconclusive else ""
        return (
            f"{self.guarantee}: {verdict} "
            f"({self.checked_instances} instance(s){extra})"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form for run reports and ``--json`` output."""
        return {
            "guarantee": self.guarantee,
            "valid": self.valid,
            "checked_instances": self.checked_instances,
            "counterexamples": list(self.counterexamples),
            "inconclusive": self.inconclusive,
            "stats": dict(self.stats),
        }


class Guarantee:
    """A guarantee: a named, formula-carrying, trace-checkable statement.

    Subclasses implement :meth:`check`.  ``formula`` is the paper-style
    rendering shown to users; ``metric`` distinguishes guarantees that state
    explicit time bounds (Section 3.3) — the distinction matters for failure
    handling (Section 5: metric failures invalidate only metric guarantees).
    """

    def __init__(self, name: str, formula: str, metric: bool) -> None:
        self.name = name
        self.formula = formula
        self.metric = metric

    def check(self, trace: ExecutionTrace) -> GuaranteeReport:
        """Evaluate the guarantee over a recorded trace."""
        raise NotImplementedError

    def __str__(self) -> str:
        kind = "metric" if self.metric else "non-metric"
        return f"{self.name} ({kind}): {self.formula}"


def paired_refs(
    trace: ExecutionTrace, x_family: str, y_family: str
) -> list[tuple[DataItemRef, DataItemRef]]:
    """Instantiate a parameterized copy guarantee over a trace.

    Pairs ``x_family(args)`` with ``y_family(args)`` for every argument
    tuple seen in the trace on either side — quantification over data is
    achieved through parameterized data names, as in Section 3.3 of the
    paper; a plain item's tuple is ``()``.  A family neither side's item
    occurs in gives no pair: a guarantee over it has no instance to check.
    """
    # Refs the trace already holds are reused, not rebuilt: the pairing is
    # kept with the trace (:func:`paired_timelines`) and should add little.
    x_refs = {ref.args: ref for ref in trace.refs_of_family(x_family)}
    y_refs = {ref.args: ref for ref in trace.refs_of_family(y_family)}
    arg_tuples = x_refs.keys() | y_refs.keys()
    return [
        (
            x_refs.get(args) or DataItemRef(x_family, args),
            y_refs.get(args) or DataItemRef(y_family, args),
        )
        for args in sorted(arg_tuples, key=lambda a: tuple(map(str, a)))
    ]


def paired_timelines(
    trace: ExecutionTrace, x_family: str, y_family: str
) -> list[tuple[DataItemRef, DataItemRef, Timeline, Timeline]]:
    """:func:`paired_refs` with both items' timelines attached.

    Derived once per family pair per trace state (event count and horizon)
    and kept on the trace, as is each item's timeline (an X every replica
    copies is fetched once): every checker reads the same
    :class:`~repro.core.trace.Timeline` objects and their remembered segments.
    """
    state = (len(trace), trace.horizon)
    memo = trace._pairings  # (x, y) -> pairs; None -> (state, ref -> timeline)
    if memo.get(None, (None,))[0] != state:
        memo.clear()
        memo[None] = (state, {})
    pairs = memo.get((x_family, y_family))
    if pairs is None:
        timelines = memo[None][1]
        refs = paired_refs(trace, x_family, y_family)
        fetch = {ref for pair in refs for ref in pair} - timelines.keys()
        timelines.update(zip(fetch, trace.timelines(fetch)))
        # A lookup the memo answers is a cache hit of ``trace.stats()``.
        trace._timeline_cache_hits += 2 * len(refs) - len(fetch)
        pairs = memo[x_family, y_family] = [
            (x, y, timelines[x], timelines[y]) for x, y in refs
        ]
    return pairs
