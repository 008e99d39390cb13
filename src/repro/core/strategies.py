"""The strategy menu: proven constraint-management algorithms as rule sets.

A *strategy* is the algorithm the constraint manager runs to monitor or
enforce a constraint (Section 3.2).  Each constructor below produces a
:class:`StrategySpec`: a named bundle of rules plus the metadata the toolkit
needs to install it (timer phases for periodic rules, private data items to
allocate at shells, and a ``kind`` tag the proven-guarantee catalog matches
against).

Menu (paper anchor in parentheses):

- :func:`propagation` — forward every notification as a write request
  (Section 3.2.1 / 4.2.2).
- :func:`cached_propagation` — same, but suppress writes of unchanged values
  using a shell-private cache (Section 3.2's ``Cx`` example).
- :func:`polling` — periodically read the source and propagate what was read
  (Section 4.2.3).
- :func:`monitor` — maintain ``Flag``/``Tb`` auxiliary data from notify-only
  sources (Section 6.3).
- :func:`eod_batch` — end-of-working-day bulk propagation (Section 6.4).
- :func:`eod_cleanup` — daily referential-integrity cleanup deleting orphan
  parents (Section 6.2).

The Demarcation Protocol (Section 6.1) is a *native* strategy — its control
flow (limit negotiation) lives in :mod:`repro.protocols.demarcation` — and is
wrapped in a StrategySpec with ``executor='native'``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.conditions import Binary, Expr, ItemRead, Literal, Name
from repro.core.errors import SpecError
from repro.core.events import EventKind
from repro.core.items import MISSING
from repro.core.rules import RhsStep, Rule
from repro.core.templates import Template, template
from repro.core.terms import Const, ItemPattern, Var
from repro.core.timebase import Ticks


@dataclass(frozen=True)
class StrategySpec:
    """One installable strategy.

    ``timer_phases`` maps a periodic rule's name to the tick-of-day at which
    its timer should first fire (e.g. 17:00 for end-of-day strategies);
    periodic rules without an entry start at the scenario's epoch.
    ``private_families`` lists shell-private item families the strategy uses
    (allocated at the site of the rules that read/write them).
    ``executor`` is ``'rules'`` for rule-engine strategies or ``'native'``
    for programmed protocols; native strategies carry a ``native_factory``
    called by the manager at installation time.
    """

    name: str
    kind: str
    description: str
    rules: tuple[Rule, ...] = ()
    timer_phases: dict[str, Ticks] = field(default_factory=dict)
    private_families: tuple[tuple[str, str], ...] = ()  # (family, site)
    executor: str = "rules"
    native_factory: Optional[Callable[..., Any]] = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        lines = [f"strategy {self.name} ({self.kind}): {self.description}"]
        for rule in self.rules:
            lines.append(f"  {rule.name}: {rule}")
        return "\n".join(lines)


def _vars(params: tuple[str, ...]) -> tuple[Var, ...]:
    return tuple(Var(p) for p in params)


def _item(family: str, params: tuple[str, ...]) -> ItemPattern:
    return ItemPattern(family, _vars(params))


def propagation(
    src_family: str,
    dst_family: str,
    delay: Ticks,
    params: tuple[str, ...] = (),
) -> StrategySpec:
    """``N(X, b) -> [δ] WR(Y, b)`` — naive update propagation."""
    src = _item(src_family, params)
    dst = _item(dst_family, params)
    rule = Rule(
        name=f"propagate_{src_family}_to_{dst_family}",
        lhs=template(EventKind.NOTIFY, src, "b"),
        delay=delay,
        steps=(RhsStep(template(EventKind.WRITE_REQUEST, dst, "b")),),
    )
    return StrategySpec(
        name=f"propagation({src_family} -> {dst_family})",
        kind="propagation",
        description="forward every source notification as a write request",
        rules=(rule,),
    )


def cached_propagation(
    src_family: str,
    dst_family: str,
    delay: Ticks,
    params: tuple[str, ...] = (),
    dst_site: str = "",
) -> StrategySpec:
    """Propagation with a shell-private cache suppressing no-op writes.

    ``N(X, b) -> [δ] (Cx != b) ? WR(Y, b), W(Cx, b)`` — the footnote-3
    refinement of the paper's Section 4 example.  The cache family lives at
    the destination shell (conditions may only read data local to the RHS
    site).  ``dst_site`` must name that site so the toolkit can allocate the
    cache there.
    """
    src = _item(src_family, params)
    dst = _item(dst_family, params)
    cache_family = f"Cache_{src_family}_{dst_family}"
    cache = _item(cache_family, params)
    differs: Expr = Binary("!=", ItemRead(cache), Name("b"))
    rule = Rule(
        name=f"cached_propagate_{src_family}_to_{dst_family}",
        lhs=template(EventKind.NOTIFY, src, "b"),
        delay=delay,
        steps=(
            RhsStep(template(EventKind.WRITE_REQUEST, dst, "b"), differs),
            RhsStep(template(EventKind.WRITE, cache, "b")),
        ),
    )
    return StrategySpec(
        name=f"cached_propagation({src_family} -> {dst_family})",
        kind="cached-propagation",
        description="propagate notifications, suppressing unchanged values",
        rules=(rule,),
        private_families=((cache_family, dst_site),),
        metadata={"cache_family": cache_family},
    )


def polling(
    src_family: str,
    dst_family: str,
    period: Ticks,
    delay: Ticks,
    params: tuple[str, ...] = (),
    phase: Optional[Ticks] = None,
) -> StrategySpec:
    """Poll the source every ``period`` and propagate what was read.

    ``P(p) -> [ε] RR(X)`` then ``R(X, b) -> [δ] WR(Y, b)`` (Section 4.2.3).
    For parameterized families the read-request template has an unbound
    parameter, which the CM-Shell executes as an enumerating read over all
    known instances (a documented extension — the paper's example polls a
    scalar item).
    """
    src = _item(src_family, params)
    dst = _item(dst_family, params)
    poll_rule = Rule(
        name=f"poll_{src_family}",
        lhs=Template(EventKind.PERIODIC, None, (Const(period),)),
        delay=delay,
        steps=(RhsStep(template(EventKind.READ_REQUEST, src)),),
        lhs_site=None,  # assigned by the manager to the source's shell
    )
    forward_rule = Rule(
        name=f"forward_{src_family}_to_{dst_family}",
        lhs=template(EventKind.READ_RESPONSE, src, "b"),
        delay=delay,
        steps=(RhsStep(template(EventKind.WRITE_REQUEST, dst, "b")),),
    )
    from repro.core.timebase import to_seconds

    phases = {} if phase is None else {poll_rule.name: phase}
    return StrategySpec(
        name=f"polling({src_family} -> {dst_family}, p={to_seconds(period):g}s)",
        kind="polling",
        description="periodically read the source and propagate the value",
        rules=(poll_rule, forward_rule),
        timer_phases=phases,
        metadata={"period": period},
    )


def monitor(
    x_family: str,
    y_family: str,
    app_site: str,
    delay: Ticks,
) -> StrategySpec:
    """Maintain ``Flag``/``Tb`` at the application's site (Section 6.3).

    On each notification from either item the shell updates its cached copy
    and recomputes agreement::

        N(X, b) -> [δ] W(Cx, b),
                       (Cx != Cy) ? W(Flag, false),
                       (Cx == Cy and Flag != true) ? W(Tb, now),
                       (Cx == Cy) ? W(Flag, true)

    (symmetrically for Y).  ``now`` is the engine's implicit firing-time
    variable; ``Tb`` is therefore a *conservative* start-of-agreement
    timestamp, which is what makes the guarantee sound.
    """
    cache_x_family = f"Cache_{x_family}"
    cache_y_family = f"Cache_{y_family}"
    flag_family = f"Flag_{x_family}_{y_family}"
    tb_family = f"Tb_{x_family}_{y_family}"
    cache_x = ItemPattern(cache_x_family, ())
    cache_y = ItemPattern(cache_y_family, ())
    flag = ItemPattern(flag_family, ())
    tb = ItemPattern(tb_family, ())

    def agreement_steps() -> tuple[RhsStep, ...]:
        agree: Expr = Binary("==", ItemRead(cache_x), ItemRead(cache_y))
        disagree: Expr = Binary("!=", ItemRead(cache_x), ItemRead(cache_y))
        newly: Expr = Binary(
            "and", agree, Binary("!=", ItemRead(flag), Literal(True))
        )
        return (
            RhsStep(template(EventKind.WRITE, flag, False), disagree),
            RhsStep(template(EventKind.WRITE, tb, "now"), newly),
            RhsStep(template(EventKind.WRITE, flag, True), agree),
        )

    rule_x = Rule(
        name=f"monitor_{x_family}",
        lhs=template(EventKind.NOTIFY, ItemPattern(x_family, ()), "b"),
        delay=delay,
        steps=(RhsStep(template(EventKind.WRITE, cache_x, "b")),)
        + agreement_steps(),
    )
    rule_y = Rule(
        name=f"monitor_{y_family}",
        lhs=template(EventKind.NOTIFY, ItemPattern(y_family, ()), "b"),
        delay=delay,
        steps=(RhsStep(template(EventKind.WRITE, cache_y, "b")),)
        + agreement_steps(),
    )
    private = tuple(
        (family, app_site)
        for family in (cache_x_family, cache_y_family, flag_family, tb_family)
    )
    return StrategySpec(
        name=f"monitor({x_family} = {y_family})",
        kind="monitor",
        description="maintain Flag/Tb agreement-window auxiliary data",
        rules=(rule_x, rule_y),
        private_families=private,
        metadata={
            "flag_family": flag_family,
            "tb_family": tb_family,
            "cache_families": (cache_x_family, cache_y_family),
        },
    )


def arithmetic_maintenance(
    target_family: str,
    operand_families: tuple[str, ...],
    target_site: str,
    delay: Ticks,
    transport: str = "notify",
    period: Optional[Ticks] = None,
) -> StrategySpec:
    """Maintain ``X = Y + Z + ...`` via the Section 7.1 decomposition.

    Per operand ``O`` (a plain item at a remote site) a shell-private cache
    ``Cached_O`` is kept at the target's site; with the default ``notify``
    transport the cache copy rides on notifications::

        N(O, b) -> [δ] W(Cached_O, b)

    while ``transport='poll'`` (for read-only operands) polls instead::

        P(p) -> [δ] RR(O)          R(O, b) -> [δ] W(Cached_O, b)

    Either way, a recompute rule fires whenever a cache changes, using a
    binder equality to capture the new sum (the rule stays dormant until
    every cache is populated)::

        W(Cached_O, b) ∧ (v == Cached_Y + Cached_Z) -> [δ] WR(X, v)

    The recompute rule triggers on a *generated* private write — rule
    chaining, bounded by the shell's chain-depth limit.
    """
    if transport not in ("notify", "poll"):
        raise SpecError(f"unknown transport {transport!r}")
    if transport == "poll" and period is None:
        raise SpecError("polling transport needs a period")
    caches = {family: f"Cached_{family}" for family in operand_families}
    sum_expr: Expr = ItemRead(ItemPattern(caches[operand_families[0]], ()))
    for family in operand_families[1:]:
        sum_expr = Binary(
            "+", sum_expr, ItemRead(ItemPattern(caches[family], ()))
        )
    rules: list[Rule] = []
    for family in operand_families:
        cache = ItemPattern(caches[family], ())
        if transport == "notify":
            rules.append(
                Rule(
                    name=f"cache_{family}_for_{target_family}",
                    lhs=template(
                        EventKind.NOTIFY, ItemPattern(family, ()), "b"
                    ),
                    delay=delay,
                    steps=(RhsStep(template(EventKind.WRITE, cache, "b")),),
                )
            )
        else:
            assert period is not None
            rules.append(
                Rule(
                    name=f"poll_{family}_for_{target_family}",
                    lhs=Template(EventKind.PERIODIC, None, (Const(period),)),
                    delay=delay,
                    steps=(
                        RhsStep(
                            template(
                                EventKind.READ_REQUEST,
                                ItemPattern(family, ()),
                            )
                        ),
                    ),
                )
            )
            rules.append(
                Rule(
                    name=f"cache_{family}_for_{target_family}",
                    lhs=template(
                        EventKind.READ_RESPONSE, ItemPattern(family, ()), "b"
                    ),
                    delay=delay,
                    steps=(RhsStep(template(EventKind.WRITE, cache, "b")),),
                )
            )
        rules.append(
            Rule(
                name=f"recompute_{target_family}_on_{family}",
                lhs=template(EventKind.WRITE, cache, "b"),
                condition=Binary("==", Name("v"), sum_expr),
                delay=delay,
                steps=(
                    RhsStep(
                        template(
                            EventKind.WRITE_REQUEST,
                            ItemPattern(target_family, ()),
                            "v",
                        )
                    ),
                ),
            )
        )
    return StrategySpec(
        name=f"arithmetic({target_family} = "
        f"{' + '.join(operand_families)})",
        kind="arithmetic",
        description=(
            "cache each operand at the target's site and recompute the sum"
        ),
        rules=tuple(rules),
        private_families=tuple(
            (cache, target_site) for cache in caches.values()
        ),
        metadata={"cache_families": tuple(caches.values())},
    )


def eod_batch(
    src_family: str,
    dst_family: str,
    fire_at: Ticks,
    delay: Ticks,
    params: tuple[str, ...] = (),
) -> StrategySpec:
    """End-of-day bulk propagation (Section 6.4).

    A daily timer (phase ``fire_at`` ticks after midnight) scans the source
    family and forwards every value; combined with a no-update-window
    interface this yields a periodic guarantee.
    """
    from repro.core.timebase import DAY

    spec = polling(
        src_family,
        dst_family,
        period=DAY,
        delay=delay,
        params=params,
        phase=fire_at,
    )
    return StrategySpec(
        name=f"eod_batch({src_family} -> {dst_family})",
        kind="eod-batch",
        description="propagate all values once per day at a fixed time",
        rules=spec.rules,
        timer_phases=spec.timer_phases,
        metadata={"fire_at": fire_at},
    )


def eod_cleanup(
    parent_family: str,
    child_family: str,
    fire_at: Ticks,
    delay: Ticks,
    params: tuple[str, ...] = ("n",),
) -> StrategySpec:
    """Daily referential cleanup (Section 6.2).

    Once a day, scan the parent family; for each existing parent, read the
    corresponding child; if the child is missing, delete the parent (write
    MISSING).  Rules::

        P(1 day)                      -> [ε] RR(parent(n))
        R(parent(n), v) ∧ v != MISSING -> [ε] RR(child(n))
        R(child(n), b) ∧ b == MISSING  -> [δ] WR(parent(n), MISSING)
    """
    from repro.core.timebase import DAY

    parent = _item(parent_family, params)
    child = _item(child_family, params)
    scan_rule = Rule(
        name=f"scan_{parent_family}",
        lhs=Template(EventKind.PERIODIC, None, (Const(DAY),)),
        delay=delay,
        steps=(RhsStep(template(EventKind.READ_REQUEST, parent)),),
    )
    check_rule = Rule(
        name=f"check_child_of_{parent_family}",
        lhs=template(EventKind.READ_RESPONSE, parent, "v"),
        condition=Binary("!=", Name("v"), Literal(MISSING)),
        delay=delay,
        steps=(RhsStep(template(EventKind.READ_REQUEST, child)),),
    )
    cleanup_rule = Rule(
        name=f"delete_orphan_{parent_family}",
        lhs=template(EventKind.READ_RESPONSE, child, "b"),
        condition=Binary("==", Name("b"), Literal(MISSING)),
        delay=delay,
        steps=(
            RhsStep(
                template(EventKind.WRITE_REQUEST, parent, Const(MISSING))
            ),
        ),
    )
    return StrategySpec(
        name=f"eod_cleanup({parent_family} -> {child_family})",
        kind="eod-cleanup",
        description="daily deletion of parent records lacking a child",
        rules=(scan_rule, check_rule, cleanup_rule),
        timer_phases={scan_rule.name: fire_at},
    )
