"""Monitoring an unenforceable constraint with Flag/Tb (Sections 6.3, 7.1).

Two legacy feeds hold copies of the same value; the CM can subscribe to
their update messages but can write neither.  The best it can do is
*monitor* the copy constraint: the CM-Shell at the application's site keeps
caches plus the auxiliary items ``Flag`` (are the copies believed equal?)
and ``Tb`` (since when?), and offers::

    ((Flag = true) ∧ (Tb = s))@t  =>  (X = Y)@@[s, t - κ]

An auditing application then uses the guarantee the way Section 7.1
describes: given a past query's timestamp, it reads Flag/Tb through the
shell and decides whether the query saw a consistent state or must be
recomputed.

Run:  python examples/monitor_auditor.py
"""

from repro import (
    CMRID,
    ConstraintManager,
    CopyConstraint,
    DataItemRef,
    InterfaceKind,
    Scenario,
    seconds,
)
from repro.apps import AuditorApp
from repro.core.guarantees.monitor import MonitorGuarantee
from repro.core.timebase import format_ticks
from repro.ris.legacy import LegacySystem


def build():
    """Wire both tickers and install the monitor strategy."""
    scenario = Scenario(seed=13)
    cm = ConstraintManager(scenario)

    feed_x = LegacySystem("ticker-x")
    rid_x = (
        CMRID("legacy", "ticker-x")
        .bind("X", key_prefix="px")
        .offer("X", InterfaceKind.NOTIFY, bound_seconds=1.0)
    )
    cm.add_site("site-x")
    cm.add_source("site-x", feed_x, rid_x)

    feed_y = LegacySystem("ticker-y")
    rid_y = (
        CMRID("legacy", "ticker-y")
        .bind("Y", key_prefix="py")
        .offer("Y", InterfaceKind.NOTIFY, bound_seconds=1.0)
    )
    cm.add_site("site-y")
    cm.add_source("site-y", feed_y, rid_y)

    constraint = cm.declare(CopyConstraint("X", "Y"))
    suggestions = cm.suggest(constraint, rule_delay=seconds(0.5))
    suggestion = suggestions[0]
    guarantee = suggestion.guarantees[0]
    assert isinstance(guarantee, MonitorGuarantee)
    installed = cm.install(constraint, suggestion)
    return cm, installed, guarantee


def build_for_lint():
    """CM-Lint hook: the wired monitor before any feed activity."""
    return build()[0]


def main() -> None:
    cm, installed, guarantee = build()
    scenario = cm.scenario
    print("suggested:", installed.strategy.name)
    print("guarantee:", guarantee)

    # An external replication process keeps Y roughly in sync with X; the
    # CM neither controls nor trusts it — it just watches.
    for index in range(12):
        at = 10 + index * 30
        value = 100.0 + index
        scenario.sim.at(
            seconds(at), lambda v=value: cm.spontaneous_write("X", (), v)
        )
        lag = 20.0 if index == 5 else 0.8  # one long divergence
        scenario.sim.at(
            seconds(at + lag),
            lambda v=value: cm.spontaneous_write("Y", (), v),
        )

    flag_ref = DataItemRef(installed.strategy.metadata["flag_family"])
    tb_ref = DataItemRef(installed.strategy.metadata["tb_family"])
    auditor = AuditorApp(cm.shell("site-y"), flag_ref, tb_ref, guarantee.kappa)
    query_times = [seconds(t) for t in (50, 165, 300)]
    for ask_at, query_time in zip((seconds(60), seconds(175), seconds(320)),
                                  query_times):
        scenario.sim.at(
            ask_at, lambda q=query_time: auditor.audit_query(q)
        )

    cm.run(until=seconds(420))

    print("\naudits (the application's use of the guarantee):")
    for record in auditor.audits:
        print(
            f"  query at {format_ticks(record.query_time)} -> "
            f"{record.verdict.value} (Flag={record.flag}, "
            f"Tb={record.tb if record.tb else '-'})"
        )

    print("\nsoundness of every Flag=true claim over the whole run:")
    print(" ", guarantee.check(scenario.trace))


if __name__ == "__main__":
    main()


#: See e6_monitor: the two monitor rules race on the shared flag by
#: design; either write order is acceptable to the auditor.
LINT_SUPPRESS = ("CM501:monitor_X",)
