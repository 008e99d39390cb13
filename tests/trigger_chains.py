"""Causal chains read off an execution trace.

Every generated event names its trigger (Appendix A's ``(time, desc, old,
new, rule, trigger)``), so a propagation's chain is the walk from an event
back through ``trigger`` to the spontaneous write or periodic tick that
started it.  On the wire runtime a trigger that crossed a socket is a
by-value reconstruction, so each step resolves the trigger's ``(site,
seq)`` to the event the trace itself recorded.
"""

from __future__ import annotations

from repro.core.events import Event, EventKind

#: The kinds a chain may start at: a local application's write or a
#: periodic tick.
ROOT_KINDS = (EventKind.SPONTANEOUS_WRITE, EventKind.PERIODIC)


def trigger_chain(index: dict[tuple[str, int], Event], event: Event) -> list[Event]:
    """``event`` and its triggers, root first, each the recorded event.

    ``index`` maps ``(site, seq)`` to the trace's events (see
    :func:`chains`).  A trigger the trace did not record ends the chain at
    the last event it did, so the caller sees an unrooted chain.
    """
    chain = [event]
    while event.trigger is not None:
        recorded = index.get((event.trigger.site, event.trigger.seq))
        if recorded is None:
            break
        chain.append(recorded)
        event = recorded
    chain.reverse()
    return chain


def chains(trace, kind: EventKind = EventKind.WRITE) -> list[list[Event]]:
    """The trigger chain of every ``kind`` event in ``trace``, in order."""
    events = list(trace.events)
    index = {(event.site, event.seq): event for event in events}
    return [trigger_chain(index, e) for e in events if e.desc.kind is kind]


def rooted(chain: list[Event]) -> bool:
    """Whether the chain starts at a spontaneous write or a periodic tick."""
    return chain[0].desc.kind in ROOT_KINDS


def lag(chain: list[Event]):
    """Ticks from the chain's root to its last event."""
    return chain[-1].time - chain[0].time


def shape(chain: list[Event]) -> list[str]:
    """The chain as ``kind@site`` steps, e.g. ``["Ws@sf", "N@sf", ...]``."""
    return [f"{event.desc.kind.value}@{event.site}" for event in chain]
