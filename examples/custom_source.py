"""Extending the toolkit: a custom source, translator, and DSL strategy.

Section 4.1 of the paper: "the toolkit is extensible and can accommodate
custom interface and strategy descriptions written using our rule language."
This example exercises that path end to end:

1. a **custom raw source** not shipped with the library — a job-queue server
   whose native interface is enqueue/claim/inspect;
2. a **custom CM-Translator** subclass mapping item families onto it
   (the queue depth per job class);
3. a **custom strategy written in the rule DSL** — not taken from the
   catalog menu — that mirrors the queue depth into a relational operations
   dashboard and keeps a shell-private high-water mark:

       N(depth(c), b) -> [2] WR(dashboard_depth(c), b)
       N(depth(c), b) & Highwater(c) != b -> ...

4. hand-issued guarantees, checked against the trace like any menu entry.

Run:  python examples/custom_source.py
"""

from repro import (
    CMRID,
    CMTranslator,
    ConstraintManager,
    DataItemRef,
    InterfaceKind,
    Scenario,
    follows,
    parse_rules,
    seconds,
)
from repro.ris.base import RawInformationSource
from repro.ris.relational import RelationalDatabase


# --- 1. the custom raw source ------------------------------------------------


class JobQueueServer(RawInformationSource):
    """A queueing system: jobs are enqueued into named classes.

    Its native interface is nothing like a database: enqueue, claim, and a
    depth inspection call.  Listeners can subscribe to depth changes (the
    queue's admin feed).
    """

    kind = "job-queue"

    def __init__(self, name: str):
        super().__init__(name)
        self._queues: dict[str, list[str]] = {}
        self._listeners = []

    def subscribe(self, callback) -> None:
        self._listeners.append(callback)

    def _notify(self, job_class: str) -> None:
        depth = self.depth(job_class)
        for listener in self._listeners:
            listener(job_class, depth)

    def enqueue(self, job_class: str, job_id: str) -> None:
        self._queues.setdefault(job_class, []).append(job_id)
        self._notify(job_class)

    def claim(self, job_class: str) -> str | None:
        queue = self._queues.get(job_class, [])
        if not queue:
            return None
        job = queue.pop(0)
        self._notify(job_class)
        return job

    def depth(self, job_class: str) -> int:
        return len(self._queues.get(job_class, ()))

    def job_classes(self) -> list[str]:
        return sorted(self._queues)


# --- 2. the custom translator --------------------------------------------------


class JobQueueTranslator(CMTranslator):
    """Maps ``depth(c)`` item families onto a JobQueueServer."""

    kind = "job-queue"

    def __init__(self, source, rid, service=None):
        super().__init__(source, rid, service)
        self.queue: JobQueueServer = source

    def _native_read(self, ref: DataItemRef):
        return self.queue.depth(str(ref.args[0]))

    def _native_write(self, ref, value):  # the CM never writes a queue
        raise NotImplementedError("queues are updated by enqueue/claim only")

    def _native_enumerate(self, family: str):
        return [
            DataItemRef(family, (job_class,))
            for job_class in self.queue.job_classes()
        ]

    def _setup_native_notify(self, family: str) -> None:
        def on_depth_change(job_class: str, depth: int) -> None:
            if self._current_spontaneous is None:
                return
            self._deliver_notification(
                DataItemRef(family, (job_class,)),
                depth,
                self._current_spontaneous,
            )

        self.queue.subscribe(on_depth_change)


# --- 3. wire it up with a DSL-written strategy ------------------------------------


def build():
    """Wire the custom source, translator, and DSL strategy."""
    scenario = Scenario(seed=77)
    cm = ConstraintManager(scenario)

    queue = JobQueueServer("batch-queue")
    rid_queue = (
        CMRID("job-queue", "batch-queue")
        .bind("depth", params=("c",))
        .offer("depth", InterfaceKind.NOTIFY, bound_seconds=1.0)
        .offer("depth", InterfaceKind.READ, bound_seconds=1.0)
    )
    # A custom translator is attached directly (bypassing the standard
    # registry): add_translator registers it with the shell and its
    # families with the location registry in one step.
    translator = JobQueueTranslator(queue, rid_queue)
    cm.add_site("queue-site")
    cm.add_translator("queue-site", translator)

    dashboard = RelationalDatabase("ops-dashboard")
    dashboard.execute(
        "CREATE TABLE queue_depths (class TEXT PRIMARY KEY, depth INTEGER)"
    )
    rid_dash = (
        CMRID("relational", "ops-dashboard")
        .bind(
            "dash_depth",
            params=("c",),
            table="queue_depths",
            key_column="class",
            value_column="depth",
        )
        .offer("dash_depth", InterfaceKind.WRITE, bound_seconds=1.0)
        .offer("dash_depth", InterfaceKind.NO_SPONTANEOUS_WRITE)
    )
    cm.add_site("ops-site")
    cm.add_source("ops-site", dashboard, rid_dash)

    # The custom strategy, written in the rule language (Section 3.2):
    # mirror each depth change to the dashboard, and track a shell-private
    # high-water mark at the ops site.
    rules = parse_rules(
        """
        rule mirror:
            N(depth(c), b) -> [2] WR(dash_depth(c), b)
        rule highwater:
            N(depth(c), b) -> [2] (Highwater(c) == MISSING or b > Highwater(c)) ? W(Highwater(c), b)
        """
    )
    cm.locations.register("Highwater", "ops-site")  # shell-private
    for rule in rules:
        # Surveys, routes the RHS to ops-site, hooks the notify.
        cm.install_rule("queue-site", rule)

    # Hand-issued guarantee for the custom strategy: the dashboard only
    # shows depths the queue actually had ("follows").
    guarantee = follows("depth", "dash_depth")
    return cm, queue, translator, dashboard, guarantee


def build_for_lint():
    """CM-Lint hook: the custom wiring, before any queue activity."""
    return build()[0]


def main() -> None:
    cm, queue, translator, dashboard, guarantee = build()
    scenario = cm.scenario

    # Workload: spontaneous enqueue/claim activity.  Queue mutations go
    # through apply_spontaneous_write so the trace sees them; the helper
    # wraps the native calls.
    def spontaneous(operation) -> None:
        ref = DataItemRef("depth", (operation[1],))
        # Record Ws around the native mutation, like any local application.
        old = scenario.trace.current_value(ref)
        translator._current_spontaneous = scenario.trace.record(
            scenario.sim.now,
            "queue-site",
            __import__(
                "repro.core.events", fromlist=["spontaneous_write_desc"]
            ).spontaneous_write_desc(
                ref,
                old,
                queue.depth(operation[1]) + (1 if operation[0] == "enq" else -1),
            ),
        )
        try:
            if operation[0] == "enq":
                queue.enqueue(operation[1], f"job-{scenario.sim.now}")
            else:
                queue.claim(operation[1])
        finally:
            translator._current_spontaneous = None

    activity = [
        (1, ("enq", "reports")),
        (2, ("enq", "reports")),
        (3, ("enq", "billing")),
        (10, ("claim", "reports")),
        (12, ("enq", "billing")),
        (20, ("claim", "billing")),
    ]
    for at, operation in activity:
        scenario.sim.at(seconds(at), lambda op=operation: spontaneous(op))

    cm.run(until=seconds(60))

    print("dashboard after mirroring:")
    for row in dashboard.query(
        "SELECT class, depth FROM queue_depths ORDER BY class"
    ):
        print(f"  {row[0]}: depth {row[1]}")
    print("\nshell-private high-water marks:")
    store = cm.shell("ops-site").store
    for job_class in ("billing", "reports"):
        print(
            f"  {job_class}: "
            f"{store.read_local(DataItemRef('Highwater', (job_class,)))}"
        )
    print("\nhand-issued guarantee, checked like any menu entry:")
    print(" ", guarantee.check(scenario.trace))


if __name__ == "__main__":
    main()
