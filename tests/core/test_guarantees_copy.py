"""Unit and property tests for the copy-constraint guarantee checkers.

Uses hand-constructed timelines (via the conftest helper) so each boundary
convention of Section 3.3.1's guarantees is pinned exactly, plus a
hypothesis model test: a simulated perfect propagation must always satisfy
follows/leads/strictly-follows, and value corruption must break follows.
"""

from hypothesis import given, settings, strategies as st

from repro.core.guarantees import follows, leads, strictly_follows
from repro.core.events import spontaneous_write_desc
from repro.core.guarantees.base import GuaranteeReport, paired_timelines
from repro.core.guarantees.copy import (
    FollowsGuarantee,
    LeadsGuarantee,
    StrictlyFollowsGuarantee,
    check_copy_family,
)
from repro.core.intervals import Interval
from repro.core.items import MISSING, DataItemRef
from repro.core.timebase import seconds
from repro.core.trace import ExecutionTrace

from conftest import make_timeline_trace

S = seconds  # brevity: S(3) = 3 virtual seconds in ticks


def keyed_trace(histories, horizon):
    """Like ``make_timeline_trace`` for parameterized items: ``histories``
    maps ``(family, key)`` to its ``[(time, value), ...]`` writes."""
    from repro.core.events import spontaneous_write_desc
    from repro.core.items import DataItemRef
    from repro.core.trace import ExecutionTrace

    trace = ExecutionTrace()
    changes = sorted(
        (time, family, key, value)
        for (family, key), history in histories.items()
        for time, value in history
    )
    for time, family, key, value in changes:
        ref = DataItemRef(family, (key,))
        trace.record(
            time, "site", spontaneous_write_desc(ref, trace.current_value(ref), value)
        )
    trace.close(horizon)
    return trace


class TestFollows:
    def test_valid_propagation(self):
        trace = make_timeline_trace(
            {
                "X": [(S(1), "a"), (S(10), "b")],
                "Y": [(S(2), "a"), (S(11), "b")],
            },
            horizon=S(20),
        )
        assert follows("X", "Y").check(trace).valid

    def test_y_invents_value(self):
        trace = make_timeline_trace(
            {"X": [(S(1), "a")], "Y": [(S(2), "zz")]}, horizon=S(10)
        )
        report = follows("X", "Y").check(trace)
        assert not report.valid
        assert "zz" in report.counterexamples[0]

    def test_y_takes_value_before_x(self):
        trace = make_timeline_trace(
            {"X": [(S(5), "a")], "Y": [(S(2), "a")]}, horizon=S(10)
        )
        assert not follows("X", "Y").check(trace).valid

    def test_seeded_agreement_is_allowed(self):
        trace = make_timeline_trace(
            {"X": [(0, "init")], "Y": [(0, "init")]}, horizon=S(10)
        )
        assert follows("X", "Y").check(trace).valid

    def test_simultaneous_acquisition_violates_strictness(self):
        trace = make_timeline_trace(
            {"X": [(S(3), "a")], "Y": [(S(3), "a")]}, horizon=S(10)
        )
        assert not follows("X", "Y").check(trace).valid

    def test_parameterized_families_pair_by_args(self):
        from repro.core.events import spontaneous_write_desc
        from repro.core.items import MISSING, DataItemRef
        from repro.core.trace import ExecutionTrace

        trace = ExecutionTrace()
        trace.record(
            S(1), "a",
            spontaneous_write_desc(DataItemRef("X", ("k1",)), MISSING, 5),
        )
        trace.record(
            S(2), "b",
            spontaneous_write_desc(DataItemRef("Y", ("k1",)), MISSING, 5),
        )
        trace.record(
            S(3), "b",
            spontaneous_write_desc(DataItemRef("Y", ("k2",)), MISSING, 9),
        )
        trace.close(S(10))
        report = follows("X", "Y").check(trace)
        assert report.checked_instances == 2
        assert not report.valid  # Y(k2) holds 9, X(k2) never did

    def test_lag_statistic(self):
        trace = make_timeline_trace(
            {"X": [(S(1), "a")], "Y": [(S(4), "a")]}, horizon=S(10)
        )
        report = follows("X", "Y").check(trace)
        assert report.stats["max_lag_seconds"] == 3.0


class TestMetricFollows:
    def test_fresh_enough_witness(self):
        trace = make_timeline_trace(
            {
                "X": [(S(1), "a"), (S(5), "b")],
                "Y": [(S(2), "a"), (S(6), "b")],
            },
            horizon=S(20),
        )
        assert follows("X", "Y", within_seconds=3).check(trace).valid

    def test_stale_value_violates(self):
        # X moves on at t=5; Y still holds "a" at t=20, far beyond kappa.
        trace = make_timeline_trace(
            {
                "X": [(S(1), "a"), (S(5), "b")],
                "Y": [(S(2), "a")],
            },
            horizon=S(30),
        )
        assert not follows("X", "Y", within_seconds=3).check(trace).valid

    def test_kappa_exactly_at_staleness_boundary(self):
        # X holds "a" during [1s, 5s); Y holds it during [2s, 6s).
        # For t1 just below 6s the freshest witness is just below 5s:
        # lag approaches 1s, so kappa=2s passes and kappa=0.5s fails.
        trace = make_timeline_trace(
            {
                "X": [(S(1), "a"), (S(5), "b")],
                "Y": [(S(2), "a"), (S(6), "b")],
            },
            horizon=S(20),
        )
        assert follows("X", "Y", within_seconds=2).check(trace).valid
        assert not follows("X", "Y", within_seconds=0.5).check(trace).valid

    def test_kappa_boundary_to_the_tick(self):
        # X holds "a" during [1s, 3s): a t1 in Y's "a" segment has a witness
        # iff t1 < 3s + kappa - 1 tick.  One witness, so the segment is
        # judged inline: holding "a" until 3s + kappa is one tick too long.
        for late, valid in ((0, True), (1, False)):
            trace = make_timeline_trace(
                {
                    "X": [(S(1), "a"), (S(3), "b")],
                    "Y": [(S(2), "a"), (S(5) - 1 + late, "b")],
                },
                horizon=S(20),
            )
            report = follows("X", "Y", within_seconds=2).check(trace)
            assert report.valid is valid, late
            where = [] if valid else [Interval(S(5) - 1, S(5))]
            assert report.violated_during == where


class TestLeads:
    def test_every_value_reflected(self):
        trace = make_timeline_trace(
            {
                "X": [(S(1), "a"), (S(10), "b")],
                "Y": [(S(2), "a"), (S(11), "b")],
            },
            horizon=S(30),
        )
        assert leads("X", "Y").check(trace).valid

    def test_missed_value_detected(self):
        trace = make_timeline_trace(
            {
                "X": [(S(1), "a"), (S(2), "skipped"), (S(3), "b")],
                "Y": [(S(2), "a"), (S(4), "b")],
            },
            horizon=S(30),
        )
        report = leads("X", "Y").check(trace)
        assert not report.valid
        assert report.stats["values_missed"] == 1

    def test_obligation_near_horizon_is_inconclusive(self):
        trace = make_timeline_trace(
            {"X": [(S(1), "a"), (S(9), "b")]}, horizon=S(10)
        )
        report = leads("X", "Y", horizon_slack_seconds=5).check(trace)
        # "b" acquired 1s before the horizon: witness may still come.
        assert report.inconclusive >= 1

    def test_seeded_value_exempt(self):
        trace = make_timeline_trace(
            {"X": [(0, "preexisting"), (S(5), "a")], "Y": [(S(6), "a")]},
            horizon=S(30),
        )
        report = leads("X", "Y").check(trace)
        assert report.valid
        assert report.stats["values_exempt_seeded"] == 1

    def test_metric_bound(self):
        trace = make_timeline_trace(
            {
                "X": [(S(1), "a"), (S(10), "b")],
                "Y": [(S(8), "a"), (S(12), "b")],
            },
            horizon=S(40),
        )
        # "a" took 7s to propagate: fails within 5s, passes within 10s.
        assert not leads("X", "Y", within_seconds=5).check(trace).valid
        assert leads("X", "Y", within_seconds=10).check(trace).valid

    def test_counts_are_summed_over_the_family(self):
        # k1 takes three values and Y misses one; k2 takes two, none missed.
        # The family's report counts all five (folding per-key reports with
        # max() read 3 taken / 1 missed: one key's misses over another's
        # takes as soon as a run has more than one key).
        trace = keyed_trace(
            {
                ("X", "k1"): [(S(1), "a"), (S(2), "skipped"), (S(3), "b")],
                ("Y", "k1"): [(S(2), "a"), (S(4), "b")],
                ("X", "k2"): [(S(1), "c"), (S(5), "d")],
                ("Y", "k2"): [(S(2), "c"), (S(6), "d")],
            },
            horizon=S(30),
        )
        report = leads("X", "Y").check(trace)
        assert not report.valid
        assert report.checked_instances == 2
        assert report.stats["values_taken"] == 5
        assert report.stats["values_missed"] == 1
        assert report.stats["values_exempt_seeded"] == 0
        # Maxima stay maxima: k1's "b" and k2's "d" each took 1 s.
        assert report.stats["max_propagation_delay_seconds"] == 1.0
        assert len(report.counterexamples) == 1


class TestStrictlyFollows:
    def test_in_order_propagation(self):
        trace = make_timeline_trace(
            {
                "X": [(S(1), 1), (S(2), 2), (S(3), 3)],
                "Y": [(S(2), 1), (S(3), 2), (S(4), 3)],
            },
            horizon=S(10),
        )
        assert strictly_follows("X", "Y").check(trace).valid

    def test_reordered_values_detected(self):
        trace = make_timeline_trace(
            {
                "X": [(S(1), 1), (S(2), 2)],
                "Y": [(S(3), 2), (S(4), 1)],  # arrived out of order
            },
            horizon=S(10),
        )
        report = strictly_follows("X", "Y").check(trace)
        assert not report.valid

    def test_skipping_values_is_allowed(self):
        # Order only: missing intermediate values do not violate (3).
        trace = make_timeline_trace(
            {
                "X": [(S(1), 1), (S(2), 2), (S(3), 3)],
                "Y": [(S(2), 1), (S(4), 3)],
            },
            horizon=S(10),
        )
        assert strictly_follows("X", "Y").check(trace).valid

    def test_repeated_value_needs_two_x_instants(self):
        trace = make_timeline_trace(
            {
                "X": [(S(1), 1), (S(2), 2)],
                "Y": [(S(3), 1), (S(4), 2), (S(5), 1)],
            },
            horizon=S(10),
        )
        # Y sees 2 then 1 again, but X never held 1 after 2.
        assert not strictly_follows("X", "Y").check(trace).valid

    def test_ordered_pairs_are_summed_over_the_family(self):
        trace = keyed_trace(
            {
                ("X", "k1"): [(S(1), 1), (S(2), 2)],
                ("Y", "k1"): [(S(2), 1), (S(3), 2)],
                ("X", "k2"): [(S(1), 7)],
                ("Y", "k2"): [(S(2), 7)],
            },
            horizon=S(10),
        )
        report = strictly_follows("X", "Y").check(trace)
        assert report.valid and report.checked_instances == 2
        # k1: (1,1) (1,2) (2,2); k2: (7,7).
        assert report.stats["ordered_pairs_checked"] == 4


def every_pair_report(trace):
    """Strictly-follows with its one-scan path left out: every instance goes
    through the pairwise loop, the specification the scan is held to."""
    guarantee = StrictlyFollowsGuarantee("X", "Y")
    report = GuaranteeReport(guarantee.name, valid=True)
    pairs = 0
    for x_ref, y_ref, x_timeline, y_timeline in paired_timelines(trace, "X", "Y"):
        report.checked_instances += 1
        pairs += guarantee._every_pair(
            report, x_ref, y_ref, y_timeline.held(), x_timeline.held_with
        )
    report.stats["ordered_pairs_checked"] = pairs
    return report


class _Spy(StrictlyFollowsGuarantee):
    """The checker as shipped, counting the instances its scan left to the
    pairwise loop."""

    fell_back = 0

    def _every_pair(self, *args):
        _Spy.fell_back += 1
        return super()._every_pair(*args)


# Raw ticks, so consecutive writes leave 1-tick segments.  X holds 0-3; Y is
# X's history delayed (in order, repeats included) plus stray writes of 0-4,
# so Y also takes values X never held and values out of X's order.
_WRITES = st.lists(st.tuples(st.integers(1, 30), st.integers(0, 3)), max_size=7)
_INSTANCE = st.tuples(
    _WRITES,
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(1, 30), st.integers(0, 4)), max_size=2),
)


class TestStrictlyFollowsScan:
    @given(st.lists(_INSTANCE, min_size=1, max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_scan_and_every_pair_loop_give_equal_reports(self, instances):
        histories = {}
        for key, (xs, delay, strays) in enumerate(instances):
            histories[("X", key)] = xs
            histories[("Y", key)] = [(t + delay, v) for t, v in xs] + strays
        trace = keyed_trace(histories, horizon=40)
        expected = every_pair_report(trace).to_dict()
        assert strictly_follows("X", "Y").check(trace).to_dict() == expected

    def test_the_scan_decides_distinct_witnessed_histories(self):
        _Spy.fell_back = 0
        trace = keyed_trace(
            {
                ("X", "k1"): [(1, 1), (2, 2), (3, 3)],
                ("Y", "k1"): [(2, 1), (3, 2), (4, 3)],  # 1-tick segments
                ("X", "k2"): [(1, 1), (5, 2)],
                ("Y", "k2"): [(2, 1), (7, 2), (9, 1)],  # a repeated value
                ("X", "k3"): [(1, 1), (5, 2)],
                ("Y", "k3"): [(6, 2), (8, 1)],  # out of order
                # Each neighbouring pair in order, the first and last not:
                # the scan must compare against *every* earlier segment.
                ("X", "k4"): [(1, 2), (2, 3), (4, 1), (6, 2)],
                ("Y", "k4"): [(7, 1), (9, 2), (11, 3)],
            },
            horizon=20,
        )
        report = _Spy("X", "Y").check(trace)
        assert report.to_dict() == every_pair_report(trace).to_dict()
        assert _Spy.fell_back == 3  # the scan decided k1, the loop the others
        assert len(report.counterexamples) == 3
        assert "held 1 then 3" in report.counterexamples[-1]
        # k1: 3 pairs of distinct values + the last segment with itself;
        # k2: (1,1) (1,2) (2,2) (2,1); k3: (2,2) (2,1) (1,1); k4: 3 + 3.
        assert report.stats["ordered_pairs_checked"] == 4 + 4 + 3 + 6


class TestPropagationModel:
    """Property: a faithful delayed copy satisfies all three guarantees."""

    values = st.lists(
        st.integers(0, 5), min_size=1, max_size=12, unique=False
    )

    @given(values, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_perfect_propagation_satisfies_all(self, xs, delay_s):
        gap = S(10)
        x_history = [(S(1) + i * gap, v) for i, v in enumerate(xs)]
        y_history = [(t + S(delay_s), v) for t, v in x_history]
        trace = make_timeline_trace(
            {"X": x_history, "Y": y_history},
            horizon=x_history[-1][0] + S(delay_s) + gap,
        )
        assert follows("X", "Y").check(trace).valid
        assert strictly_follows("X", "Y").check(trace).valid
        assert leads(
            "X", "Y", horizon_slack_seconds=delay_s + 10
        ).check(trace).valid
        assert follows(
            "X", "Y", within_seconds=delay_s + 10.001
        ).check(trace).valid

    @given(values, st.integers(0, 11))
    @settings(max_examples=60, deadline=None)
    def test_corrupted_copy_breaks_follows(self, xs, corrupt_index):
        gap = S(10)
        x_history = [(S(1) + i * gap, v) for i, v in enumerate(xs)]
        y_history = [(t + S(1), v) for t, v in x_history]
        index = corrupt_index % len(y_history)
        time, __ = y_history[index]
        y_history[index] = (time, 999)  # a value X never held
        trace = make_timeline_trace(
            {"X": x_history, "Y": y_history},
            horizon=x_history[-1][0] + gap,
        )
        assert not follows("X", "Y").check(trace).valid


# Per key: X's and Y's seeds (None: unseeded) and their writes, in raw ticks
# up to the horizon; MISSING is a delete, and two writes at one tick are a
# same-instant overwrite.  Y is mostly X's history delayed, so every checker
# sees both verdicts; repeated Y values send strictly-follows to its
# every-pair loop.
_SEED = st.one_of(st.none(), st.integers(0, 3))
_VALUE = st.one_of(st.integers(0, 3), st.just(MISSING))
_HISTORY = st.lists(st.tuples(st.integers(1, 39), _VALUE), max_size=6)
_KEYED = st.tuples(_SEED, _SEED, _HISTORY, st.integers(0, 4), _HISTORY)
#: Every copy-family shape: (1), (4), (2) plain, with a horizon slack and
#: metric, and (3); raw ticks.
_FAMILY = [
    FollowsGuarantee("X", "Y"),
    FollowsGuarantee("X", "Y", within=5),
    LeadsGuarantee("X", "Y"),
    LeadsGuarantee("X", "Y", horizon_slack=4),
    LeadsGuarantee("X", "Y", within=6),
    StrictlyFollowsGuarantee("X", "Y"),
]


def seeded_keyed_trace(instances, horizon=40):
    trace = ExecutionTrace()
    writes = []
    for key, (x_seed, y_seed, xs, delay, strays) in enumerate(instances):
        x_ref, y_ref = DataItemRef("X", (key,)), DataItemRef("Y", (key,))
        for ref, seed in ((x_ref, x_seed), (y_ref, y_seed)):
            if seed is not None:
                trace.seed(ref, seed)
        writes += [(time, x_ref, value) for time, value in xs]
        writes += [(min(time + delay, horizon), y_ref, value) for time, value in xs]
        writes += [(time, y_ref, value) for time, value in strays]
    for time, ref, value in sorted(writes, key=lambda write: write[0]):
        trace.record(
            time, "site", spontaneous_write_desc(ref, trace.current_value(ref), value)
        )
    trace.close(horizon)
    return trace


class TestGroupedEvaluation:
    @given(
        st.lists(_KEYED, min_size=1, max_size=3),
        st.permutations(range(len(_FAMILY))),
        st.integers(1, len(_FAMILY)),
    )
    @settings(max_examples=300, deadline=None)
    def test_each_report_equals_its_guarantee_checked_alone(
        self, instances, order, issued
    ):
        trace = seeded_keyed_trace(instances)
        guarantees = [_FAMILY[i] for i in order[:issued]]
        grouped = check_copy_family(trace, guarantees)
        for guarantee, report in zip(guarantees, grouped):
            alone = guarantee.check(trace)
            assert report.to_dict() == alone.to_dict()
            assert report.violated_during == alone.violated_during
            assert bool(report.violated_during) == (not report.valid)

    @given(st.lists(_KEYED, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_inline_one_witness_judgement_agrees_with_the_judges(self, instances):
        # ``check_copy_family`` judges a segment with one witness inline;
        # each follows and leads report must read as if every segment went
        # through the guarantee's own judge.
        trace = seeded_keyed_trace(instances)
        pairs = paired_timelines(trace, "X", "Y")
        for guarantee in _FAMILY[:5]:
            (report,) = check_copy_family(trace, [guarantee])
            judge = (
                guarantee._judge_nonmetric if guarantee.within is None
                else guarantee._judge_metric
            )
            where, extreme, inconclusive = [], 0, 0
            for __, __, x_timeline, y_timeline in pairs:
                if isinstance(guarantee, FollowsGuarantee):
                    for segment in y_timeline.held():
                        witnesses = x_timeline.held_with(segment.value)
                        lag, violated = judge(segment, witnesses)
                        where += violated or []
                        extreme = max(extreme, lag or 0)
                    continue
                for segment in x_timeline.held():
                    if segment.start == 0:
                        continue
                    witnesses = y_timeline.held_with(segment.value)
                    verdict, found = judge(segment, witnesses, trace.horizon)
                    if verdict == "violated":
                        where += found
                    elif verdict == "inconclusive":
                        inconclusive += 1
                    else:
                        extreme = max(extreme, found or 0)
            stat = (
                "max_lag_ticks" if isinstance(guarantee, FollowsGuarantee)
                else "max_propagation_delay_ticks"
            )
            assert report.violated_during == where, guarantee.name
            assert report.valid == (not where)
            assert report.stats[stat] == extreme, guarantee.name
            assert report.inconclusive == inconclusive


class TestUnseenFamilies:
    """A guarantee over families the trace never saw has no instance."""

    def test_follows_over_unseen_families_checks_nothing(self):
        report = follows("nosuch_x", "nosuch_y", 5.0).check(ExecutionTrace())
        assert report.valid and report.checked_instances == 0
        assert paired_timelines(ExecutionTrace(), "nosuch_x", "nosuch_y") == []

    def test_leads_over_unseen_families_checks_nothing(self):
        trace = make_timeline_trace({"X": [(S(1), 1)]}, horizon=S(5))
        report = leads("nosuch_x", "nosuch_y").check(trace)
        assert report.valid and report.checked_instances == 0
        assert report.stats["values_taken"] == 0

    def test_one_seen_family_still_pairs_with_the_unseen_one(self):
        trace = make_timeline_trace({"X": [(S(1), 1)]}, horizon=S(5))
        report = leads("X", "Y").check(trace)
        assert report.checked_instances == 1 and not report.valid
