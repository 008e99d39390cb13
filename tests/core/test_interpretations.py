"""Copy-on-write interpretations: journal views vs the dict-backed form.

The contract under test: a :class:`VersionedInterpretation` pinned to a
journal version is observationally identical to a plain dict-backed
:class:`Interpretation` holding the same mapping — item access, iteration,
equality, hashing, ``updated``/``restricted`` — while old views stay frozen
as the journal moves on (snapshot isolation).
"""

import pytest

from repro.core.interpretations import (
    EMPTY_INTERPRETATION,
    Interpretation,
    StateJournal,
    VersionedInterpretation,
)
from repro.core.items import MISSING, DataItemRef, item

X = DataItemRef("X")
Y = DataItemRef("Y")
Z = DataItemRef("Z")


def _dict_of(view: Interpretation) -> dict:
    return {ref: view[ref] for ref in view}


class TestJournalViews:
    def test_view_matches_dict_backed_equivalent(self):
        journal = StateJournal()
        journal.seed(X, 1)
        journal.write(Y, "a")
        journal.write(X, 2)
        view = journal.view()
        plain = Interpretation({X: 2, Y: "a"})
        assert view == plain
        assert plain == view
        assert dict(view) == dict(plain)
        assert len(view) == 2
        assert view[X] == 2 and view[Y] == "a"
        assert X in view and Z not in view
        assert view.specifies(Y) and not view.specifies(Z)
        assert hash(view) == hash(plain)

    def test_snapshot_isolation_old_views_stay_frozen(self):
        journal = StateJournal()
        journal.seed(X, 1)
        v0 = journal.view()
        journal.write(X, 2)
        v1 = journal.view()
        journal.write(Y, 3)
        journal.write(X, 4)
        assert v0[X] == 1 and not v0.specifies(Y)
        assert v1[X] == 2 and not v1.specifies(Y)
        assert journal.view()[X] == 4 and journal.view()[Y] == 3
        assert _dict_of(v0) == {X: 1}
        assert _dict_of(v1) == {X: 2}

    def test_current_view_interned_until_next_write(self):
        journal = StateJournal()
        journal.write(X, 1)
        first = journal.view()
        assert journal.view() is first
        journal.write(X, 2)
        assert journal.view() is not first

    def test_missing_vs_unspecified(self):
        journal = StateJournal()
        journal.seed(X, MISSING)
        view = journal.view()
        assert view.specifies(X) and not view.exists(X)
        assert not view.specifies(Y) and not view.exists(Y)
        assert view[X] is MISSING
        with pytest.raises(KeyError):
            view[Y]

    def test_seed_after_write_rejected(self):
        journal = StateJournal()
        journal.write(X, 1)
        with pytest.raises(ValueError):
            journal.seed(Y, 2)

    def test_same_journal_equality_sees_through_noop_writes(self):
        journal = StateJournal()
        journal.write(X, 1)
        early = journal.view()
        journal.write(X, 1)  # no-op: new version, same state
        late = journal.view()
        assert early is not late
        assert early == late
        journal.write(X, 2)
        assert early != journal.view()

    def test_updated_and_restricted_match_dict_backed(self):
        journal = StateJournal()
        journal.write(X, 1)
        journal.write(Y, 2)
        view = journal.view()
        assert view.updated(X, 9) == Interpretation({X: 9, Y: 2})
        assert view.updated(Z, 0) == Interpretation({X: 1, Y: 2, Z: 0})
        assert view.restricted({X}) == Interpretation({X: 1})
        # the originals are untouched (interpretations are immutable)
        assert view == Interpretation({X: 1, Y: 2})

    def test_versioned_view_usable_as_dict_key(self):
        journal = StateJournal()
        journal.write(X, 1)
        view = journal.view()
        table = {view: "hit"}
        assert table[Interpretation({X: 1})] == "hit"

    def test_parameterized_refs(self):
        journal = StateJournal()
        a, b = item("phone", "p1"), item("phone", "p2")
        journal.write(a, "555")
        journal.write(b, "666")
        view = journal.view()
        assert view[a] == "555" and view[b] == "666"
        assert set(view) == {a, b}


class TestMaterializationAccounting:
    def test_item_access_never_materializes(self):
        journal = StateJournal()
        for index in range(50):
            journal.write(item("f", str(index)), index)
        view = journal.view()
        ref = item("f", "7")
        assert view[ref] == 7
        assert view.specifies(ref) and view.exists(ref)
        assert len(view) == 50
        assert journal.materializations == 0

    def test_foreign_comparison_materializes_once(self):
        journal = StateJournal()
        journal.write(X, 1)
        view = journal.view()
        plain = Interpretation({X: 1})
        assert view == plain
        assert view == plain
        assert journal.materializations == 1  # cached after the first

    def test_empty_interpretation_comparisons(self):
        journal = StateJournal()
        assert journal.view() == EMPTY_INTERPRETATION
        journal.write(X, 1)
        assert journal.view() != EMPTY_INTERPRETATION


class TestVersionedViewType:
    def test_view_is_an_interpretation(self):
        journal = StateJournal()
        journal.write(X, 1)
        assert isinstance(journal.view(), Interpretation)
        assert isinstance(journal.view(), VersionedInterpretation)

    def test_pinned_version_views(self):
        journal = StateJournal()
        journal.write(X, 1)
        journal.write(X, 2)
        assert journal.view(1)[X] == 1
        assert journal.view(2)[X] == 2
        assert journal.view(0) == EMPTY_INTERPRETATION
