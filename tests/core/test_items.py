"""Unit tests for data items and the location registry."""

import copy
import json
import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.core.events import notify_desc
from repro.core.items import MISSING, DataItemRef, Locations, item
from repro.obs.report import RunReport
from repro.runtime.codec import decode_desc, decode_value, encode_desc, encode_value


class TestMissing:
    def test_singleton(self):
        from repro.core.items import _Missing

        assert _Missing() is MISSING

    def test_falsy_and_repr(self):
        assert not MISSING
        assert repr(MISSING) == "MISSING"


class TestDataItemRef:
    def test_plain_item(self):
        ref = item("X")
        assert ref.name == "X"
        assert ref.args == ()
        assert str(ref) == "X"

    def test_parameterized_item(self):
        ref = item("salary1", "e042")
        assert str(ref) == "salary1('e042')"

    def test_hashable_and_equal_by_value(self):
        assert item("a", 1) == item("a", 1)
        assert len({item("a", 1), item("a", 1), item("a", 2)}) == 2


@dataclass(frozen=True)
class ReferenceRef:
    """The reference value semantics: a frozen dataclass over the same
    fields, with ``DataItemRef``'s ``str``."""

    name: str
    args: tuple = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(repr(a) for a in self.args)})"


SCALARS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["e1", "e2", "", "x y"]),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.booleans(),
    st.none(),
)
ARGS = st.lists(
    st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3).map(tuple)),
    max_size=3,
).map(tuple)
FIELDS = st.tuples(st.sampled_from(["X", "salary1", "phone"]), ARGS)


class TestDataItemRefSemantics:
    """A ref is a tuple underneath, so that ``hash`` and ``==`` run in C;
    none of that may show."""

    @given(FIELDS, FIELDS)
    @settings(max_examples=300, deadline=None)
    def test_eq_and_hash_agree_with_the_dataclass(self, a, b):
        ref_a, ref_b = DataItemRef(*a), DataItemRef(*b)
        assert (ref_a == ref_b) == (ReferenceRef(*a) == ReferenceRef(*b))
        assert (ref_a != ref_b) == (ReferenceRef(*a) != ReferenceRef(*b))
        if ref_a == ref_b:
            assert hash(ref_a) == hash(ref_b)
        assert ref_a == DataItemRef(*a) and hash(ref_a) == hash(DataItemRef(*a))

    @given(FIELDS)
    @settings(max_examples=200, deadline=None)
    def test_never_equal_to_its_plain_tuple(self, fields):
        ref = DataItemRef(*fields)
        assert ref != fields and fields != ref
        assert not ref == fields
        keyed = {ref: "ref", fields: "tuple"}
        assert len(keyed) == 2
        assert keyed[ref] == "ref" and keyed[fields] == "tuple"
        assert fields not in {ref} and ref not in {fields}

    @given(FIELDS)
    @settings(max_examples=200, deadline=None)
    def test_fields_repr_and_str_unchanged(self, fields):
        ref, reference = DataItemRef(*fields), ReferenceRef(*fields)
        assert (ref.name, ref.args) == fields
        assert repr(ref) == repr(reference).replace("ReferenceRef", "DataItemRef")
        assert str(ref) == str(reference) and f"{ref}" == str(reference)

    def test_defaults_and_keywords(self):
        assert DataItemRef("X") == DataItemRef("X", ()) == item("X")
        assert DataItemRef(name="s", args=(1,)) == item("s", 1)
        assert repr(DataItemRef("X")) == "DataItemRef(name='X', args=())"

    def test_immutable(self):
        ref = item("salary1", "e1")
        for name in ("name", "args", "other"):
            with pytest.raises(AttributeError):
                setattr(ref, name, "x")
            with pytest.raises(AttributeError):
                delattr(ref, name)
        assert not hasattr(ref, "__dict__")
        assert ref == item("salary1", "e1")

    @given(FIELDS)
    @settings(max_examples=100, deadline=None)
    def test_pickle_copy_and_codec_round_trip(self, fields):
        ref = DataItemRef(*fields)
        copies = [
            pickle.loads(pickle.dumps(ref, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        copies += [copy.copy(ref), copy.deepcopy(ref)]
        copies.append(decode_value(encode_value(ref)))
        copies.append(decode_desc(encode_desc(notify_desc(ref, 1))).item)
        for clone in copies:
            assert type(clone) is DataItemRef
            assert clone == ref and hash(clone) == hash(ref)
            assert (clone.name, clone.args) == fields
            assert clone != fields

    def test_run_report_json_renders_a_ref_as_its_str(self):
        ref = item("salary1", "e1", 2)
        # The caveat: ``json`` encodes a tuple subclass as a list and never
        # consults ``default`` for it.
        assert json.loads(json.dumps({"r": ref}, default=str))["r"] != str(ref)
        report = RunReport(
            horizon_s=1.0,
            dispatch={},
            failures={"ref": ref, "nested": [{"refs": (ref, "other")}]},
        )
        failures = json.loads(report.to_json())["failures"]
        assert failures == {
            "ref": "salary1('e1', 2)",
            "nested": [{"refs": ["salary1('e1', 2)", "other"]}],
        }


class TestLocations:
    def test_register_and_lookup(self):
        locations = Locations()
        locations.register("salary1", "sf")
        assert locations.site_of("salary1") == "sf"
        assert locations.known("salary1")
        assert not locations.known("other")

    def test_reregister_same_site_is_idempotent(self):
        locations = Locations()
        locations.register("x", "a")
        locations.register("x", "a")
        assert locations.site_of("x") == "a"

    def test_conflicting_registration_rejected(self):
        locations = Locations()
        locations.register("x", "a")
        with pytest.raises(ConfigurationError):
            locations.register("x", "b")

    def test_unknown_family_raises(self):
        with pytest.raises(ConfigurationError):
            Locations().site_of("ghost")

    def test_families_at_site(self):
        locations = Locations()
        locations.register("x", "a")
        locations.register("y", "a")
        locations.register("z", "b")
        assert sorted(locations.families_at("a")) == ["x", "y"]
