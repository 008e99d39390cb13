"""Tests for the non-relational raw sources."""

import pytest

from repro.ris.base import RISError, RISErrorCode
from repro.ris.bibliodb import BibRecord, BiblioDatabase
from repro.ris.filestore import FlatFileStore, parse_records, render_records
from repro.ris.legacy import LegacySystem
from repro.ris.objectstore import ObjectStore
from repro.ris.whois import WhoisDirectory


class TestFlatFileStore:
    def test_read_write_roundtrip(self):
        store = FlatFileStore("fs")
        store.write_file("/etc/passwd", "root\tx\n")
        assert store.read_file("/etc/passwd") == "root\tx\n"

    def test_missing_file(self):
        with pytest.raises(RISError) as excinfo:
            FlatFileStore("fs").read_file("/nope")
        assert excinfo.value.code is RISErrorCode.NOT_FOUND

    def test_mtime_follows_clock(self):
        now = [100]
        store = FlatFileStore("fs", clock=lambda: now[0])
        store.write_file("/f", "a")
        now[0] = 200
        store.write_file("/f", "b")
        assert store.mtime("/f") == 200

    def test_records_roundtrip(self):
        records = {"alice": "100", "bob": "90"}
        assert parse_records(render_records(records)) == records

    def test_record_format_skips_comments_and_blanks(self):
        content = "# header\n\nalice\t1\n"
        assert parse_records(content) == {"alice": "1"}

    def test_malformed_record_rejected(self):
        with pytest.raises(RISError):
            parse_records("no-tab-here\n")

    def test_record_level_ops(self):
        store = FlatFileStore("fs")
        store.write_record("/db", "alice", "100")
        store.write_record("/db", "bob", "90")
        assert store.read_record("/db", "alice") == "100"
        store.delete_record("/db", "alice")
        with pytest.raises(RISError):
            store.read_record("/db", "alice")

    def test_unavailability(self):
        store = FlatFileStore("fs")
        store.set_available(False)
        with pytest.raises(RISError) as excinfo:
            store.list_files()
        assert excinfo.value.code is RISErrorCode.UNAVAILABLE


class TestObjectStore:
    def build(self) -> ObjectStore:
        store = ObjectStore("oo")
        store.define_class("Person", {"login": "str", "age": "int"})
        return store

    def test_create_and_read(self):
        store = self.build()
        oid = store.create("Person", {"login": "ada", "age": 36})
        assert store.read_attr(oid, "login") == "ada"

    def test_typed_attributes(self):
        store = self.build()
        with pytest.raises(RISError):
            store.create("Person", {"login": "ada", "age": "old"})

    def test_unknown_attribute_rejected(self):
        store = self.build()
        oid = store.create("Person", {"login": "ada"})
        with pytest.raises(RISError):
            store.write_attr(oid, "ghost", 1)

    def test_find_and_extent(self):
        store = self.build()
        store.create("Person", {"login": "ada"})
        store.create("Person", {"login": "bob"})
        assert len(store.extent("Person")) == 2
        assert len(store.find("Person", "login", "ada")) == 1

    def test_change_events(self):
        store = self.build()
        events = []
        store.on_change(events.append)
        oid = store.create("Person", {"login": "ada", "age": 1})
        store.write_attr(oid, "age", 2)
        store.delete(oid)
        assert [e.operation for e in events] == ["create", "update", "delete"]
        assert events[1].old_value == 1 and events[1].new_value == 2

    def test_follow_path(self):
        store = ObjectStore("oo")
        store.define_class("Dept", {"name": "str", "manager": "ref"})
        store.define_class("Emp", {"login": "str", "dept": "ref"})
        manager = store.create("Emp", {"login": "boss"})
        dept = store.create("Dept", {"name": "eng", "manager": manager})
        worker = store.create("Emp", {"login": "w", "dept": dept})
        assert store.follow(worker, ["dept", "manager", "login"]) == "boss"

    def test_duplicate_oid_rejected(self):
        store = self.build()
        store.create("Person", {"login": "a"}, oid="fixed")
        with pytest.raises(RISError):
            store.create("Person", {"login": "b"}, oid="fixed")


class TestBiblioDatabase:
    def record(self, record_id="r1", authors=("widom",)):
        return BibRecord(record_id, "A Toolkit", tuple(authors), 1996, "ICDE")

    def test_ingest_and_lookup(self):
        biblio = BiblioDatabase("lib")
        biblio.ingest(self.record())
        assert biblio.lookup("r1").year == 1996
        assert biblio.exists("r1")

    def test_by_author_index_updates_on_reingest(self):
        biblio = BiblioDatabase("lib")
        biblio.ingest(self.record(authors=("widom",)))
        biblio.ingest(self.record(authors=("chawathe",)))  # replaces r1
        assert biblio.by_author("widom") == []
        assert len(biblio.by_author("chawathe")) == 1

    def test_withdraw(self):
        biblio = BiblioDatabase("lib")
        biblio.ingest(self.record())
        biblio.withdraw("r1")
        assert not biblio.exists("r1")
        with pytest.raises(RISError):
            biblio.withdraw("r1")

    def test_search(self):
        biblio = BiblioDatabase("lib")
        biblio.ingest(self.record())
        assert len(biblio.search(year=1996, venue="ICDE")) == 1
        assert biblio.search(year=1997) == []


class TestWhoisDirectory:
    def test_lookup_and_field(self):
        whois = WhoisDirectory("w")
        whois.admin_update("ada", phone="555", email="ada@x")
        assert whois.field("ada", "phone") == "555"
        assert whois.lookup("ada")["email"] == "ada@x"

    def test_lookup_returns_copy(self):
        whois = WhoisDirectory("w")
        whois.admin_update("ada", phone="555")
        entry = whois.lookup("ada")
        entry["phone"] = "tampered"
        assert whois.field("ada", "phone") == "555"

    def test_missing_entry_and_field(self):
        whois = WhoisDirectory("w")
        with pytest.raises(RISError):
            whois.lookup("ghost")
        whois.admin_update("ada", phone="555")
        with pytest.raises(RISError):
            whois.field("ada", "fax")

    def test_admin_remove(self):
        whois = WhoisDirectory("w")
        whois.admin_update("ada", phone="555")
        whois.admin_remove("ada")
        assert not whois.exists("ada")


class TestLegacySystem:
    def test_put_get(self):
        legacy = LegacySystem("old")
        legacy.put("k", 42)
        assert legacy.get("k") == 42

    def test_update_messages(self):
        legacy = LegacySystem("old")
        seen = []
        legacy.subscribe(lambda k, v: seen.append((k, v)))
        legacy.put("k", 1)
        assert seen == [("k", 1)]

    def test_silent_drop(self):
        legacy = LegacySystem("old", drop_decider=lambda: True)
        seen = []
        legacy.subscribe(lambda k, v: seen.append((k, v)))
        legacy.put("k", 1)
        assert seen == []  # the write happened...
        assert legacy.get("k") == 1  # ...but no one was told
        assert legacy.updates_dropped == 1

    def test_unavailability_is_detectable(self):
        legacy = LegacySystem("old")
        legacy.set_available(False)
        with pytest.raises(RISError) as excinfo:
            legacy.get("k")
        assert excinfo.value.code is RISErrorCode.UNAVAILABLE
