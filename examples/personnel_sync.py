"""The paper's Stanford scenario (Section 4.3): four heterogeneous sources.

"The databases include the Stanford 'whois' database, the Computer Science
Department's custom personnel database ('lookup'), the database group's
Sybase database, and a bibliographic database.  There are copy constraints
for different personnel data such as phone numbers, addresses, etc., stored
in the different databases.  We also have referential integrity constraints,
such as one that specifies that every paper authored by a Stanford database
researcher as reported by the bibliographic database must also be mentioned
in the Sybase database."

This example wires up all four source kinds:

- ``whois``        — lookup-only directory (phones): constraints against it
                     can only be managed by polling;
- ``lookup``       — an object store with a change feed (emails): supports a
                     notify interface, so propagation applies;
- ``sybase``       — a relational database holding the group's master copy;
- ``biblio``       — a read-only bibliographic server: the referential
                     constraint against it cannot be *enforced* at all, only
                     monitored — the Section 6.2 fallback.

Run:  python examples/personnel_sync.py
"""

import zlib

from repro import (
    CMRID,
    ConstraintManager,
    CopyConstraint,
    InterfaceKind,
    ReferentialConstraint,
    Scenario,
    hours,
    seconds,
)
from repro.ris.bibliodb import BiblioDatabase
from repro.ris.objectstore import ObjectStore
from repro.ris.relational import RelationalDatabase
from repro.ris.whois import WhoisDirectory

RESEARCHERS = ["chawathe", "garcia", "widom"]


def build() -> tuple[ConstraintManager, dict]:
    cm = ConstraintManager(Scenario(seed=7))

    whois = WhoisDirectory("stanford-whois")
    for name in RESEARCHERS:
        # crc32, not hash(): str hashes are salted per process.
        extension = zlib.crc32(name.encode()) % 9000 + 1000
        whois.admin_update(name, phone=f"650-723-{extension}")
    rid_whois = (
        CMRID("whois", "stanford-whois")
        .bind("whois_phone", params=("n",), field="phone")
        .offer("whois_phone", InterfaceKind.READ, bound_seconds=1.0)
    )
    cm.add_site("whois-site")
    cm.add_source("whois-site", whois, rid_whois)

    lookup = ObjectStore("cs-lookup")
    lookup.define_class("Person", {"login": "str", "email": "str"})
    for name in RESEARCHERS:
        lookup.create("Person", {"login": name, "email": f"{name}@cs"})
    rid_lookup = (
        CMRID("object", "cs-lookup")
        .bind(
            "lookup_email",
            params=("n",),
            class_name="Person",
            attribute="email",
            key_attribute="login",
        )
        .offer("lookup_email", InterfaceKind.NOTIFY, bound_seconds=2.0)
        .offer("lookup_email", InterfaceKind.READ, bound_seconds=1.0)
    )
    cm.add_site("lookup-site")
    cm.add_source("lookup-site", lookup, rid_lookup)

    sybase = RelationalDatabase("dbgroup")
    sybase.execute(
        "CREATE TABLE people (login TEXT PRIMARY KEY, phone TEXT, email TEXT)"
    )
    sybase.execute(
        "CREATE TABLE papers (paperid TEXT PRIMARY KEY, title TEXT)"
    )
    rid_sybase = (
        CMRID("relational", "dbgroup")
        .bind(
            "master_phone",
            params=("n",),
            table="people",
            key_column="login",
            value_column="phone",
        )
        .bind(
            "master_email",
            params=("n",),
            table="people",
            key_column="login",
            value_column="email",
        )
        .bind(
            "group_paper",
            params=("i",),
            table="papers",
            key_column="paperid",
            value_column="title",
        )
        .offer("master_phone", InterfaceKind.WRITE, bound_seconds=2.0)
        .offer("master_phone", InterfaceKind.NO_SPONTANEOUS_WRITE)
        .offer("master_email", InterfaceKind.WRITE, bound_seconds=2.0)
        .offer("master_email", InterfaceKind.NO_SPONTANEOUS_WRITE)
        .offer("group_paper", InterfaceKind.READ, bound_seconds=1.0)
    )
    cm.add_site("dbgroup-site")
    cm.add_source("dbgroup-site", sybase, rid_sybase)

    biblio = BiblioDatabase("folio")
    rid_biblio = (
        CMRID("bibliographic", "folio")
        .bind("bib_paper", params=("i",), field="title")
        .offer("bib_paper", InterfaceKind.READ, bound_seconds=3.0)
    )
    cm.add_site("library-site")
    cm.add_source("library-site", biblio, rid_biblio)

    sources = {
        "whois": whois,
        "lookup": lookup,
        "sybase": sybase,
        "biblio": biblio,
    }
    return cm, sources


def install_email_propagation(cm: ConstraintManager):
    """Declare the email copy constraint and install its propagation
    strategy from the suggested menu."""
    emails = cm.declare(
        CopyConstraint("lookup_email", "master_email", params=("n",))
    )
    propagation = next(
        s for s in cm.suggest(emails) if s.strategy.kind == "propagation"
    )
    return cm.install(emails, propagation)


def main() -> None:
    cm, sources = build()
    print("interface survey across the federation:")
    print(cm.interfaces().describe())

    # Copy constraint 1: whois phones -> master copy.  whois is lookup-only,
    # so the toolkit can only offer polling.
    phones = cm.declare(
        CopyConstraint("whois_phone", "master_phone", params=("n",))
    )
    phone_suggestions = cm.suggest(phones, polling_period=seconds(30))
    print(f"\nphones: {len(phone_suggestions)} applicable strategies")
    print(f"  chosen: {phone_suggestions[0].strategy.name}")
    cm.install(phones, phone_suggestions[0])

    # Copy constraint 2: lookup emails -> master copy.  The object store has
    # a change feed, so update propagation applies (with guarantee (2)).
    emails = install_email_propagation(cm)
    print(
        f"emails: installed {emails.strategy.name} "
        f"({len(emails.guarantees)} guarantees)"
    )

    # Referential constraint: papers in the bibliographic server must be in
    # the group database.  The library is read-only, so NO strategy can
    # enforce this; the toolkit offers nothing and we fall back to
    # monitoring it, as Section 6.2 prescribes.
    papers = cm.declare(
        ReferentialConstraint("bib_paper", "group_paper", grace=hours(24))
    )
    paper_suggestions = cm.suggest(papers)
    print(
        f"papers: {len(paper_suggestions)} applicable strategies "
        f"(the library is read-only -> monitor only)"
    )

    # --- spontaneous activity across the campus ---------------------------
    sim = cm.scenario.sim
    sim.at(
        seconds(10),
        lambda: cm.spontaneous_write("whois_phone", ("widom",), "650-723-9999"),
    )
    sim.at(
        seconds(25),
        lambda: cm.spontaneous_write(
            "lookup_email", ("chawathe",), "chaw@db.stanford"
        ),
    )
    sim.at(
        seconds(40),
        lambda: cm.spontaneous_write(
            "bib_paper", ("icde96-cm",), "A Toolkit for Constraint Management"
        ),
    )
    # The group database catalogues the paper a little later (spontaneously,
    # by a grad student); until then the referential constraint is violated.
    sim.at(
        seconds(300),
        lambda: sources["sybase"].execute(
            "INSERT INTO papers (paperid, title) VALUES "
            "('icde96-cm', 'A Toolkit for Constraint Management')"
        ),
    )
    cm.run(until=seconds(600))

    print("\nmaster copy after synchronization:")
    for row in sources["sybase"].query(
        "SELECT login, phone, email FROM people ORDER BY login"
    ):
        print(f"  {row}")

    print("\nissued guarantees:")
    for report in cm.check_guarantees().values():
        print(f"  {report}")

    # Monitoring the unenforceable referential constraint from the trace.
    # (The catalogue insert above bypassed the CM entirely — exactly the
    # loosely-coupled reality — so we check existence via direct reads.)
    in_biblio = sources["biblio"].exists("icde96-cm")
    in_group = bool(
        sources["sybase"].query(
            "SELECT paperid FROM papers WHERE paperid = 'icde96-cm'"
        )
    )
    print(
        f"\nreferential monitor: paper in library={in_biblio}, "
        f"in group DB={in_group} -> "
        f"{'consistent' if in_biblio <= in_group else 'VIOLATION (pending)'}"
    )


if __name__ == "__main__":
    main()


def build_for_lint():
    """CM-Lint hook: the federation with both copy constraints installed."""
    cm, __ = build()
    phones = cm.declare(
        CopyConstraint("whois_phone", "master_phone", params=("n",))
    )
    cm.install(phones, cm.suggest(phones, polling_period=seconds(30))[0])
    install_email_propagation(cm)
    return cm
