"""CM-Lint commutativity diagnostics (CM701–CM705).

Each code gets a positive case *and* the adjacent negative one:
configurations without the race sanitizer stay silent, and no CM7xx
finding is ever an error (interference findings are advice, not spec
violations).
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import Severity, lint_manager
from repro.cm import CMRID, ConstraintManager, Scenario
from repro.core.dsl import parse_rule
from repro.core.events import EventKind
from repro.core.interfaces import InterfaceKind
from repro.core.rules import RhsStep
from repro.core.templates import Template
from repro.core.terms import FAMILY_WILDCARD, ItemPattern, Var
from repro.ris.legacy import LegacySystem


def desk(rules, sanitize=True):
    """A hub shell fed by one legacy source, with ``rules`` installed via
    the site builder: ``(text_or_rule, rhs_site, name)`` tuples."""
    cm = ConstraintManager(Scenario(seed=0, sanitize=sanitize))

    front = LegacySystem("front-office")
    rid = CMRID("legacy", "front-office")
    for family, prefix in (
        ("journal", "j:"), ("trades", "t:"), ("quote", "q:"),
        ("fill", "f:"), ("rate", "r:"), ("audit_req", "a:"),
    ):
        rid.bind(family, params=("n",), key_prefix=prefix)
        rid.offer(family, InterfaceKind.NOTIFY, bound_seconds=1.0)
    rid.bind("position", params=("n",), key_prefix="p:")
    rid.offer("position", InterfaceKind.READ, bound_seconds=1.0)
    rid.offer("position", InterfaceKind.WRITE, bound_seconds=1.0)
    cm.site("hub").source(front, rid)

    annex_db = LegacySystem("rate-store")
    rid_annex = (
        CMRID("legacy", "rate-store")
        .bind("remote_rate", params=("n",), key_prefix="rr:")
        .offer("remote_rate", InterfaceKind.WRITE, bound_seconds=1.0)
        .offer("remote_rate", InterfaceKind.NO_SPONTANEOUS_WRITE)
    )
    cm.site("annex").source(annex_db, rid_annex)

    hub = cm.site("hub").private("BookTotal", "LastQuote")
    for text, rhs_site, name in rules:
        hub.rule(text, rhs_site, name=name)
    return cm


def codes(cm):
    return sorted(d.code for d in lint_manager(cm).diagnostics)


WRITE_CONFLICT = [
    ("N(journal(n), b) -> [0] W(BookTotal, b)", None, "post_journal"),
    ("N(trades(n), b) -> [0] W(BookTotal, b)", None, "post_trades"),
]


class TestCM701:
    def test_non_commuting_pair_warns(self):
        report = lint_manager(desk(WRITE_CONFLICT))
        (finding,) = [d for d in report.diagnostics if d.code == "CM701"]
        assert finding.severity is Severity.WARNING
        assert "post_journal" in finding.message
        assert "post_trades" in finding.message
        assert "ww overlap on BookTotal" in finding.message
        assert "overlapping footprint" in finding.hint
        assert report.ok  # advice, never an error

    def test_unsanitized_configuration_is_silent(self):
        cm = desk(WRITE_CONFLICT, sanitize=False)
        assert not [c for c in codes(cm) if c.startswith("CM7")]


class TestCM702:
    def test_wildcard_write_warns(self):
        base = parse_rule(
            "N(journal(n), b) -> [0] W(Shadow, b)", name="mirror_all"
        )
        wildcard = Template(
            EventKind.WRITE,
            ItemPattern(FAMILY_WILDCARD, (Var("n"),)),
            (Var("b"),),
        )
        rule = replace(base, steps=(RhsStep(wildcard),))
        report = lint_manager(desk([(rule, None, None)]))
        (finding,) = [d for d in report.diagnostics if d.code == "CM702"]
        assert finding.severity is Severity.WARNING
        assert finding.rule == "mirror_all"


class TestCM703:
    def test_ast_fallback_summary_is_an_info(self):
        # An N-emission RHS cannot compile; the summary is the AST
        # fallback (sound but wider), worth a note, not a warning.
        report = lint_manager(desk([
            ("N(audit_req(n), b) -> [0] N(audit_echo(n), b)", None, "echo"),
        ]))
        (finding,) = [d for d in report.diagnostics if d.code == "CM703"]
        assert finding.severity is Severity.INFO
        assert finding.rule == "echo"

    def test_compiled_rules_do_not_note(self):
        cm = desk([
            ("N(quote(n), b) -> [0] W(LastQuote(n), b)", None, "mark"),
        ])
        assert "CM703" not in codes(cm)


class TestCM704:
    def test_cross_site_send_is_an_info(self):
        report = lint_manager(desk([
            ("N(rate(n), b) -> [0] WR(remote_rate(n), b)", "annex", "push"),
        ]))
        (finding,) = [d for d in report.diagnostics if d.code == "CM704"]
        assert finding.severity is Severity.INFO
        assert finding.rule == "push"
        assert "barrier" in finding.message


class TestCM705:
    ENUMERATING = [
        ("N(quote(n), b) -> [0] RR(position(x))", None, "scan"),
        ("N(fill(n), b) -> [0] WR(position(n), b)", None, "record"),
    ]

    def test_enumerating_overlap_warns(self):
        report = lint_manager(desk(self.ENUMERATING))
        (finding,) = [d for d in report.diagnostics if d.code == "CM705"]
        assert finding.severity is Severity.WARNING
        assert "scan" in finding.message and "record" in finding.message
        assert "overlapping footprint" in finding.hint

    def test_enumerating_pair_is_not_also_cm701(self):
        # One finding per pair: the more specific code wins.
        assert "CM701" not in codes(desk(self.ENUMERATING))


class TestOverall:
    def test_commuting_desk_is_clean(self):
        cm = desk([
            ("N(quote(n), b) -> [0] W(LastQuote(n), b)", None, "mark"),
            ("N(fill(n), b) -> [0] WR(position(n), b)", None, "record"),
        ])
        assert not [c for c in codes(cm) if c.startswith("CM7")]

    def test_example_desk_carries_every_code(self):
        import examples.parallel_phases as example

        cm = example.build_for_lint()
        found = set(codes(cm))
        assert {"CM701", "CM702", "CM703", "CM704", "CM705"} <= found
