"""Tests for template unification and static trigger-graph construction."""

from analysis_helpers import salary_cm

from repro.analysis import build_trigger_graph, unify_templates
from repro.core.events import EventKind
from repro.core.strategies import template
from repro.core.terms import FAMILY_WILDCARD, ItemPattern, Var


def item(family: str, *params: str) -> ItemPattern:
    return ItemPattern(family, tuple(Var(p) for p in params))


class TestUnifyTemplates:
    def test_same_kind_family_and_arity_unify(self):
        a = template(EventKind.WRITE_REQUEST, item("salary2", "n"), "b")
        b = template(EventKind.WRITE_REQUEST, item("salary2", "m"), "v")
        assert unify_templates(a, b)

    def test_kind_mismatch_rejected(self):
        a = template(EventKind.WRITE_REQUEST, item("salary2", "n"), "b")
        b = template(EventKind.READ_REQUEST, item("salary2", "n"))
        assert not unify_templates(a, b)

    def test_family_mismatch_rejected(self):
        a = template(EventKind.WRITE, item("x"), "b")
        b = template(EventKind.WRITE, item("y"), "b")
        assert not unify_templates(a, b)

    def test_wildcard_family_unifies_with_anything(self):
        a = template(EventKind.WRITE, item("x"), "b")
        b = template(EventKind.WRITE, item(FAMILY_WILDCARD), "v")
        assert unify_templates(a, b)

    def test_constant_values_must_agree(self):
        a = template(EventKind.WRITE, item("x"), 1)
        b = template(EventKind.WRITE, item("x"), 2)
        assert not unify_templates(a, b)
        c = template(EventKind.WRITE, item("x"), 1)
        assert unify_templates(a, c)

    def test_variable_unifies_with_constant(self):
        a = template(EventKind.WRITE, item("x"), "b")
        b = template(EventKind.WRITE, item("x"), 42)
        assert unify_templates(a, b)


class TestTriggerGraph:
    def test_propagation_graph_shape(self):
        cm = salary_cm("propagation")
        graph = build_trigger_graph(cm)
        cm.stop()
        names = {node.name for node in graph.nodes}
        # The strategy rule plus salary1's notify/read and salary2's
        # write/read interface rules are all nodes.
        assert any("iface_notify_salary1" in name for name in names)
        assert any("iface_write_salary2" in name for name in names)
        strategy_nodes = list(graph.strategy_nodes())
        assert len(strategy_nodes) == 1

    def test_notify_interface_feeds_strategy_rule(self):
        cm = salary_cm("propagation")
        graph = build_trigger_graph(cm)
        cm.stop()
        (strategy,) = graph.strategy_nodes()
        sources = {
            graph.nodes[edge.src].name
            for edge in graph.in_edges(strategy.index)
        }
        assert any("iface_notify_salary1" in name for name in sources)

    def test_strategy_rule_feeds_write_interface(self):
        cm = salary_cm("propagation")
        graph = build_trigger_graph(cm)
        cm.stop()
        (strategy,) = graph.strategy_nodes()
        targets = {
            graph.nodes[edge.dst].name
            for edge in graph.out_edges(strategy.index)
        }
        assert any("iface_write_salary2" in name for name in targets)

    def test_cached_propagation_edges_are_guarded(self):
        cm = salary_cm("cached-propagation")
        graph = build_trigger_graph(cm)
        cm.stop()
        guarded = [edge for edge in graph.edges if edge.guarded]
        assert guarded  # the cache(n) != b conjunct is a guard

    def test_propagation_edges_are_unguarded(self):
        cm = salary_cm("propagation")
        graph = build_trigger_graph(cm)
        cm.stop()
        assert not any(edge.guarded for edge in graph.edges)

    def test_graph_len_counts_nodes(self):
        cm = salary_cm("propagation")
        graph = build_trigger_graph(cm)
        cm.stop()
        assert len(graph) == len(graph.nodes)
