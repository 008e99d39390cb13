"""Tests for causal spans: tracer stack, binding, and tree queries."""

import pytest

from repro.core.timebase import seconds
from repro.obs.spans import SpanContext, SpanTree, Tracer


def make_chain(tracer: Tracer):
    """root(a) -> child(net) -> grandchild(b), with explicit pushes."""
    root = tracer.start("source.write", "a", seconds(1))
    tracer.push(root)
    child = tracer.start("net.send", "a", seconds(2))
    tracer.finish(child, seconds(3))
    tracer.push(child)
    grandchild = tracer.start("shell.fire", "b", seconds(3))
    tracer.finish(grandchild, seconds(4))
    tracer.pop()
    tracer.pop()
    tracer.finish(root, seconds(2))
    return root, child, grandchild


class TestTracer:
    def test_parenting_follows_activation_stack(self):
        tracer = Tracer()
        root, child, grandchild = make_chain(tracer)
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert {s.root_id for s in (root, child, grandchild)} == {root.span_id}

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        outer = tracer.start("outer", "a", 0)
        tracer.push(outer)
        implicit = tracer.start("implicit", "a", 1)
        assert implicit.parent_id == outer.span_id
        tracer.pop()
        other_root = tracer.start("other", "b", 2)
        explicit = tracer.start("child", "b", 3, parent=other_root)
        assert explicit.parent_id == other_root.span_id
        assert explicit.root_id == other_root.span_id

    def test_bind_reactivates_captured_span_later(self):
        tracer = Tracer()
        root = tracer.start("op", "a", 0)
        tracer.push(root)

        recorded = []

        def completion():
            recorded.append(tracer.current)

        bound = tracer.bind(completion)
        tracer.pop()
        assert tracer.current is None
        bound()
        assert recorded == [root]
        assert tracer.current is None

    def test_bind_without_activation_is_identity(self):
        tracer = Tracer()

        def fn():
            pass

        assert tracer.bind(fn) is fn


class TestSpanTree:
    def test_connected_tree_and_queries(self):
        tracer = Tracer()
        root, child, grandchild = make_chain(tracer)
        trees = list(tracer.trees())
        assert len(trees) == 1
        tree = trees[0]
        assert tree.root is root
        assert tree.connected
        assert len(tree) == 3
        assert tree.sites == ["a", "b"]
        assert tree.find("net.send") == [child]
        assert tree.children(root) == [child]

    def test_end_to_end_is_root_start_to_latest_finish(self):
        tracer = Tracer()
        root, __, grandchild = make_chain(tracer)
        tree = tracer.tree(root)
        assert tree.end_to_end() == grandchild.end - root.start == seconds(3)

    def test_multiple_roots_make_multiple_trees(self):
        tracer = Tracer()
        make_chain(tracer)
        make_chain(tracer)
        assert len(list(tracer.trees())) == 2

    def test_render_indents_children(self):
        tracer = Tracer()
        make_chain(tracer)
        text = next(iter(tracer.trees())).render()
        lines = text.splitlines()
        assert lines[0].startswith("source.write@a")
        assert lines[1].startswith("  net.send@a")
        assert lines[2].startswith("    shell.fire@b")

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            SpanTree([])

    def test_span_to_dict(self):
        tracer = Tracer()
        span = tracer.start("op", "a", seconds(1), ref="x")
        tracer.finish(span, seconds(2))
        record = span.to_dict()
        assert record["type"] == "span"
        assert record["start_s"] == 1.0
        assert record["end_s"] == 2.0
        assert record["attrs"] == {"ref": "x"}


class TestSpanContext:
    def test_span_context_carries_trace_and_span_ids(self):
        tracer = Tracer()
        root = tracer.start("source.write", "a", seconds(1))
        tracer.push(root)
        child = tracer.start("net.send", "a", seconds(2))
        context = child.context
        assert context.trace_id == root.span_id
        assert context.span_id == child.span_id
        assert context.root_id == context.trace_id

    def test_wire_round_trip(self):
        context = SpanContext(trace_id=7, span_id=12)
        wire = context.to_wire()
        assert wire == {"trace_id": 7, "span_id": 12}
        assert SpanContext.from_wire(wire) == context

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            "not-a-dict",
            {},
            {"trace_id": 7},
            {"trace_id": "7", "span_id": 12},
            {"trace_id": 7, "span_id": None},
        ],
    )
    def test_from_wire_rejects_malformed_payloads(self, payload):
        assert SpanContext.from_wire(payload) is None

    def test_remote_child_joins_tree_by_context(self):
        """Two tracers on either side of a 'socket': the receiver parents
        its span on the shipped context and the ids line up — the chain
        reconnects when spans are merged by id, without shared objects."""
        sender = Tracer()
        send_span = sender.start("net.send", "a", seconds(1))
        sender.finish(send_span, seconds(2))
        wire = send_span.context.to_wire()

        receiver = Tracer()
        receiver._next_id = sender._next_id  # distinct id space, as on a peer
        context = SpanContext.from_wire(wire)
        receiver.push(context)
        remote = receiver.start("shell.fire", "b", seconds(2))
        receiver.finish(remote, seconds(3))
        receiver.pop()
        assert receiver.current is None
        assert remote.parent_id == send_span.span_id
        assert remote.root_id == send_span.root_id

        tree = SpanTree([send_span, remote])
        assert tree.connected
        assert tree.sites == ["a", "b"]
        assert tree.end_to_end() == seconds(2)

    def test_context_activation_parents_like_a_span(self):
        tracer = Tracer()
        context = SpanContext(trace_id=40, span_id=41)
        tracer.push(context)
        assert tracer.current is context
        child = tracer.start("op", "b", seconds(1))
        assert child.parent_id == 41
        assert child.root_id == 40
