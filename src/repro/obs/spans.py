"""Causal firing spans: one trace tree per propagation chain.

A *span* covers one hop of a causal chain in virtual time: a shell
processing an event, a message crossing the network, a translator
performing a native write.  Spans form trees — each span records its
parent and the tree's root — so a cross-site propagation chain

    Ws at site A  →  N processed by A's shell  →  FireMessage over the
    network  →  RHS executed at B's shell  →  WR/W at B's translator

is queryable as one connected tree whose total extent is exactly the
end-to-end propagation latency the metric guarantees bound with ``κ``.

Causality crosses scheduler callbacks, so the tracer keeps an explicit
*activation stack*: synchronous work pushes its span, and asynchronous
hand-offs (network delivery, translator service-time completions) capture
the current span at schedule time and re-activate it in the callback
(:meth:`Tracer.bind`).  Components consult :attr:`Tracer.enabled` before
touching the tracer at all, so an un-traced run pays one attribute load
and branch per hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Union

from repro.core.timebase import Ticks, to_seconds


@dataclass(frozen=True)
class SpanContext:
    """The wire-portable identity of a span: trace id + span id.

    A context is what crosses a process (or socket) boundary: it carries
    just enough to parent a remote child span — the tree it belongs to
    (``trace_id``, the root span's id) and the span to hang the child on
    (``span_id``).  ``cm.deliver`` frames ship one in their ``trace``
    field, and the receiving endpoint resumes it so the cross-shell chain
    reconnects into a single tree without sharing any Python objects.
    """

    trace_id: int
    span_id: int

    @property
    def root_id(self) -> int:
        """Alias: a context's trace id is its tree's root span id."""
        return self.trace_id

    def to_wire(self) -> dict:
        """The JSON-safe form carried in a ``cm.deliver`` frame."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, data: Any) -> Optional["SpanContext"]:
        """Parse a frame's ``trace`` field; ``None`` for absent/malformed."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not isinstance(trace_id, int) or not isinstance(span_id, int):
            return None
        return cls(trace_id=trace_id, span_id=span_id)


@dataclass
class Span:
    """One hop of a causal chain, in virtual time."""

    span_id: int
    parent_id: Optional[int]
    root_id: int
    name: str
    site: str
    start: Ticks
    end: Optional[Ticks] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> Ticks:
        """Span extent in ticks (0 while unfinished)."""
        return (self.end - self.start) if self.end is not None else 0

    @property
    def context(self) -> SpanContext:
        """This span's wire-portable identity."""
        return SpanContext(trace_id=self.root_id, span_id=self.span_id)

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "root_id": self.root_id,
            "name": self.name,
            "site": self.site,
            "start": self.start,
            "end": self.end,
            "start_s": to_seconds(self.start),
            "end_s": to_seconds(self.end) if self.end is not None else None,
            "attrs": self.attrs,
        }

    def __str__(self) -> str:
        return (
            f"{self.name}@{self.site} [{self.start}..{self.end}] "
            f"#{self.span_id}<-{self.parent_id}"
        )


class SpanTree:
    """One connected causal tree (all spans sharing a root)."""

    def __init__(self, spans: list[Span]) -> None:
        if not spans:
            raise ValueError("a span tree needs at least one span")
        self.spans = sorted(spans, key=lambda s: (s.start, s.span_id))
        self.root = min(self.spans, key=lambda s: s.span_id)
        self._children: dict[Optional[int], list[Span]] = {}
        for span in self.spans:
            self._children.setdefault(span.parent_id, []).append(span)

    def children(self, span: Span) -> list[Span]:
        return self._children.get(span.span_id, [])

    @property
    def connected(self) -> bool:
        """Every non-root span's parent is in the tree."""
        ids = {s.span_id for s in self.spans}
        return all(
            s.parent_id in ids for s in self.spans if s is not self.root
        )

    @property
    def sites(self) -> list[str]:
        """Sites visited, in span start order."""
        seen: list[str] = []
        for span in self.spans:
            if not seen or seen[-1] != span.site:
                seen.append(span.site)
        return seen

    def end_to_end(self) -> Ticks:
        """Root start to the latest finish anywhere in the tree — the
        chain's total propagation latency."""
        last = max(
            (s.end for s in self.spans if s.end is not None),
            default=self.root.start,
        )
        return last - self.root.start

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, in start order."""
        return [s for s in self.spans if s.name == name]

    def render(self) -> str:
        """Indented text rendering of the tree."""
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            extent = (
                f"{to_seconds(span.start):.3f}s"
                + (
                    f" +{to_seconds(span.duration):.3f}s"
                    if span.duration
                    else ""
                )
            )
            attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
            lines.append(
                f"{'  ' * depth}{span.name}@{span.site} {extent}"
                + (f"  {attrs}" if attrs else "")
            )
            for child in self.children(span):
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)


class Tracer:
    """Span recorder with an explicit activation stack.

    Disabled by default: every instrumentation hook checks
    :attr:`enabled` first, so tracing costs nothing until :meth:`enable`
    is called.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[Union[Span, SpanContext]] = []
        self._next_id = 1

    def enable(self) -> None:
        self.enabled = True

    # -- recording -------------------------------------------------------------

    @property
    def current(self) -> Optional[Union[Span, SpanContext]]:
        """The innermost activation (a local :class:`Span`, or a
        :class:`SpanContext` resumed off the wire); ``None`` outside any
        chain."""
        return self._stack[-1] if self._stack else None

    def start(
        self,
        name: str,
        site: str,
        start: Ticks,
        parent: Optional[Union[Span, SpanContext]] = None,
        **attrs,
    ) -> Span:
        """Open a span parented on ``parent`` (or the current activation).

        ``parent`` may be a remote :class:`SpanContext` — the new span
        then joins the remote tree by id, reconnecting a chain that
        crossed a socket.
        """
        if parent is None:
            parent = self.current
        span_id = self._next_id
        self._next_id += 1
        span = Span(
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            root_id=parent.root_id if parent is not None else span_id,
            name=name,
            site=site,
            start=start,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    def finish(self, span: Span, end: Ticks) -> None:
        span.end = end

    def push(self, span: Union[Span, SpanContext]) -> None:
        self._stack.append(span)

    def pop(self) -> None:
        self._stack.pop()

    def bind(self, fn: Callable[[], None]) -> Callable[[], None]:
        """Capture the current activation for a scheduled callback.

        The returned callable re-activates the captured span around ``fn``,
        which is how causality survives a trip through the discrete-event
        scheduler (translator service completions, retry backoffs).
        """
        captured = self.current
        if captured is None:
            return fn

        def bound() -> None:
            self._stack.append(captured)
            try:
                fn()
            finally:
                self._stack.pop()

        return bound

    # -- queries ---------------------------------------------------------------

    def roots(self) -> list[Span]:
        """All tree roots, in creation order."""
        return [s for s in self.spans if s.span_id == s.root_id]

    def tree(self, root: Span | int) -> SpanTree:
        """The full causal tree containing ``root`` (a span or a root id)."""
        root_id = root if isinstance(root, int) else root.root_id
        members = [s for s in self.spans if s.root_id == root_id]
        return SpanTree(members)

    def trees(self) -> Iterator[SpanTree]:
        """Every causal tree, in root-creation order."""
        for root in self.roots():
            yield self.tree(root)

    def __len__(self) -> int:
        return len(self.spans)
