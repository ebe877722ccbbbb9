"""A dependency-free span tracer over the simulated clock.

A :class:`Span` is one named interval of simulated time attributed to a
*category* (queueing / network / disk / compute) on one *node*, linked to
a parent span.  The spans of one client query form a tree rooted at the
``query`` span; :mod:`repro.obs.critical_path` walks that tree to explain
where the latency went and :mod:`repro.obs.export` serializes it for a
trace viewer.

Design constraints:

* **Near-zero overhead when disabled** — every instrumentation site does
  ``span = tracer.begin(...)`` / ``tracer.end(span)``; with tracing off,
  ``begin`` is a single attribute check returning ``None`` and ``end`` of
  ``None`` is a no-op.  No timestamps are read, nothing is allocated.
* **Deterministic** — span ids are a plain counter and timestamps come
  from the simulator, so a fixed seed yields an identical span tree.
* **Passive** — the tracer never creates simulation events; it cannot
  perturb event ordering or results.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator

#: The categories :mod:`repro.obs.critical_path` attributes time to.
#: Instrumentation sites should pick one of these for every span.
SPAN_CATEGORIES = ("queueing", "network", "disk", "compute")


class Span:
    """One traced interval of simulated time.

    ``end`` is ``None`` while the span is open.  Children are recorded on
    the parent at creation so per-query trees need no re-indexing.
    """

    __slots__ = (
        "span_id",
        "name",
        "category",
        "node",
        "query_id",
        "start",
        "end",
        "parent",
        "children",
        "attrs",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        start: float,
        end: float | None,
        parent: "Span | None",
        node: str | None,
        query_id: int | None,
        attrs: dict[str, Any] | None,
    ):
        self.span_id = span_id
        self.name = name
        self.category = category
        self.start = start
        self.end = end
        self.parent = parent
        self.node = node
        self.query_id = query_id
        self.children: list[Span] = []
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def key(self) -> tuple:
        """Structural identity, for determinism comparisons across runs."""
        return (
            self.name,
            self.category,
            self.node,
            self.query_id,
            self.start,
            self.end,
            None if self.parent is None else self.parent.span_id,
        )

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first in creation order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        state = "..." if self.end is None else f"{self.duration * 1e3:.3f}ms"
        return (
            f"Span({self.name!r}, cat={self.category}, node={self.node}, "
            f"q={self.query_id}, t={self.start:.6f}, {state})"
        )


#: Hard cap on retained spans; beyond it new spans are dropped and the
#: tracer is marked truncated.
MAX_SPANS = 2_000_000


class Tracer:
    """Collects spans against one simulator's clock."""

    def __init__(self, sim, enabled: bool = False, max_spans: int = MAX_SPANS):
        self.sim = sim
        self.enabled = enabled
        self.max_spans = max_spans
        self.spans: list[Span] = []
        #: True once ``max_spans`` was hit and spans were dropped.
        self.truncated = False
        self._ids = itertools.count()

    # -- recording ---------------------------------------------------------

    def begin(
        self,
        name: str,
        category: str,
        *,
        parent: Span | None = None,
        node: str | None = None,
        query_id: int | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> Span | None:
        """Open a span at the current simulated time; close with :meth:`end`."""
        if not self.enabled:
            return None
        return self._make(name, category, self.sim.now, None, parent, node, query_id, attrs)

    def end(self, span: Span | None, attrs: dict[str, Any] | None = None) -> None:
        """Close an open span at the current simulated time (``None`` ok)."""
        if span is None or span.end is not None:
            return
        span.end = self.sim.now
        if attrs:
            span.attrs = {**(span.attrs or {}), **attrs}

    def record(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        *,
        parent: Span | None = None,
        node: str | None = None,
        query_id: int | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> Span | None:
        """Record a span whose interval is already known.

        Used both retrospectively (queue waits measured at dequeue) and
        prospectively (a deterministic cost about to be paid via a
        timeout, e.g. a disk read or a CPU charge).
        """
        if not self.enabled:
            return None
        return self._make(name, category, start, end, parent, node, query_id, attrs)

    def _make(
        self,
        name: str,
        category: str,
        start: float,
        end: float | None,
        parent: Span | None,
        node: str | None,
        query_id: int | None,
        attrs: dict[str, Any] | None,
    ) -> Span | None:
        if len(self.spans) >= self.max_spans:
            self.truncated = True
            return None
        if parent is not None:
            if query_id is None:
                query_id = parent.query_id
            if node is None:
                node = parent.node
        span = Span(
            next(self._ids), name, category, start, end, parent, node, query_id, attrs
        )
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        return span

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def roots(self) -> list[Span]:
        """Spans with no parent (one per traced query, plus background work)."""
        return [span for span in self.spans if span.parent is None]

    def query_roots(self, query_id: int | None = None) -> list[Span]:
        """Root spans of traced queries, optionally for one query id."""
        return [
            span
            for span in self.spans
            if span.parent is None
            and span.query_id is not None
            and (query_id is None or span.query_id == query_id)
        ]

    def structure(self) -> list[tuple]:
        """The whole trace as structural keys (determinism comparisons)."""
        return [span.key() for span in self.spans]

    def clear(self) -> None:
        """Drop all recorded spans (id counter keeps advancing)."""
        self.spans.clear()
        self.truncated = False
