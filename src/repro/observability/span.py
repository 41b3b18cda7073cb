"""Span and span-event records — the tracing vocabulary.

A *span* is one timed, named region of a run (a superstep, an operator
call, a scheduler task, a checkpoint save, ...) carrying structured
attributes (frontier size, edges expanded, worker id).  Spans
nest: each records the id of the span that was open on the same thread
when it started, which is how a Chrome trace reconstructs the stack per
worker track.

Span *events* are zero-duration points attached to a span — a fault
injected mid-superstep, a retry attempt, a steal — the marks Perfetto
renders as instants on the span's track.

Span categories follow a ``layer:detail`` naming scheme so traces map
straight onto the paper's essential components:

===================== =============================================
span name              essential component
===================== =============================================
``superstep``          4 — iterative loop structure
``operator:advance``   3 — operators (traversal)
``operator:filter``    3 — operators (contraction)
``operator:reduce``    5 — convergence conditions
``scheduler:task``     4 — loop structure, asynchronous timing
``pool:task``          3/4 — BSP parallel region
``pregel:send``        2 — frontier communication (messages)
``checkpoint:save``    resilience riding component 4
===================== =============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(slots=True)
class SpanEvent:
    """A zero-duration mark inside a span (fault, retry, steal, ...)."""

    name: str
    timestamp: float  # seconds on the tracer's perf_counter clock
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form used by the exporters."""
        return {
            "name": self.name,
            "ts": self.timestamp,
            "attrs": dict(self.attrs),
        }


@dataclass(slots=True)
class Span:
    """One timed region of a run.

    ``start``/``end`` are seconds on the owning tracer's monotonic clock
    (``time.perf_counter`` offsets from the tracer epoch, so spans from
    different threads share a timeline).  ``end`` is ``None`` while the
    span is still open.

    Slotted, with the ``events`` list allocated lazily: a run opens two
    spans per superstep, so each span is three allocations (span, attrs
    dict, context handle) instead of five — measurable at superstep
    granularity.
    """

    span_id: int
    name: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    thread_id: int = 0
    thread_name: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: ``None`` until the first event lands (most spans have none).
    events: Optional[List[SpanEvent]] = None

    def set(self, key: str, value: Any) -> "Span":
        """Attach (or overwrite) one attribute; chainable.

        Usable while the span is open — the idiom for attributes only
        known at exit (edges expanded, output frontier size).
        """
        self.attrs[key] = value
        return self

    def add_event(self, event: SpanEvent) -> None:
        """Append a zero-duration mark to this span."""
        if self.events is None:
            self.events = []
        self.events.append(event)

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form used by the JSONL exporter."""
        return {
            "type": "span",
            "id": self.span_id,
            "name": self.name,
            "ts": self.start,
            "dur": self.duration,
            "parent": self.parent_id,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "attrs": dict(self.attrs),
            "events": [e.to_dict() for e in self.events] if self.events else [],
        }
