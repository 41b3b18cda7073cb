"""Trace analysis: from raw spans to an answer for "why was this run slow?".

PR 2 produced telemetry (spans, metrics, exporters); this module turns
it into *attribution*.  Given the spans of one run — from a live
:class:`~repro.observability.probe.Probe`, a JSONL event log, or a
Chrome trace file — the engine reconstructs the span tree and derives:

* **per-layer time attribution** — every span name maps onto one of the
  framework's layers (``graph`` / ``frontier`` / ``operator`` / ``loop``
  / ``comm`` / ``resilience``), and each span contributes its *self
  time* (duration minus same-thread children), so layer totals sum to
  exactly the traced time with no double counting.  Driver-thread time
  *between* top-level spans is the enactor's own bookkeeping
  (stats collection, convergence checks) and is attributed to ``loop``,
  tracked separately as :attr:`AnalysisReport.untraced_seconds` so the
  convention stays visible.  A ``par_proc`` round's workers overlap, so
  its longest ``proc:task`` is booked to ``operator`` and the rest of
  the ``proc:round`` to ``comm``;
* the **critical path** — for each driver-thread top-level span, the
  chain formed by repeatedly descending into the heaviest child; the
  aggregate names the dominant call chain the way Gunrock's
  per-iteration runtime breakdowns do;
* **worker load imbalance** — per-worker busy time from
  ``scheduler:task`` / ``pool:task`` / ``proc:task`` spans (the last
  stitched back from ``par_proc`` worker processes), and the classic
  imbalance factor ``t_max / t_mean`` (1.0 = perfectly balanced);
* the **frontier timeline** — one row per superstep with frontier
  size, density, edges expanded, and the direction / fused-kernel /
  representation decisions PR 3's adaptive dispatch recorded on
  ``operator:advance`` spans;
* a one-paragraph **diagnosis** naming the dominant bottleneck.

The engine is pure post-processing: it never touches the probe hot path,
so the <2% disabled-overhead bound is unaffected.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Span-name prefix (the part before ``:``, or the whole name) → layer.
#: Unlisted prefixes fall into ``other`` so foreign traces still sum.
LAYER_OF_PREFIX: Dict[str, str] = {
    "graph": "graph",
    "frontier": "frontier",
    "operator": "operator",
    # linalg kernels (spmv/spmspv and the sum-aggregate) are operators —
    # same attribution slot as advance/filter.
    "linalg": "operator",
    "superstep": "loop",
    "async": "loop",
    "scheduler": "loop",
    "pool": "loop",
    "pregel": "comm",
    "proc": "comm",
    "checkpoint": "resilience",
    "retry": "resilience",
    "fault": "resilience",
    "service": "service",
}

#: Whole span names booked to a different layer than their prefix.
LAYER_OF_NAME: Dict[str, str] = {
    # A worker's kernel interval (see analyze_spans).
    "proc:task": "operator",
    # The dynamic write path maintains graph structure (overlay,
    # merged snapshot); its repairs are operator work on that graph.
    "dynamic:mutate": "graph",
    "dynamic:snapshot": "graph",
    "dynamic:compact": "graph",
    "dynamic:repair": "operator",
}

#: The layers the report always enumerates (stable ordering for output).
LAYERS = ("graph", "frontier", "operator", "loop", "comm", "resilience",
          "service", "other")

def layer_of(name: str) -> str:
    """The framework layer a span name belongs to."""
    if name in LAYER_OF_NAME:
        return LAYER_OF_NAME[name]
    return LAYER_OF_PREFIX.get(name.split(":", 1)[0], "other")


# -- normalized span records -----------------------------------------------------------


@dataclass
class SpanNode:
    """One span, normalized from any telemetry source, with tree links."""

    span_id: int
    name: str
    start: float
    duration: float
    parent_id: Optional[int]
    thread_id: int
    thread_name: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def self_time(self) -> float:
        """Duration not covered by children (clamped at zero)."""
        covered = sum(c.duration for c in self.children)
        return max(0.0, self.duration - covered)


def nodes_from_probe(probe) -> List[SpanNode]:
    """Normalize a live probe's completed spans."""
    if not getattr(probe, "trace", False):
        return []
    out = []
    for s in probe.tracer.spans():
        out.append(
            SpanNode(
                span_id=s.span_id,
                name=s.name,
                start=s.start,
                duration=s.duration,
                parent_id=s.parent_id,
                thread_id=s.thread_id,
                thread_name=s.thread_name,
                attrs=dict(s.attrs),
                events=[e.to_dict() for e in s.events] if s.events else [],
            )
        )
    return out


def nodes_from_events_jsonl(lines: Iterable[str]) -> List[SpanNode]:
    """Normalize the span records of a JSONL event log."""
    out = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("type") != "span":
            continue
        out.append(
            SpanNode(
                span_id=int(record["id"]),
                name=record["name"],
                start=float(record["ts"]),
                duration=float(record["dur"]),
                parent_id=record.get("parent"),
                thread_id=int(record.get("thread_id", 0)),
                thread_name=record.get("thread_name", ""),
                attrs=dict(record.get("attrs", {})),
                events=list(record.get("events", [])),
            )
        )
    return out


def nodes_from_span_dicts(records: Iterable[Dict[str, Any]]) -> List[SpanNode]:
    """Normalize ``Span.to_dict``-shaped records (ledger-embedded traces,
    incident files) — the same field names the JSONL event log uses,
    minus the requirement that they arrive as serialized lines."""
    out = []
    for record in records:
        if not isinstance(record, dict) or "id" not in record:
            continue
        out.append(
            SpanNode(
                span_id=int(record["id"]),
                name=record.get("name", ""),
                start=float(record.get("ts", 0.0)),
                duration=float(record.get("dur") or 0.0),
                parent_id=record.get("parent"),
                thread_id=int(record.get("thread_id", 0)),
                thread_name=record.get("thread_name", ""),
                attrs=dict(record.get("attrs", {})),
                events=list(record.get("events") or []),
            )
        )
    return out


def metrics_from_events_jsonl(lines: Iterable[str]) -> Dict[str, Any]:
    """The metrics snapshot line of a JSONL event log (empty if absent)."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("type") == "metrics":
            return dict(record.get("values", {}))
    return {}


def nodes_from_chrome_trace(obj: Dict[str, Any]) -> List[SpanNode]:
    """Normalize a Chrome trace object, rebuilding parents by containment.

    The Trace Event Format has no parent ids; within each track the
    complete (``"X"``) events nest by time containment, so a per-tid
    stack sweep recovers the tree exactly for traces our exporter wrote.
    Instants (``"i"``) rejoin the innermost open span their ``span`` arg
    names, as span events.
    """
    kept = [
        ev
        for ev in obj.get("traceEvents", [])
        if ev.get("ph") in ("X", "i")
    ]
    # Parent spans share their child's start timestamp when the child
    # opened immediately; sorting longer-first at equal ts keeps the
    # parent below the child on the stack.  Instants sort after the
    # spans opening at their timestamp.
    kept.sort(
        key=lambda ev: (ev["ts"], ev["ph"] == "i", -ev.get("dur", 0.0))
    )
    nodes: List[SpanNode] = []
    stacks: Dict[int, List[SpanNode]] = defaultdict(list)
    eps = 1e-9
    for ev in kept:
        start = float(ev["ts"]) / 1e6
        tid = int(ev.get("tid", 0))
        stack = stacks[tid]
        while stack and stack[-1].end <= start + eps:
            stack.pop()
        args = dict(ev.get("args", {}))
        if ev["ph"] == "i":
            owner = args.pop("span", None)
            args.pop("span_id", None)
            for node in reversed(stack):
                if node.name == owner:
                    node.events.append(
                        {"name": ev.get("name", ""), "ts": start, "attrs": args}
                    )
                    break
            continue
        node = SpanNode(
            span_id=len(nodes),
            name=ev.get("name", ""),
            start=start,
            duration=float(ev.get("dur", 0.0)) / 1e6,
            parent_id=stack[-1].span_id if stack else None,
            thread_id=tid,
            thread_name=str(tid),
            attrs=args,
        )
        stack.append(node)
        nodes.append(node)
    return nodes


def load_trace_file(path: str) -> tuple:
    """Load ``(nodes, metrics)`` from a trace file.

    ``*.jsonl`` is read as an event log (spans + metrics line); anything
    else as a Chrome trace (no metrics snapshot).
    """
    with open(path, "r", encoding="utf-8") as fh:
        if path.endswith(".jsonl"):
            lines = fh.readlines()
            return nodes_from_events_jsonl(lines), metrics_from_events_jsonl(
                lines
            )
        return nodes_from_chrome_trace(json.load(fh)), {}


# -- tree ------------------------------------------------------------------------------


def build_tree(nodes: Sequence[SpanNode]) -> List[SpanNode]:
    """Link children (in start order) and return root spans in start order.

    Children reference parents by id; ids missing from the input (e.g.
    a parent dropped at the buffer cap) orphan the child into a root.
    """
    by_id = {n.span_id: n for n in nodes}
    for n in nodes:
        n.children = []
    roots: List[SpanNode] = []
    for n in nodes:
        parent = by_id.get(n.parent_id) if n.parent_id is not None else None
        if parent is not None and parent is not n:
            parent.children.append(n)
        else:
            roots.append(n)
    for n in nodes:
        n.children.sort(key=lambda c: c.start)
    roots.sort(key=lambda r: r.start)
    return roots


# -- report ----------------------------------------------------------------------------


@dataclass
class WorkerLoad:
    """Busy time and task count of one worker."""

    worker: Any
    tasks: int
    busy_seconds: float
    steals: int = 0


@dataclass
class CriticalPathEntry:
    """Aggregated contribution of one span name along the critical path."""

    name: str
    count: int
    seconds: float
    share: float  # of wall time


@dataclass
class SuperstepRow:
    """One frontier-timeline row (a superstep)."""

    index: int
    iteration: Any
    seconds: float
    frontier_size: Optional[int] = None
    output_size: Optional[int] = None
    edges_expanded: Optional[int] = None
    density: Optional[float] = None
    direction: Optional[str] = None
    fused: Optional[bool] = None
    representation: Optional[str] = None
    #: Near/far split threshold and width after the step
    #: (``frontier:split``).
    threshold: Optional[float] = None
    width: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form; ``None`` fields are omitted."""
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass
class AnalysisReport:
    """Everything the engine derived from one run's spans."""

    wall_seconds: float
    layers: Dict[str, float]
    untraced_seconds: float
    critical_path: List[CriticalPathEntry]
    critical_path_seconds: float
    workers: List[WorkerLoad]
    imbalance_factor: float
    supersteps: List[SuperstepRow]
    direction_flips: int
    span_count: int
    n_vertices: Optional[int] = None

    # -- derived -----------------------------------------------------------------------

    @property
    def attributed_seconds(self) -> float:
        return sum(self.layers.values())

    @property
    def coverage(self) -> float:
        """Attributed share of wall time (1.0 when fully covered)."""
        if self.wall_seconds <= 0:
            return 1.0
        return min(1.0, self.attributed_seconds / self.wall_seconds)

    @property
    def share_denominator(self) -> float:
        """What layer shares divide by.

        Wall time for serial traces; for parallel traces the attributed
        total exceeds wall (worker threads burn CPU-seconds
        concurrently), so the larger of the two keeps shares <= 100%
        and summing to one.
        """
        return max(self.wall_seconds, self.attributed_seconds)

    def bottleneck_layer(self) -> str:
        """The layer with the largest attributed time."""
        if not self.layers:
            return "loop"
        return max(self.layers.items(), key=lambda kv: kv[1])[0]

    def diagnosis(self) -> str:
        """A short human summary naming the dominant bottleneck."""
        if self.span_count == 0 or self.wall_seconds <= 0:
            return "no spans recorded; nothing to diagnose"
        wall = self.wall_seconds
        denom = self.share_denominator
        layer = self.bottleneck_layer()
        share = self.layers.get(layer, 0.0) / denom if denom else 0.0
        parts = [f"dominant layer: {layer} ({share:.1%} of attributed time)"]
        top = self._heaviest_name_in_layer(layer)
        if top is not None:
            name, seconds = top
            parts.append(f"led by {name} ({seconds / denom:.1%})")
        if len(self.workers) >= 2:
            if self.imbalance_factor > 1.25:
                worst = max(self.workers, key=lambda w: w.busy_seconds)
                parts.append(
                    f"load imbalance {self.imbalance_factor:.2f}x "
                    f"(worker {worst.worker} busiest)"
                )
            else:
                parts.append(
                    f"load balanced ({self.imbalance_factor:.2f}x across "
                    f"{len(self.workers)} workers)"
                )
        if self.supersteps:
            peak = max(
                self.supersteps,
                key=lambda r: r.frontier_size or 0,
            )
            frontier = f"frontier peaked at {peak.frontier_size}"
            if peak.density is not None:
                frontier += f" ({peak.density:.1%} dense)"
            frontier += f" in superstep {peak.iteration}"
            parts.append(frontier)
        if self.direction_flips:
            parts.append(f"{self.direction_flips} direction flip(s)")
        if self.untraced_seconds > 0.25 * wall:
            parts.append(
                f"note: {self.untraced_seconds / wall:.1%} of wall time is "
                f"enactor bookkeeping between spans (attributed to loop)"
            )
        return "; ".join(parts)

    def _heaviest_name_in_layer(self, layer: str):
        best = None
        for name, seconds in self._by_name.items():
            if layer_of(name) != layer:
                continue
            if best is None or seconds > best[1]:
                best = (name, seconds)
        return best

    # Populated by analyze_spans (per-name self time); not part of the
    # dataclass signature to keep to_dict stable.
    _by_name: Dict[str, float] = field(default_factory=dict, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (what the ledger stores)."""
        return {
            "wall_seconds": self.wall_seconds,
            "layers": {k: v for k, v in self.layers.items()},
            "untraced_seconds": self.untraced_seconds,
            "coverage": self.coverage,
            "bottleneck_layer": self.bottleneck_layer(),
            "critical_path": [
                {
                    "name": e.name,
                    "count": e.count,
                    "seconds": e.seconds,
                    "share": e.share,
                }
                for e in self.critical_path
            ],
            "critical_path_seconds": self.critical_path_seconds,
            "workers": [
                {
                    "worker": w.worker,
                    "tasks": w.tasks,
                    "busy_seconds": w.busy_seconds,
                    "steals": w.steals,
                }
                for w in self.workers
            ],
            "imbalance_factor": self.imbalance_factor,
            "supersteps": [r.to_dict() for r in self.supersteps],
            "direction_flips": self.direction_flips,
            "span_count": self.span_count,
            "diagnosis": self.diagnosis(),
        }

    # -- rendering ---------------------------------------------------------------------

    def render(self, *, max_timeline_rows: int = 24) -> str:
        """The ``repro explain`` text: attribution, critical path,
        workers, frontier timeline, diagnosis."""
        out: List[str] = []
        wall = self.wall_seconds
        out.append(
            f"wall time {wall * 1e3:.3f} ms over {self.span_count} spans "
            f"(attribution covers {self.coverage:.1%})"
        )
        out.append("")
        denom = self.share_denominator
        out.append("per-layer attribution")
        out.append(f"  {'layer':<12} {'time':>12} {'share':>8}")
        for layer in LAYERS:
            seconds = self.layers.get(layer, 0.0)
            if seconds == 0.0 and layer not in ("loop", "operator"):
                continue
            share = seconds / denom if denom > 0 else 0.0
            out.append(f"  {layer:<12} {seconds * 1e3:>9.3f} ms {share:>7.1%}")
        if self.attributed_seconds > wall * 1.001:
            out.append(
                f"  (parallel run: {self.attributed_seconds * 1e3:.3f} ms of "
                f"CPU time attributed across threads, shares divide by it)"
            )
        if self.untraced_seconds > 0:
            out.append(
                f"  (loop includes {self.untraced_seconds * 1e3:.3f} ms of "
                f"untraced enactor bookkeeping)"
            )
        out.append("")
        out.append(
            f"critical path ({self.critical_path_seconds * 1e3:.3f} ms, "
            f"{(self.critical_path_seconds / wall if wall else 0):.1%} of wall)"
        )
        for entry in self.critical_path:
            out.append(
                f"  {entry.name:<28} x{entry.count:<6} "
                f"{entry.seconds * 1e3:>9.3f} ms {entry.share:>7.1%}"
            )
        out.append("")
        if self.workers:
            out.append(
                f"workers (imbalance factor {self.imbalance_factor:.2f}x)"
            )
            out.append(
                f"  {'worker':<8} {'tasks':>7} {'busy':>12} {'steals':>7}"
            )
            for w in sorted(self.workers, key=lambda w: str(w.worker)):
                out.append(
                    f"  {str(w.worker):<8} {w.tasks:>7} "
                    f"{w.busy_seconds * 1e3:>9.3f} ms {w.steals:>7}"
                )
        else:
            out.append("workers: single-threaded (no scheduler/pool spans)")
        out.append("")
        if self.supersteps:
            out.append(f"frontier timeline ({len(self.supersteps)} supersteps)")
            rows = self.supersteps
            split = any(r.threshold is not None for r in rows)
            out.append(
                f"  {'step':>5} {'frontier':>9} {'out':>9} {'edges':>9} "
                f"{'dens':>6} {'dir':<5} {'fused':<5} {'repr':<7} {'ms':>8}"
                + (f" {'threshold':>10} {'width':>10}" if split else "")
            )
            shown = rows
            if len(rows) > max_timeline_rows:
                half = max_timeline_rows // 2
                shown = rows[:half] + rows[-half:]
            previous_index = None
            for row in shown:
                if previous_index is not None and row.index != previous_index + 1:
                    out.append(f"  ... ({len(rows) - len(shown)} rows elided)")
                previous_index = row.index
                dens = f"{row.density:.1%}" if row.density is not None else "-"
                thr = "-" if row.threshold is None else f"{row.threshold:.6g}"
                width = "-" if row.width is None else f"{row.width:.6g}"
                out.append(
                    f"  {row.iteration!s:>5} "
                    f"{row.frontier_size if row.frontier_size is not None else '-':>9} "
                    f"{row.output_size if row.output_size is not None else '-':>9} "
                    f"{row.edges_expanded if row.edges_expanded is not None else '-':>9} "
                    f"{dens:>6} {row.direction or '-':<5} "
                    f"{('yes' if row.fused else 'no') if row.fused is not None else '-':<5} "
                    f"{row.representation or '-':<7} "
                    f"{row.seconds * 1e3:>8.3f}"
                    + (f" {thr:>10} {width:>10}" if split else "")
                )
            if self.direction_flips:
                out.append(f"  direction flips: {self.direction_flips}")
        out.append("")
        out.append(f"diagnosis: {self.diagnosis()}")
        return "\n".join(out)


# -- engine ----------------------------------------------------------------------------


def _walk(node: SpanNode):
    yield node
    for child in node.children:
        yield from _walk(child)


def _critical_chain(node: SpanNode):
    """The heaviest chain from ``node`` down: the node itself, then the
    chain through its longest child."""
    yield node
    if node.children:
        heaviest = max(node.children, key=lambda c: c.duration)
        yield from _critical_chain(heaviest)


def analyze_spans(
    nodes: Sequence[SpanNode],
    *,
    n_vertices: Optional[int] = None,
) -> AnalysisReport:
    """Run the full analysis over normalized span records."""
    if not nodes:
        return AnalysisReport(
            wall_seconds=0.0,
            layers={},
            untraced_seconds=0.0,
            critical_path=[],
            critical_path_seconds=0.0,
            workers=[],
            imbalance_factor=1.0,
            supersteps=[],
            direction_flips=0,
            span_count=0,
            n_vertices=n_vertices,
        )
    roots = build_tree(nodes)
    wall = max(n.end for n in nodes) - min(n.start for n in nodes)

    # The driver thread owns the run's loop structure: the thread whose
    # root spans cover the most time (ties to the earliest root).
    root_cover: Dict[int, float] = defaultdict(float)
    for r in roots:
        root_cover[r.thread_id] += r.duration
    driver_thread = max(
        root_cover, key=lambda t: (root_cover[t], -min(
            r.start for r in roots if r.thread_id == t
        ))
    )
    driver_roots = [r for r in roots if r.thread_id == driver_thread]

    # Per-layer self-time attribution (exact: sums to total span time).
    layers: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    by_name: Dict[str, float] = defaultdict(float)
    rounds = {n.span_id for n in nodes if n.name == "proc:round"}
    for n in nodes:
        if n.name == "proc:task" and n.parent_id in rounds:
            continue  # booked through its round below
        self_time = n.self_time
        if n.name == "proc:round":
            # Workers run concurrently: the longest task is the round's
            # kernel time, the rest of the round transfer and barrier.
            # The other tasks overlap it and show only in the worker
            # table, so the layers still sum to wall.
            tasks = [c.duration for c in n.children if c.name == "proc:task"]
            own = max(0.0, n.duration - sum(
                c.duration for c in n.children if c.name != "proc:task"
            ))
            kernel = min(max(tasks, default=0.0), own)
            layers[layer_of("proc:task")] += kernel
            by_name["proc:task"] += kernel
            self_time = own - kernel
        layers[layer_of(n.name)] += self_time
        by_name[n.name] += self_time
    # Driver-thread time between top-level spans is the enactor's own
    # bookkeeping (stats, convergence checks): attribute it to the loop
    # layer, but keep the amount visible.
    driver_window = (
        max(r.end for r in driver_roots) - min(r.start for r in driver_roots)
        if driver_roots
        else 0.0
    )
    driver_covered = sum(r.duration for r in driver_roots)
    untraced = max(0.0, driver_window - driver_covered)
    # Edge-to-edge slack outside the driver window (other threads
    # starting earlier/ending later) stays unattributed.
    layers["loop"] += untraced
    layers = {k: v for k, v in layers.items() if v > 0 or k in ("loop",)}

    # Critical path: driver-thread top-level spans are serial segments;
    # inside each, descend into the heaviest child.
    path_totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    path_seconds = 0.0
    for root in driver_roots:
        for node in _critical_chain(root):
            entry = path_totals[node.name]
            entry[0] += 1
            entry[1] += node.self_time
            path_seconds += node.self_time
    critical_path = [
        CriticalPathEntry(
            name=name,
            count=int(count),
            seconds=seconds,
            share=seconds / wall if wall > 0 else 0.0,
        )
        for name, (count, seconds) in sorted(
            path_totals.items(), key=lambda kv: -kv[1][1]
        )
    ]

    # Worker load from scheduler/pool task spans.
    busy: Dict[Any, WorkerLoad] = {}
    for n in nodes:
        if n.name not in ("scheduler:task", "pool:task", "proc:task"):
            continue
        worker = n.attrs.get("worker")
        if worker is None:
            worker = n.thread_name or n.thread_id
        load = busy.get(worker)
        if load is None:
            load = busy[worker] = WorkerLoad(worker, 0, 0.0)
        load.tasks += 1
        load.busy_seconds += n.duration
        if n.attrs.get("stolen"):
            load.steals += 1
    workers = sorted(busy.values(), key=lambda w: str(w.worker))
    if len(workers) >= 2:
        mean = sum(w.busy_seconds for w in workers) / len(workers)
        peak = max(w.busy_seconds for w in workers)
        imbalance = peak / mean if mean > 0 else 1.0
    else:
        imbalance = 1.0

    # Frontier timeline from superstep spans, joined with the
    # adaptive-dispatch attributes on their operator:advance children.
    supersteps: List[SuperstepRow] = []
    flips = 0
    previous_direction = None
    step_spans = [
        n
        for n in nodes
        if n.name == "superstep" and n.thread_id == driver_thread
    ]
    step_spans.sort(key=lambda n: n.start)
    for i, n in enumerate(step_spans):
        attrs = n.attrs
        row = SuperstepRow(
            index=i,
            iteration=attrs.get("iteration", i),
            seconds=n.duration,
            frontier_size=attrs.get("frontier_size"),
            output_size=attrs.get("output_frontier_size"),
            edges_expanded=attrs.get("edges_expanded"),
        )
        if n_vertices and row.frontier_size is not None:
            row.density = row.frontier_size / n_vertices
        advance = next(
            (c for c in _walk(n) if c.name == "operator:advance"), None
        )
        # The near/far split is an event on the superstep.
        split = next(
            (
                e.get("attrs", {})
                for e in n.events
                if e.get("name") == "frontier:split"
            ),
            None,
        )
        if split is not None:
            row.threshold = split.get("threshold")
            row.width = split.get("width")
        if advance is not None:
            row.direction = advance.attrs.get("direction")
            row.fused = advance.attrs.get("fused")
            row.representation = advance.attrs.get("representation")
            if row.output_size is None:
                row.output_size = advance.attrs.get("output_size")
            if row.direction is not None:
                if (
                    previous_direction is not None
                    and row.direction != previous_direction
                ):
                    flips += 1
                previous_direction = row.direction
        supersteps.append(row)

    report = AnalysisReport(
        wall_seconds=wall,
        layers=layers,
        untraced_seconds=untraced,
        critical_path=critical_path,
        critical_path_seconds=path_seconds,
        workers=workers,
        imbalance_factor=imbalance,
        supersteps=supersteps,
        direction_flips=flips,
        span_count=len(nodes),
        n_vertices=n_vertices,
    )
    report._by_name = dict(by_name)
    return report


def analyze_probe(probe, *, n_vertices: Optional[int] = None) -> AnalysisReport:
    """Analyze a live probe's spans (``n_vertices`` read from the
    ``profile.n_vertices`` gauge when not given)."""
    if n_vertices is None and getattr(probe, "enabled", False):
        snapshot = probe.metrics.as_dict()
        value = snapshot.get("profile.n_vertices")
        if isinstance(value, (int, float)) and value > 0:
            n_vertices = int(value)
    return analyze_spans(nodes_from_probe(probe), n_vertices=n_vertices)


def analyze_file(path: str) -> AnalysisReport:
    """Analyze an exported trace file (Chrome ``*.json`` or ``*.jsonl``)."""
    nodes, metrics = load_trace_file(path)
    n_vertices = None
    value = metrics.get("profile.n_vertices")
    if isinstance(value, (int, float)) and value > 0:
        n_vertices = int(value)
    return analyze_spans(nodes, n_vertices=n_vertices)


# -- span-tree rendering ---------------------------------------------------------------

#: Attributes worth showing inline on a rendered span line.
_TREE_ATTR_LIMIT = 6


def render_span_tree(
    nodes: Sequence[SpanNode], *, max_lines: int = 200
) -> str:
    """One query's span tree as indented text (``repro explain <qid>``).

    Each line shows the span name, duration, and its most useful
    attributes; span events render as ``@`` marks under their span.
    Output is bounded: past ``max_lines`` the tree is cut with a visible
    elision count (an explain of a pathological query must not scroll
    the incident off the terminal).
    """
    roots = build_tree(nodes)
    lines: List[str] = []
    elided = 0

    def emit(node: SpanNode, depth: int) -> None:
        nonlocal elided
        if len(lines) >= max_lines:
            elided += 1 + _count(node)
            return
        indent = "  " * depth
        attrs = {
            k: v
            for k, v in node.attrs.items()
            if v is not None and k != "trace_id"
        }
        shown = list(attrs.items())[:_TREE_ATTR_LIMIT]
        attr_text = " ".join(f"{k}={v}" for k, v in shown)
        if len(attrs) > _TREE_ATTR_LIMIT:
            attr_text += f" (+{len(attrs) - _TREE_ATTR_LIMIT} more)"
        lines.append(
            f"{indent}{node.name:<{max(1, 30 - len(indent))}} "
            f"{node.duration * 1e3:>9.3f} ms"
            + (f"  {attr_text}" if attr_text else "")
        )
        for ev in node.events:
            if len(lines) >= max_lines:
                elided += 1
                continue
            ev_attrs = " ".join(
                f"{k}={v}" for k, v in (ev.get("attrs") or {}).items()
            )
            lines.append(
                f"{indent}  @ {ev.get('name', '?')}"
                + (f"  {ev_attrs}" if ev_attrs else "")
            )
        for child in node.children:
            emit(child, depth + 1)

    def _count(node: SpanNode) -> int:
        return sum(1 + _count(c) for c in node.children)

    for root in roots:
        emit(root, 0)
    if elided:
        lines.append(f"... ({elided} more lines elided)")
    return "\n".join(lines) if lines else "(no spans)"
