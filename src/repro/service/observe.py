"""Service observability: per-query tracing, latency metrics, incidents.

:class:`ServiceObservability` is what ``ServiceConfig(observe=True)``
turns on — one process-global :class:`~repro.observability.probe.Probe`
installed for the service's lifetime, plus a
:class:`~repro.observability.flight.FlightRecorder`.  Per query it:

* opens a ``service:query`` root span tagged with the query's trace id
  (the qid) and installs that id as the thread's ambient
  :class:`~repro.observability.context.trace_context`, so everything the
  query touches — admission, execution supersteps, ``par_proc`` round
  frames — hangs off one tree;
* on settle, feeds the latency histograms (global and per
  (graph, algorithm)), harvests the query's spans out of the shared
  tracer buffer, appends a ring event to the flight recorder, and dumps
  an incident file when the query degraded (408/500/504, a breaker
  tripping OPEN, or a worker respawn during the query).

The default is :data:`NULL_SERVICE_OBSERVABILITY` — the PR 2 null-object
discipline: with ``observe=False`` nothing is allocated, every call is a
no-op, and the serving hot path is unchanged.

**Span harvest.**  The tracer buffer is shared by every concurrent
query, so one query's spans are recovered by parent-chain: remember the
buffer position at query start, snapshot the tail at settle, and walk it
*newest-first* — a span belongs to the query if it carries the query's
``trace_id`` attribute (the root, and ``proc:task`` spans stitched from
worker replies) or its parent is already claimed.  Children complete
before parents, so the reversed pass sees each parent before its
children and one pass suffices.  The harvest is best-effort telemetry:
a rotated buffer yields an empty trace, never a wrong one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.observability.context import trace_context
from repro.observability.export import _jsonable
from repro.observability.flight import DEFAULT_CAPACITY, FlightRecorder
from repro.observability.probe import NULL_PROBE, Probe, install_probe, uninstall_probe

#: Span cap on one query's embedded/dumped trace: keeps ledger lines and
#: incident files bounded for pathological queries.  Truncation keeps
#: the earliest-opened spans, the root among them.
MAX_TRACE_SPANS = 512

#: Buffer length above which the tracer is cleared between queries
#: (only when nothing is in flight), so a long-running service never
#: grinds against its own span cap.
ROTATE_WATERMARK = 20_000

#: Response codes that are incidents by themselves.
INCIDENT_CODES = (408, 500, 504)


@dataclass
class SettledQuery:
    """What :meth:`ServiceObservability.settle` hands back to the server."""

    trace: List[Dict[str, Any]] = field(default_factory=list)
    incident: Optional[str] = None
    reasons: List[str] = field(default_factory=list)


_SETTLED_NOTHING = SettledQuery()


class QueryObservation:
    """Per-query handle: the root span + ambient trace id, plus the
    bookkeeping settle needs (buffer position, restart baseline)."""

    __slots__ = (
        "obs", "qid", "graph", "algorithm", "tenant",
        "start_index", "restarts_at", "_span_ctx", "_span", "_trace_ctx",
    )

    enabled = True

    def __init__(
        self,
        obs: "ServiceObservability",
        qid: str,
        *,
        graph: str,
        algorithm: str,
        tenant: str,
    ) -> None:
        self.obs = obs
        self.qid = qid
        self.graph = graph
        self.algorithm = algorithm
        self.tenant = tenant
        probe = obs.probe
        self.start_index = len(probe.tracer)
        self.restarts_at = probe.metrics.counter("proc.worker_restarts").value
        self._trace_ctx = trace_context(qid)
        self._trace_ctx.__enter__()
        self._span_ctx = probe.span(
            "service:query",
            trace_id=qid,
            graph=graph,
            algorithm=algorithm,
            tenant=tenant,
        )
        self._span = self._span_ctx.__enter__()

    def event(self, name: str, **attrs: Any) -> None:
        """An instant on the query's innermost open span."""
        self.obs.probe.event(name, **attrs)

    def span(self, name: str, **attrs: Any):
        """A child span under the query root (context manager)."""
        return self.obs.probe.span(name, **attrs)

    def finish(
        self, *, code: Optional[int] = None, error: Optional[str] = None
    ) -> None:
        """Stamp the outcome and close the root span + trace context.

        Must run on the query's thread (it pops the span stack);
        idempotent so a ``finally`` can call it unconditionally.
        """
        if self._span_ctx is None:
            return
        if code is not None:
            self._span.set("code", code)
        if error is not None:
            self._span.set("error", error)
        self._span_ctx.__exit__(None, None, None)
        self._span_ctx = None
        self._trace_ctx.__exit__(None, None, None)


class ServiceObservability:
    """The observe-enabled implementation (see the module docstring)."""

    enabled = True

    def __init__(
        self,
        *,
        flight_capacity: int = DEFAULT_CAPACITY,
        incidents_dir: Optional[str] = None,
        max_trace_spans: int = MAX_TRACE_SPANS,
    ) -> None:
        self.probe = Probe()
        install_probe(self.probe)
        self.flight = FlightRecorder(incidents_dir, capacity=flight_capacity)
        self.max_trace_spans = max_trace_spans
        self._lock = threading.Lock()
        self._inflight = 0
        self._latency_keys: set = set()
        self._closed = False

    def close(self) -> None:
        """Uninstall the probe (idempotent; the server calls this on
        stop so the process can install another probe afterwards)."""
        if not self._closed:
            self._closed = True
            uninstall_probe(self.probe)

    # -- per query ---------------------------------------------------------------------

    def begin_query(
        self, qid: str, *, graph: str, algorithm: str, tenant: str
    ) -> QueryObservation:
        """Open one query's root span; pair with :meth:`settle`."""
        with self._lock:
            self._inflight += 1
        return QueryObservation(
            self, qid, graph=graph, algorithm=algorithm, tenant=tenant
        )

    def settle(
        self,
        handle: QueryObservation,
        *,
        code: int,
        seconds: float,
        error: Optional[str] = None,
        breaker_opened: bool = False,
    ) -> SettledQuery:
        """Account one finished query (after :meth:`QueryObservation.finish`):
        latency histograms, span harvest, flight-recorder ring, and —
        when the query degraded — an incident dump."""
        ms = seconds * 1e3
        metrics = self.probe.metrics
        metrics.histogram("query.latency_ms").observe(ms)
        if code != 404:
            # 404s never get a per-key histogram: the key would come
            # from a client-supplied unknown graph name, so a misbehaving
            # client could grow the registry without bound.
            key = f"{handle.graph}/{handle.algorithm}"
            metrics.histogram(f"query.latency_ms[{key}]").observe(ms)
            with self._lock:
                self._latency_keys.add(key)

        spans = self._harvest(handle)
        trace = [self._span_dict(s) for s in spans]

        respawns = (
            metrics.counter("proc.worker_restarts").value - handle.restarts_at
        )
        reasons: List[str] = []
        if code in INCIDENT_CODES:
            reasons.append(f"code_{code}")
        if breaker_opened:
            reasons.append("breaker_open")
        if respawns:
            reasons.append("worker_respawn")

        self.flight.record(
            "query",
            qid=handle.qid,
            graph=handle.graph,
            algorithm=handle.algorithm,
            tenant=handle.tenant,
            code=code,
            ms=round(ms, 3),
        )
        incident_path: Optional[str] = None
        if reasons:
            try:
                incident_path = self.flight.incident(
                    reasons[0],
                    trace_id=handle.qid,
                    spans=trace,
                    reasons=reasons,
                    code=code,
                    graph=handle.graph,
                    algorithm=handle.algorithm,
                    tenant=handle.tenant,
                    error=error,
                    elapsed_ms=round(ms, 3),
                    worker_respawns=respawns,
                )
            except OSError:
                pass  # evidence collection must never fail the query

        with self._lock:
            self._inflight -= 1
            rotate = (
                self._inflight == 0
                and len(self.probe.tracer) > ROTATE_WATERMARK
            )
        if rotate:
            # Safe only while nothing is in flight: harvest positions
            # are relative to the last clear.  Cumulative drop counts
            # live on in the trace.dropped_spans counter.
            self.probe.tracer.clear()
        return SettledQuery(
            trace=trace, incident=incident_path, reasons=reasons
        )

    # -- harvest -----------------------------------------------------------------------

    def _harvest(self, handle: QueryObservation):
        tail = self.probe.tracer.spans_since(handle.start_index)
        claimed: set = set()
        picked = []
        for span in reversed(tail):
            if (
                span.attrs.get("trace_id") == handle.qid
                or span.parent_id in claimed
            ):
                claimed.add(span.span_id)
                picked.append(span)
        picked.reverse()  # back to completion order (root last)
        if len(picked) > self.max_trace_spans:
            # Keep the first-opened spans: a parent is opened before its
            # children, so no kept span loses its parent (root included).
            cut = sorted(s.span_id for s in picked)[self.max_trace_spans - 1]
            picked = [s for s in picked if s.span_id <= cut]
        return picked

    @staticmethod
    def _span_dict(span) -> Dict[str, Any]:
        record = span.to_dict()
        record["attrs"] = {
            k: _jsonable(v) for k, v in record["attrs"].items()
        }
        return record

    # -- scrape ------------------------------------------------------------------------

    def latency_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-(graph, algorithm) latency summaries with percentiles,
        plus the ``_all`` aggregate (what `stats` and `metrics` show)."""
        metrics = self.probe.metrics
        with self._lock:
            keys = sorted(self._latency_keys)
        out: Dict[str, Dict[str, float]] = {}
        for key, hist in [
            (key, metrics.histogram(f"query.latency_ms[{key}]"))
            for key in keys
        ] + [("_all", metrics.histogram("query.latency_ms"))]:
            if hist.count == 0:
                continue
            summary = hist.summary()
            summary["p50"] = hist.percentile(50)
            summary["p95"] = hist.percentile(95)
            summary["p99"] = hist.percentile(99)
            out[key] = {k: round(float(v), 4) for k, v in summary.items()}
        return out

    def snapshot_extras(self, uptime_s: float) -> Dict[str, Any]:
        """The snapshot sections only the probe can supply: worker-pool
        restarts/busy fraction, tracer health, incident counts."""
        metrics = self.probe.metrics
        restarts = metrics.counter("proc.worker_restarts").value
        busy = float(metrics.counter("proc.busy_seconds").value)
        workers = int(metrics.gauge("proc.workers").value)
        if workers > 0 and uptime_s > 0:
            busy_fraction = min(1.0, busy / (uptime_s * workers))
        else:
            busy_fraction = 0.0
        return {
            "workers": {
                "restarts": restarts,
                "num_workers": workers,
                "busy_seconds": round(busy, 3),
                "busy_fraction": round(busy_fraction, 4),
            },
            "trace": {
                "buffered_spans": len(self.probe.tracer),
                "dropped_spans": metrics.counter(
                    "trace.dropped_spans"
                ).value,
            },
            "incidents": self.flight.stats(),
        }


# -- the null objects ------------------------------------------------------------------


class _NullQueryObservation:
    """Shared inert handle: the observe-off per-query surface."""

    __slots__ = ()

    enabled = False
    qid = None

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def span(self, name: str, **attrs: Any):
        return NULL_PROBE.span(name)

    def finish(self, **kwargs: Any) -> None:
        pass


NULL_QUERY_OBSERVATION = _NullQueryObservation()


class NullServiceObservability:
    """The observe-off service surface: allocates nothing, does nothing."""

    enabled = False

    def begin_query(self, qid: str, **kwargs: Any) -> _NullQueryObservation:
        """The shared inert per-query handle."""
        return NULL_QUERY_OBSERVATION

    def settle(self, handle, **kwargs: Any) -> SettledQuery:
        """No harvest, no histograms, no incident."""
        return _SETTLED_NOTHING

    def latency_summary(self) -> Dict[str, Dict[str, float]]:
        """No percentiles without a probe."""
        return {}

    def snapshot_extras(self, uptime_s: float) -> Dict[str, Any]:
        """No probe-backed snapshot sections."""
        return {}

    def close(self) -> None:
        """Nothing to release."""


NULL_SERVICE_OBSERVABILITY = NullServiceObservability()
