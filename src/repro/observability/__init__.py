"""Observability: unified tracing, metrics, and profiling.

The paper's iterative loop structure (essential component 4) is defined
by what happens at superstep boundaries; this subsystem makes those
boundaries *visible*.  Every layer — enactors, the execution layer, the
Pregel communication layer, the operators, and the resilience
layer — reports through one ambient :class:`Probe`:

* :class:`Tracer` — nested spans (``superstep``, ``operator:advance``,
  ``scheduler:task``, ``pregel:send``, ``checkpoint:save``, ...)
  with structured attributes (frontier size, edges expanded, worker id)
  and thread-safe bounded buffering;
* :class:`MetricsRegistry` — named counters/gauges/histograms unifying
  the legacy ``ResilienceCounters`` and ``RunStats`` accounting;
* exporters — Chrome trace-event JSON (open in Perfetto, one track per
  worker thread), a JSONL event log, and a terminal summary table.

The default probe is the null object: with nothing installed every
instrumentation point is a no-op with bounded overhead (measured <2% on
the grid SSSP workload; see ``benchmarks/bench_observability_overhead.py``).

Usage::

    from repro.observability import Probe, render_summary, write_chrome_trace

    probe = Probe()
    with probe:                     # ambient, like a FaultInjector
        result = sssp(g, 0)
    print(render_summary(probe))
    write_chrome_trace(probe, "trace.json")

Or in one call via :func:`repro.observability.profile.profile_algorithm`
(what ``repro profile`` runs).  This module intentionally does not
import the profiling front-end — the instrumented layers import
:mod:`repro.observability.probe`, so the package root must stay below
them in the dependency order.
"""

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.probe import (
    NULL_PROBE,
    NullProbe,
    Probe,
    active_probe,
    install_probe,
    uninstall_probe,
)
from repro.observability.span import Span, SpanEvent
from repro.observability.tracer import Tracer
from repro.observability.export import (
    SCHEMA_VERSION,
    render_summary,
    to_chrome_trace,
    validate_chrome_trace,
    validate_events_jsonl,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.observability.analysis import (
    AnalysisReport,
    analyze_file,
    analyze_probe,
    analyze_spans,
    nodes_from_span_dicts,
    render_span_tree,
)
from repro.observability.context import current_trace_id, trace_context
from repro.observability.flight import (
    INCIDENT_SCHEMA,
    FlightRecorder,
    validate_incident_jsonl,
)
from repro.observability.prom import (
    METRICS_SCHEMA,
    metrics_to_prometheus,
    validate_metrics_json,
    validate_prometheus,
)
from repro.observability.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    ledger_enabled,
    make_record,
    resolve_ledger_dir,
)
from repro.observability.regression import (
    RegressionReport,
    compare,
    load_comparable,
)

__all__ = [
    "AnalysisReport",
    "analyze_file",
    "analyze_probe",
    "analyze_spans",
    "nodes_from_span_dicts",
    "render_span_tree",
    "current_trace_id",
    "trace_context",
    "INCIDENT_SCHEMA",
    "FlightRecorder",
    "validate_incident_jsonl",
    "METRICS_SCHEMA",
    "metrics_to_prometheus",
    "validate_metrics_json",
    "validate_prometheus",
    "LEDGER_SCHEMA",
    "RunLedger",
    "ledger_enabled",
    "make_record",
    "resolve_ledger_dir",
    "RegressionReport",
    "compare",
    "load_comparable",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_PROBE",
    "NullProbe",
    "Probe",
    "active_probe",
    "install_probe",
    "uninstall_probe",
    "Span",
    "SpanEvent",
    "Tracer",
    "SCHEMA_VERSION",
    "render_summary",
    "to_chrome_trace",
    "validate_chrome_trace",
    "validate_events_jsonl",
    "write_chrome_trace",
    "write_events_jsonl",
]
