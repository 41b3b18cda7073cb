"""The deadline-driven graph query service (``repro serve``).

The serving layer the paper's runtime work ultimately feeds: load a
graph catalog once, answer many concurrent queries, and stay honest
under overload and failure.  Pieces, each its own module:

* :mod:`~repro.service.protocol` — JSONL frames, status codes.
* :mod:`~repro.service.catalog` — graphs loaded once, manifest persisted.
* :mod:`~repro.service.admission` — bounded concurrency/queue/tenant caps.
* :mod:`~repro.service.breaker` — per-(graph, algorithm) circuit breaker.
* :mod:`~repro.service.cache` — LRU+TTL results, stale-while-error.
* :mod:`~repro.service.journal` — crash-recoverable query journal.
* :mod:`~repro.service.queries` — algorithm dispatch, wire-sized results.
* :mod:`~repro.service.observe` — per-query tracing, latency metrics,
  and the incident flight recorder (``observe=True``).
* :mod:`~repro.service.server` — the pipeline plus the TCP front end.
* :mod:`~repro.service.client` — the blocking JSONL client.

Deadlines ride on :mod:`repro.resilience.deadline` cancel tokens, which
the enactors, schedulers, and Pregel engine honor at their superstep /
quiescence boundaries — see ``docs/service.md``.
"""

from repro.service.admission import AdmissionController
from repro.service.breaker import BreakerBoard, CircuitBreaker
from repro.service.cache import ResultCache, cache_key
from repro.service.catalog import GraphCatalog, parse_graph_spec
from repro.service.client import ServiceClient
from repro.service.journal import QueryJournal
from repro.service.observe import (
    NullServiceObservability,
    ServiceObservability,
)
from repro.service.queries import execute_query
from repro.service.server import GraphQueryServer, QueryService, ServiceConfig

__all__ = [
    "AdmissionController",
    "BreakerBoard",
    "CircuitBreaker",
    "GraphCatalog",
    "GraphQueryServer",
    "NullServiceObservability",
    "QueryJournal",
    "QueryService",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceObservability",
    "cache_key",
    "execute_query",
    "parse_graph_spec",
]
