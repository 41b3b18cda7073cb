"""Query execution: algorithm dispatch with wire-sized results.

The service cannot ship whole value arrays over a JSONL socket — a
scale-20 PageRank vector is megabytes of floats nobody asked for.  Each
query therefore returns a bounded summary: counts, convergence state,
iteration count, a checksum over the full vector (so two servers — or a
cached and a fresh answer — can be compared for agreement), and the
first ``head`` values for eyeballing.

Dispatch is by :data:`repro.algorithms.REGISTRY`, every entry of it: a
spec names the entry, its values field and its extra result fields.  An
entry without per-vertex values (tc, ktruss) answers without checksum
and head.  Partial results: ``pagerank`` and ``ppr`` are anytime
algorithms — when the ambient
:class:`~repro.resilience.deadline.CancelToken` fires they return their
last completed iterate with ``converged: false``, which
:func:`execute_query` marks ``partial: true``.  Every other entry polls
the token each superstep and has no useful prefix answer, so its
cancellation propagates as :class:`~repro.errors.DeadlineExceeded` and
the server answers 504.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.errors import ExecutionPolicyError, ProtocolError
from repro.graph.graph import Graph
from repro.resilience.deadline import active_token

#: Values included verbatim in a result for eyeballing.
HEAD = 8


def _head(values: np.ndarray) -> list:
    return [round(float(v), 9) for v in np.asarray(values)[:HEAD]]


def _checksum(values: np.ndarray) -> float:
    """Order-independent fingerprint of the full value vector."""
    finite = np.asarray(values, dtype=np.float64)
    finite = finite[np.isfinite(finite)]
    return round(float(finite.sum()), 9)


def execute_query(
    graph: Graph,
    algorithm: str,
    params: Dict[str, Any],
    *,
    resilience=None,
) -> Dict[str, Any]:
    """Run one algorithm; returns a JSON-serializable result dict.

    ``params`` are plan fields of the algorithm's registry spec, as
    :func:`~repro.service.protocol.validate_request` types them.  Runs
    on the caller's thread under whatever ambient cancel token the
    server installed; raises :class:`~repro.errors.CancellationError`
    out of non-anytime algorithms and :class:`ProtocolError` on bad
    parameters (mapped to 400, never 500 — the client's mistake).
    """
    from repro.algorithms import REGISTRY

    spec = REGISTRY[algorithm]
    if "resilience" in spec.fields:
        params = {**params, "resilience": resilience}
    try:
        source = params.get("source")
        if source is not None and not 0 <= source < graph.n_vertices:
            raise ProtocolError(
                f"'source' {source} out of range [0, {graph.n_vertices})"
            )
        r = spec.run(graph, params)
    except (ValueError, KeyError, TypeError, ExecutionPolicyError) as exc:
        # Bad parameter values (negative damping, non-numeric strings,
        # unknown policies) are the client's error, not the server's.
        raise ProtocolError(f"bad {algorithm} parameters: {exc}") from exc

    values = spec.values_of(r)
    converged = bool(getattr(r, "converged", True))
    token = active_token()
    partial = not converged and token is not None and token.should_stop()
    out = {
        "algorithm": algorithm,
        "converged": converged,
        "partial": partial,
        "iterations": int(getattr(r, "iterations", 0)) or r.stats.num_iterations,
    }
    if values is not None:
        out["n"] = int(np.asarray(values).shape[0])
        out["checksum"] = _checksum(values)
        out["head"] = _head(values)
    if spec.extra is not None:
        out.update(spec.extra(graph, r))
    return out


def make_resilience(retry_attempts: int = 2):
    """The server-side default :class:`ResiliencePolicy`: a couple of
    fast retries so injected chaos faults do not become client errors.

    ``None`` when retries are disabled (attempts <= 1)."""
    if retry_attempts <= 1:
        return None
    from repro.resilience import ResiliencePolicy, RetryPolicy

    return ResiliencePolicy(
        retry=RetryPolicy(
            max_attempts=retry_attempts, base_delay=0.0, max_delay=0.0
        )
    )
