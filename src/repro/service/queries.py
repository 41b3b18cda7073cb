"""Query execution: algorithm dispatch with wire-sized results.

The service cannot ship whole value arrays over a JSONL socket — a
scale-20 PageRank vector is megabytes of floats nobody asked for.  Each
query therefore returns a bounded summary: counts, convergence state,
iteration count, a checksum over the full vector (so two servers — or a
cached and a fresh answer — can be compared for agreement), and the
first ``head`` values for eyeballing.

Partial results: ``pagerank`` and ``ppr`` are anytime algorithms — when
the ambient :class:`~repro.resilience.deadline.CancelToken` fires they
return their last completed iterate with ``converged: false``, which
:func:`execute_query` marks ``partial: true``.  Traversals (``bfs``,
``sssp``, ``cc``) have no useful prefix answer, so their cancellation
propagates as :class:`~repro.errors.DeadlineExceeded` and the server
answers 504.
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

    Runs on the caller's thread under whatever ambient cancel token the
    server installed; raises :class:`~repro.errors.CancellationError`
    out of non-anytime algorithms and :class:`ProtocolError` on bad
    parameters (mapped to 400, never 500 — the client's mistake).
    """
    import repro.algorithms as alg

    if "source" in params:
        try:
            source = int(params["source"])
        except (TypeError, ValueError):
            raise ProtocolError(
                f"'source' must be an integer, got {params['source']!r}"
            ) from None
        if not (0 <= source < graph.n_vertices):
            raise ProtocolError(
                f"'source' {source} out of range [0, {graph.n_vertices})"
            )
    policy = str(params.get("policy", "par_vector"))
    try:
        if algorithm == "pagerank":
            r = alg.pagerank(
                graph,
                damping=float(params.get("damping", 0.85)),
                tolerance=float(params.get("tolerance", 1e-6)),
                max_iterations=int(params.get("max_iterations", 100)),
                policy=policy,
            )
            values, extra = r.ranks, {"delta": r.delta}
        elif algorithm == "ppr":
            r = alg.personalized_pagerank(
                graph,
                params.get("source", 0),
                damping=float(params.get("damping", 0.85)),
                tolerance=float(params.get("tolerance", 1e-8)),
                max_iterations=int(params.get("max_iterations", 200)),
                policy=policy,
            )
            values, extra = r.ranks, {"seeds": [int(s) for s in r.seeds]}
        elif algorithm == "bfs":
            r = alg.bfs(
                graph,
                int(params.get("source", 0)),
                policy=policy,
                direction=str(params.get("direction", "push")),
                resilience=resilience,
            )
            values = r.levels
            extra = {"reached": int(np.count_nonzero(r.levels >= 0))}
        elif algorithm == "sssp":
            r = alg.sssp(
                graph,
                int(params.get("source", 0)),
                policy=policy,
                resilience=resilience,
            )
            values = r.distances
            extra = {
                "reached": int(np.count_nonzero(np.isfinite(r.distances)))
            }
        elif algorithm == "cc":
            r = alg.connected_components(
                graph, policy=policy, resilience=resilience
            )
            values, extra = r.labels, {"n_components": int(r.n_components)}
        else:  # pragma: no cover - protocol validation guards this
            raise ProtocolError(f"unknown algorithm {algorithm!r}")
    except (ValueError, KeyError, TypeError, ExecutionPolicyError) as exc:
        # Bad parameter values (negative damping, out-of-range source,
        # non-numeric strings, unknown policies) are the client's error,
        # not the server's.
        raise ProtocolError(f"bad {algorithm} parameters: {exc}") from exc

    stats = getattr(r, "stats", None)
    converged = bool(getattr(r, "converged", True))
    token = active_token()
    partial = not converged and token is not None and token.should_stop()
    return {
        "algorithm": algorithm,
        "n": int(np.asarray(values).shape[0]),
        "converged": converged,
        "partial": partial,
        "iterations": int(getattr(r, "iterations", 0))
        or (stats.num_iterations if stats is not None else 0),
        "checksum": _checksum(values),
        "head": _head(values),
        **extra,
    }


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
