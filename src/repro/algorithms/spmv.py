"""SpMV through the native-graph API — the graph/matrix duality made
concrete (§IV-A: "the duality of graphs and sparse matrices can be
exploited even in the native-graph approach").

``y = A·x`` where A is the graph's weighted adjacency: each edge
(u, v, w) contributes ``w·x[v]`` to ``y[u]`` (out-edge gather).  The
vectorized policy is the (+, ×) sum-aggregate kernel
(:mod:`repro.operators.sum_aggregate` — the same one PageRank, HITS and
the linalg backend's unmasked SpMV run on); seq/par go through
per-vertex accumulation.  :func:`power_iteration` builds the
dominant-eigenvector loop on top, reusing the framework's convergence
conditions.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.graph.graph import Graph
from repro.execution.policy import (
    ExecutionPolicy,
    SequencedPolicy,
    VectorPolicy,
    par_vector,
    resolve_policy,
)
from repro.execution.thread_pool import even_chunks, get_pool
from repro.operators.sum_aggregate import graph_aggregate


def spmv(
    graph: Graph,
    x: np.ndarray,
    *,
    policy: Union[str, ExecutionPolicy] = par_vector,
    backend: str = "native",
) -> np.ndarray:
    """Multiply the graph's weighted adjacency matrix by vector ``x``.

    ``y[u] = Σ_{(u,v,w)} w · x[v]`` over u's out-edges.  ``backend`` is
    accepted for interface parity: (+, ×) SpMV is one kernel under
    either name.
    """
    from repro.execution.backend import resolve_backend

    resolve_backend(backend, "spmv")  # validates; both names run this driver
    policy = resolve_policy(policy)
    n = graph.n_vertices
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != n:
        raise ValueError(
            f"x must have one entry per vertex ({n}), got {x.shape[0]}"
        )
    if isinstance(policy, VectorPolicy):
        return graph_aggregate(graph).gather(x)
    csr = graph.csr()
    y = np.zeros(n, dtype=np.float64)

    def rows_span(start: int, stop: int) -> None:
        for u in range(start, stop):
            s, e = int(csr.row_offsets[u]), int(csr.row_offsets[u + 1])
            if s != e:
                y[u] = float(
                    np.dot(
                        csr.values[s:e].astype(np.float64),
                        x[csr.column_indices[s:e]],
                    )
                )

    if isinstance(policy, SequencedPolicy):
        rows_span(0, n)
        return y
    pool = get_pool(policy.num_workers)
    # Row-disjoint writes: no synchronization needed.
    pool.run_tasks(
        [
            (lambda s=s, e=e: rows_span(s, e))
            for s, e in even_chunks(n, policy.num_workers or pool.num_workers)
        ]
    )
    return y


def power_iteration(
    graph: Graph,
    *,
    max_iterations: int = 200,
    tolerance: float = 1e-9,
    policy: Union[str, ExecutionPolicy] = par_vector,
    seed: int = 0,
) -> Tuple[np.ndarray, float, int]:
    """Dominant eigenpair of the adjacency matrix by power iteration.

    Returns ``(eigenvector, eigenvalue, iterations)``; the vector is
    L2-normalized with a deterministic random start.
    """
    n = graph.n_vertices
    if n == 0:
        return np.empty(0), 0.0, 0
    rng = np.random.default_rng(seed)
    v = rng.random(n)
    v /= np.linalg.norm(v)
    eigenvalue = 0.0
    for it in range(1, max_iterations + 1):
        w = spmv(graph, v, policy=policy)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return v, 0.0, it
        w /= norm
        delta = float(np.abs(w - v).max())
        v = w
        eigenvalue = norm
        if delta <= tolerance:
            return v, eigenvalue, it
    return v, eigenvalue, max_iterations
