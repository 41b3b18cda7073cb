"""Segmented intersection: |N(u) ∩ N(v)| per requested pair.

The operator behind triangle counting (and clustering coefficients):
for each edge (u, v) count the common neighbors.  Requires sorted
neighbor lists (build the graph with
:meth:`~repro.graph.graph.Graph.with_sorted_neighbors`).

Per-pair intersection uses the two-pointer merge realized via
``np.searchsorted`` of the smaller list into the larger — O(min·log max)
with all comparisons in C.  The threaded overload splits the pair list
across the pool.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import ExecutionPolicyError, GraphFormatError
from repro.graph.graph import Graph
from repro.execution.policy import (
    ExecutionPolicy,
    ParallelNoSyncPolicy,
    ParallelPolicy,
    SequencedPolicy,
    VectorPolicy,
    resolve_policy,
)
from repro.execution.thread_pool import even_chunks, get_pool
from repro.resilience.deadline import active_token

#: Pairs intersected between two polls of the ambient cancel token.
CANCEL_CHECK_PAIRS = 2048


def _intersect_size(a: np.ndarray, b: np.ndarray) -> int:
    """Size of the intersection of two sorted unique arrays."""
    if a.shape[0] > b.shape[0]:
        a, b = b, a
    if a.shape[0] == 0:
        return 0
    pos = np.searchsorted(b, a)
    pos[pos == b.shape[0]] = b.shape[0] - 1
    return int(np.count_nonzero(b[pos] == a))


def segmented_intersection_counts(
    policy: Union[str, ExecutionPolicy],
    graph: Graph,
    pairs_u: np.ndarray,
    pairs_v: np.ndarray,
) -> np.ndarray:
    """Count common out-neighbors for each pair ``(pairs_u[k], pairs_v[k])``.

    Raises :class:`GraphFormatError` unless the graph was built or
    converted with sorted neighbor lists.  The calling thread's cancel
    token is polled every :data:`CANCEL_CHECK_PAIRS` pairs of each span,
    in the pool threads too, so a deadline interrupts a long batch.
    """
    policy = resolve_policy(policy)
    if not graph.properties.sorted_neighbors:
        raise GraphFormatError(
            "segmented intersection requires sorted neighbor lists; call "
            "graph.with_sorted_neighbors() first"
        )
    u = np.asarray(pairs_u).ravel()
    v = np.asarray(pairs_v).ravel()
    if u.shape != v.shape:
        raise ValueError(
            f"pair arrays must have equal length, got {u.shape[0]} and {v.shape[0]}"
        )
    csr = graph.csr()
    out = np.zeros(u.shape[0], dtype=np.int64)
    # Thread-local: read here, because the pool threads cannot see it.
    token = active_token()

    def run_span(start: int, stop: int) -> None:
        for block in range(start, stop, CANCEL_CHECK_PAIRS):
            if token is not None:
                token.check("operator:intersection")
            for k in range(block, min(block + CANCEL_CHECK_PAIRS, stop)):
                out[k] = _intersect_size(
                    csr.get_neighbors(int(u[k])), csr.get_neighbors(int(v[k]))
                )

    if isinstance(policy, (SequencedPolicy, VectorPolicy)):
        # The per-pair kernel is already NumPy-backed; "vector" here means
        # the batch loop runs in the invoking thread.
        run_span(0, u.shape[0])
        return out
    if isinstance(policy, (ParallelPolicy, ParallelNoSyncPolicy)):
        pool = get_pool(policy.num_workers)
        chunks = even_chunks(u.shape[0], policy.num_workers or pool.num_workers)
        # Disjoint output spans -> no synchronization needed.
        pool.run_tasks([lambda s=s, e=e: run_span(s, e) for s, e in chunks])
        return out
    raise ExecutionPolicyError(
        f"segmented_intersection_counts has no overload for policy {policy!r}"
    )
