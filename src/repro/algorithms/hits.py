"""HITS hubs-and-authorities — the push/pull pair in one algorithm.

Each iteration needs *both* products: authority scores sum over
in-edges (``Aᵀ·hub``), hub scores over out-edges (``A·auth``).  The
(+, ×) sum-aggregate kernel (:mod:`repro.operators.sum_aggregate`)
computes both off the CSR arrays alone — scatter for the transpose,
gather for the forward product — so the dual-representation cost §III-C
accepts "at the cost of memory space" is not paid here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.graph.graph import Graph
from repro.execution.policy import ExecutionPolicy, par_vector, resolve_policy
from repro.utils.counters import RunStats
from repro.operators.sum_aggregate import graph_aggregate


@dataclass
class HITSResult:
    """Hub and authority vectors (L2-normalized), iteration count."""

    hubs: np.ndarray
    authorities: np.ndarray
    iterations: int
    converged: bool
    stats: RunStats = field(default_factory=RunStats)


def hits(
    graph: Graph,
    *,
    max_iterations: int = 100,
    tolerance: float = 1e-8,
    policy: Union[str, ExecutionPolicy] = par_vector,
    backend: str = "native",
) -> HITSResult:
    """Kleinberg's HITS on the directed graph.

    ``auth = Aᵀ·hub`` (pull) then ``hub = A·auth`` (push), L2-normalized
    each round; stops when both vectors move less than ``tolerance`` in
    max-norm.
    """
    from repro.execution.backend import resolve_backend

    resolve_backend(backend, "hits")  # validates; both names run this driver
    resolve_policy(policy)
    n = graph.n_vertices
    if n == 0:
        empty = np.empty(0)
        return HITSResult(empty, empty, 0, True)
    aggregate = graph_aggregate(graph)
    hubs = np.full(n, 1.0 / np.sqrt(n), dtype=np.float64)
    auth = hubs.copy()
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        new_auth = aggregate.scatter(hubs)
        norm = np.linalg.norm(new_auth)
        if norm > 0:
            new_auth /= norm
        new_hubs = aggregate.gather(new_auth)
        norm = np.linalg.norm(new_hubs)
        if norm > 0:
            new_hubs /= norm
        delta = max(
            float(np.abs(new_auth - auth).max(initial=0.0)),
            float(np.abs(new_hubs - hubs).max(initial=0.0)),
        )
        auth, hubs = new_auth, new_hubs
        if delta <= tolerance:
            converged = True
            break
    stats = RunStats()
    stats.converged = converged
    return HITSResult(
        hubs=hubs,
        authorities=auth,
        iterations=iterations,
        converged=converged,
        stats=stats,
    )
