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

from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.convergence import AnyOf, MaxIterations, ValuesConverged
from repro.loop.enactor import Enactor
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


def _normalized(x: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(x)
    if norm > 0:
        x /= norm
    return x


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
    max-norm — PageRank's loop shape over an all-vertex frontier.
    """
    from repro.execution.backend import resolve_backend

    resolve_backend(backend, "hits")  # validates; both names run this driver
    resolve_policy(policy)
    n = graph.n_vertices
    if n == 0:
        empty = np.empty(0)
        return HITSResult(empty, empty, 0, True)
    aggregate = graph_aggregate(graph)
    start = np.full(n, 1.0 / np.sqrt(n), dtype=np.float64)
    # (auth, hubs) now and one superstep ago.
    box = {"now": (start.copy(), start), "before": None}

    def step(frontier, state):
        auth = _normalized(aggregate.scatter(box["now"][1]))
        hubs = _normalized(aggregate.gather(auth))
        box["before"], box["now"] = box["now"], (auth, hubs)
        return frontier

    # Both vectors under one max-norm: the L-inf movement of the pair.
    convergence = AnyOf(
        [
            MaxIterations(max_iterations),
            ValuesConverged(
                lambda s: np.concatenate(box["now"]),
                tolerance=tolerance,
                norm="linf",
            ),
        ]
    )
    stats = Enactor(
        graph, convergence=convergence, max_iterations=max_iterations + 1
    ).run(SparseFrontier.from_indices(np.arange(n), n), step)
    auth, hubs = box["now"]
    # Stopped by the fixed point, not the cap: the last move was small.
    converged = box["before"] is not None and float(
        np.abs(np.concatenate(box["now"]) - np.concatenate(box["before"]))
        .max(initial=0.0)
    ) <= tolerance
    stats.converged = converged
    return HITSResult(
        hubs=hubs,
        authorities=auth,
        iterations=stats.num_iterations,
        converged=converged,
        stats=stats,
    )
