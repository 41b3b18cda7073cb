"""Betweenness centrality — Brandes' algorithm on frontier machinery.

The forward phase is a BFS whose per-level frontiers are *retained*:
advancing also accumulates shortest-path counts (sigma) into
destinations one level down.  The backward phase walks the retained
frontiers in reverse, accumulating the dependency
``delta[v] += sigma[v]/sigma[w] * (1 + delta[w])`` over tree edges —
a pull-shaped traversal over the same graph views.

Exact BC runs one rooted phase per source (O(V·E)); ``sources`` limits
the roots for the standard sampling approximation.  Unweighted graphs
only (Brandes' BFS variant), matching essentials' `bc`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.enactor import Enactor
from repro.operators.advance import neighbors_expand
from repro.operators.conditions import bulk_condition
from repro.execution.policy import ExecutionPolicy, par_vector, resolve_policy
from repro.types import VERTEX_DTYPE
from repro.utils.counters import RunStats


@dataclass
class BCResult:
    """Centrality scores plus accounting.

    For undirected graphs scores are halved per convention (each path is
    found from both endpoints).
    """

    centrality: np.ndarray
    n_sources: int
    stats: RunStats = field(default_factory=RunStats)


def betweenness_centrality(
    graph: Graph,
    *,
    sources: Optional[Sequence[int]] = None,
    normalize: bool = False,
    policy: Union[str, ExecutionPolicy] = par_vector,
) -> BCResult:
    """Brandes betweenness centrality (unweighted shortest paths).

    Parameters
    ----------
    sources:
        Root vertices to accumulate from (default: all — exact BC).
    normalize:
        Scale into [0, 1] by the number of vertex pairs.
    """
    policy = resolve_policy(policy)
    n = graph.n_vertices
    csr = graph.csr()
    roots = (
        np.arange(n, dtype=VERTEX_DTYPE)
        if sources is None
        else np.asarray(list(sources), dtype=VERTEX_DTYPE)
    )
    centrality = np.zeros(n, dtype=np.float64)
    result = BCResult(centrality=centrality, n_sources=len(roots))
    enactor = Enactor(graph)

    for s in roots:
        s = int(s)
        levels = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.float64)
        levels[s] = 0
        sigma[s] = 1.0
        frontiers = [np.asarray([s], dtype=VERTEX_DTYPE)]

        # Forward: level-synchronous BFS accumulating path counts, one
        # level per superstep.
        def step(frontier, state):
            level = state.iteration

            @bulk_condition
            def count_paths(srcs, dsts, edges, weights):
                on_next = (levels[dsts] == -1) | (levels[dsts] == level + 1)
                fresh = levels[dsts] == -1
                if np.any(fresh):
                    levels[dsts[fresh]] = level + 1
                take = on_next & (levels[dsts] == level + 1)
                if np.any(take):
                    np.add.at(sigma, dsts[take], sigma[srcs[take]])
                return take & fresh

            out = neighbors_expand(policy, graph, frontier, count_paths)
            frontiers.append(np.unique(out.to_indices()))
            return SparseFrontier.from_indices(frontiers[-1], n)

        result.stats.iterations += enactor.run(
            SparseFrontier.from_indices(frontiers[0], n), step
        ).iterations
        frontiers.pop()  # drop the empty terminator

        # Backward: dependency accumulation over the BFS dag.
        delta = np.zeros(n, dtype=np.float64)
        for depth in range(len(frontiers) - 1, 0, -1):
            wave = frontiers[depth]
            # Pull over the reverse: for each w in this wave, credit every
            # predecessor v (levels[v] == depth-1 and edge v->w).
            srcs, dsts, _, _ = csr.expand_vertices(frontiers[depth - 1])
            tree = levels[dsts] == depth
            if not np.any(tree):
                continue
            v = srcs[tree]
            w = dsts[tree]
            credit = sigma[v] / sigma[w] * (1.0 + delta[w])
            np.add.at(delta, v, credit)
        mask = np.ones(n, dtype=bool)
        mask[s] = False
        centrality[mask] += delta[mask]

    if not graph.properties.directed:
        centrality /= 2.0
    if normalize and n > 2:
        scale = (
            1.0 / ((n - 1) * (n - 2))
            if graph.properties.directed
            else 2.0 / ((n - 1) * (n - 2))
        )
        centrality *= scale
        if sources is not None and len(roots) < n and len(roots) > 0:
            centrality *= n / len(roots)
    result.stats.converged = True
    return result
