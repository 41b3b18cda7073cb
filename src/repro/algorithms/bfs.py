"""Breadth-first search: push, pull, and direction-optimizing traversal.

BFS is the pillar-3 demonstrator (§III-C): the same algorithm written
against the CSR (push — expand out-edges of the frontier) or the CSC
(pull — every unvisited vertex scans its in-edges and stops at the
first visited parent), plus Beamer's direction-optimizing hybrid, the
default.  The hybrid switches on counted edges, as GAP does: ``m_f`` is
the frontier's out-degree sum and ``m_u`` the edges push has not yet
explored (``m``, less each push superstep's ``m_f``).  It pulls once the
frontier is growing and ``m_f · ALPHA > m_u``, and pushes again once
``|f| · BETA < n``.  Each superstep books as its work the edges its
kernel scanned: ``m_f`` on push, the early-exit count on pull.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.enactor import Enactor
from repro.operators.advance import neighbors_expand
from repro.operators.fused import DEFAULT_ALPHA as ALPHA, DEFAULT_BETA as BETA
from repro.operators.fused import claim_levels_condition, fused_kernel_of
from repro.operators.uniquify import uniquify
from repro.execution.policy import (
    ExecutionPolicy,
    VectorPolicy,
    par_vector,
    resolve_policy,
)
from repro.types import INVALID_VERTEX, VERTEX_DTYPE
from repro.utils.counters import RunStats
from repro.utils.validation import check_vertex_in_range

#: Level value for unreached vertices.
UNREACHED = -1


@dataclass
class BFSResult:
    """Levels (hop distances, ``-1`` unreached), parents, accounting."""

    levels: np.ndarray
    parents: np.ndarray
    source: int
    stats: RunStats = field(default_factory=RunStats)
    #: Per-iteration direction choices made by the direction-optimized
    #: variant ("push"/"pull"); empty for the fixed-direction variants.
    directions: list = field(default_factory=list)

    def reached(self) -> np.ndarray:
        """Boolean mask of vertices with a BFS level (visited)."""
        return self.levels >= 0


def bfs(
    graph: Graph,
    source: int,
    *,
    policy: Union[str, ExecutionPolicy] = par_vector,
    direction: str = "auto",
    resilience=None,
    backend: str = "native",
) -> BFSResult:
    """BFS from ``source``.

    Parameters
    ----------
    direction:
        ``"push"`` — expand the frontier's out-edges (CSR);
        ``"pull"`` — unvisited vertices scan in-edges for a visited
        parent (CSC), each stopping at the first;
        ``"auto"`` — direction-optimizing (module docstring).
    resilience:
        Optional :class:`~repro.resilience.ResiliencePolicy` — superstep
        retry under chaos plus checkpointing of levels and parents.
    backend:
        Validated and recorded; BFS has no matrix driver, so
        ``"linalg"`` runs native with a ``backend:fallback`` event.
    """
    from repro.execution.backend import resolve_backend

    resolve_backend(backend, "bfs")
    policy = resolve_policy(policy)
    if direction not in ("push", "pull", "auto"):
        raise ValueError(
            f"direction must be 'push', 'pull', or 'auto', got {direction!r}"
        )
    n = graph.n_vertices
    source = check_vertex_in_range(source, n)
    levels = np.full(n, UNREACHED, dtype=np.int64)
    parents = np.full(n, INVALID_VERTEX, dtype=VERTEX_DTYPE)
    levels[source] = 0
    parents[source] = source
    result = BFSResult(levels=levels, parents=parents, source=source)

    if direction == "pull":
        graph.csc()  # materialize the transposed view up front

    # Claim destinations not yet visited: push keeps the last of several
    # discovering parents, pull the first visited in-neighbour; any is a
    # valid BFS parent.  The factory's condition carries a fused claim
    # kernel, so the vectorized policy runs discovery as one pass; every
    # other policy calls the condition exactly as before.
    discover = claim_levels_condition(levels, parents, unreached=UNREACHED)

    enactor = Enactor(graph)
    ws = enactor.workspace
    degrees = graph.out_degrees()

    # The fused claim kernel (vectorized policy) and every pull overload
    # emit deduplicated frontiers already; only the unfused push paths
    # may surface one child per discovering parent.
    kernel = (
        fused_kernel_of(discover) if isinstance(policy, VectorPolicy) else None
    )

    def pull_step(frontier, state):
        candidates = np.nonzero(levels == UNREACHED)[0].astype(VERTEX_DTYPE)
        out = neighbors_expand(
            policy, graph, frontier, discover, direction="pull",
            candidates=candidates, workspace=ws,
        )
        # The generic pull reads every candidate's in-edges.
        state.edges_scanned = kernel.scanned if kernel is not None else int(
            np.add.reduce(graph.in_degrees().take(candidates))
        )
        return out

    if direction == "pull":
        step = pull_step
    else:
        auto = direction == "auto"
        unexplored = graph.n_edges  # m_u
        last_size = 0
        pulling = False

        def step(frontier, state):
            nonlocal unexplored, last_size, pulling
            active = (
                frontier.indices_view()
                if isinstance(frontier, SparseFrontier)
                else frontier.to_indices()
            )
            m_f = int(np.add.reduce(degrees.take(active)))
            if auto:
                size = active.size
                if pulling:
                    pulling = size * BETA >= n
                else:
                    pulling = size > last_size and m_f * ALPHA > unexplored
                last_size = size
                result.directions.append("pull" if pulling else "push")
                if pulling:
                    return pull_step(frontier, state)
                unexplored -= m_f
            state.edges_scanned = m_f
            out = neighbors_expand(policy, graph, frontier, discover, workspace=ws)
            if kernel is not None:
                return out
            return uniquify(policy, out, workspace=ws)

    frontier = SparseFrontier.from_indices([source], n)
    result.stats = enactor.run(
        frontier,
        step,
        resilience=resilience,
        state_arrays={"levels": levels, "parents": parents},
    )
    return result


def bfs_levels_by_superstep(result: BFSResult) -> dict:
    """Map level -> vertex count, the frontier 'bell curve' profile."""
    reached = result.levels[result.levels >= 0]
    uniq, counts = np.unique(reached, return_counts=True)
    return {int(l): int(c) for l, c in zip(uniq, counts)}
