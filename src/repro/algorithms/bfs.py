"""Breadth-first search: push, pull, and direction-optimized traversal.

BFS is the pillar-3 demonstrator (§III-C): the same algorithm written
against the CSR (push — expand out-edges of the frontier) or the CSC
(pull — every unvisited vertex scans in-edges for a visited parent),
plus the Beamer-style direction-optimizing hybrid that switches to pull
while the frontier is large and back to push when it shrinks — the
switch is driven by the frontier's ``active_fraction``, i.e. by exactly
the size heuristic the paper attaches to frontier representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.enactor import Enactor
from repro.operators.advance import neighbors_expand
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
    direction: str = "push",
    pull_threshold: float = 0.05,
    push_back_threshold: float = 0.01,
    resilience=None,
    backend: str = "native",
) -> BFSResult:
    """BFS from ``source``.

    Parameters
    ----------
    direction:
        ``"push"`` — expand the frontier's out-edges (CSR);
        ``"pull"`` — candidates scan in-edges for a visited parent (CSC);
        ``"auto"`` — direction-optimized: pull while the frontier holds
        more than ``pull_threshold`` of all vertices, push otherwise.
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

    # Claim destinations not yet visited.  Duplicate dsts within a batch
    # both pass (several parents discover one child); the level write is
    # idempotent and the parent write races benignly (any discovered
    # parent is a valid BFS parent).  The factory's condition carries a
    # fused claim kernel, so the vectorized policy runs discovery as one
    # pass; every other policy calls the condition exactly as before.
    discover = claim_levels_condition(levels, parents, unreached=UNREACHED)

    enactor = Enactor(graph)
    ws = enactor.workspace

    # The fused claim kernel (vectorized policy) and every pull overload
    # emit deduplicated frontiers already; only the unfused push paths
    # may surface one child per discovering parent.
    emits_sets = (
        isinstance(policy, VectorPolicy)
        and fused_kernel_of(discover) is not None
    )

    def push_step(frontier, state):
        out = neighbors_expand(policy, graph, frontier, discover, workspace=ws)
        return out if emits_sets else uniquify(policy, out, workspace=ws)

    def pull_step(frontier, state):
        candidates = np.nonzero(levels == UNREACHED)[0].astype(VERTEX_DTYPE)
        out = neighbors_expand(
            policy,
            graph,
            frontier,
            discover,
            direction="pull",
            candidates=candidates,
            workspace=ws,
        )
        return out if emits_sets else uniquify(policy, out, workspace=ws)

    if direction == "auto":

        def step(frontier, state):
            frac = frontier.active_fraction()
            use_pull = frac >= pull_threshold or (
                result.directions
                and result.directions[-1] == "pull"
                and frac > push_back_threshold
            )
            result.directions.append("pull" if use_pull else "push")
            return (pull_step if use_pull else push_step)(frontier, state)

    else:
        step = push_step if direction == "push" else pull_step

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
