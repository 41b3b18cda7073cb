"""k-core decomposition by iterative peeling with the filter operator.

The core number of a vertex is the largest k such that it belongs to a
subgraph where every vertex has degree ≥ k.  Peeling is frontier-shaped:
for k = 1, 2, ... repeatedly *filter* the surviving vertices for degree
< k, assign them core number k-1, remove them (decrementing neighbor
degrees via an advance), and iterate until the removal frontier empties
— two essential operators on the one convergent loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.enactor import Enactor
from repro.utils.counters import RunStats


@dataclass
class KCoreResult:
    """Core number per vertex and the maximum core (degeneracy)."""

    core_numbers: np.ndarray
    max_core: int
    stats: RunStats = field(default_factory=RunStats)

    def core_subgraph_vertices(self, k: int) -> np.ndarray:
        """Vertices whose core number is at least ``k``."""
        return np.nonzero(self.core_numbers >= k)[0]


def kcore_decomposition(graph: Graph) -> KCoreResult:
    """Peel the graph into cores; undirected semantics (out-degrees on a
    symmetrized structure).

    One superstep is one peel round: its frontier is every surviving
    vertex below the current threshold k, removed at once, their edge
    contributions subtracted with a scatter-add.  When no survivor is
    below k, k jumps past the smallest surviving degree — the levels in
    between would peel nothing.
    """
    n = graph.n_vertices
    csr = graph.csr()
    degrees = csr.degrees().astype(np.int64).copy()
    alive = np.ones(n, dtype=bool)
    core = np.zeros(n, dtype=np.int64)
    k = 0  # peel below k; the survivors of k have core number >= k

    def victims() -> SparseFrontier:
        nonlocal k
        below = np.flatnonzero(alive & (degrees < k))
        if below.size == 0 and alive.any():
            k = int(degrees[alive].min()) + 1
            below = np.flatnonzero(alive & (degrees < k))
        return SparseFrontier.from_indices(below, n)

    def step(frontier, state):
        peeled = frontier.indices_view()
        core[peeled] = k - 1
        alive[peeled] = False
        _, dsts, _, _ = csr.expand_vertices(peeled)
        np.subtract.at(degrees, dsts[alive[dsts]], 1)
        return victims()

    stats = Enactor(graph).run(victims(), step)
    return KCoreResult(
        core_numbers=core, max_core=int(core.max(initial=0)), stats=stats
    )
