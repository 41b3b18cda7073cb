"""Label-propagation community detection (asynchronous LPA).

Raghavan et al.'s algorithm expressed through the abstraction: every
vertex repeatedly adopts the most frequent label among its neighbors;
communities are the fixed-point label groups.  The frontier is the set
of vertices that changed label last round (their neighbors are the only
candidates to change next), making LPA another frontier-convergent
loop — and, because plain LPA can oscillate under synchronous updates,
a natural showcase for why the *asynchronous-within-superstep* update
order matters (TLAV's timing discussion): we sweep vertices in a seeded
random order within each round, the standard stabilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.convergence import EmptyFrontier, MaxIterations
from repro.loop.enactor import Enactor
from repro.utils.counters import RunStats
from repro.utils.rng import SeedLike, resolve_rng


@dataclass
class CommunityResult:
    """Community labels (compacted to 0..k-1), counts, accounting."""

    labels: np.ndarray
    n_communities: int
    rounds: int
    stats: RunStats = field(default_factory=RunStats)

    def community_sizes(self) -> np.ndarray:
        """Vertex count per community, indexed by compact label."""
        return np.bincount(self.labels, minlength=self.n_communities)


def label_propagation_communities(
    graph: Graph,
    *,
    max_rounds: int = 100,
    seed: SeedLike = 0,
) -> CommunityResult:
    """Asynchronous LPA on an undirected graph.

    Deterministic given ``seed`` (sweep order and tie-breaking are both
    seeded).  Ties between equally frequent neighbor labels keep the
    current label when it is among the winners, else pick the smallest —
    the common convention that guarantees termination.  One superstep
    is one sweep over the frontier; the loop stops when a sweep changes
    nothing or after ``max_rounds``.
    """
    rng = resolve_rng(seed)
    n = graph.n_vertices
    csr = graph.csr()
    labels = np.arange(n, dtype=np.int64)

    def step(frontier, state):
        changed: list = []
        for v in rng.permutation(frontier.indices_view()):
            v = int(v)
            nbrs = csr.get_neighbors(v)
            if nbrs.shape[0] == 0:
                continue
            nbr_labels = labels[nbrs]
            uniq, counts = np.unique(nbr_labels, return_counts=True)
            best = counts.max()
            winners = uniq[counts == best]
            if labels[v] in winners:
                continue
            new_label = int(winners.min())
            labels[v] = new_label
            changed.append(v)
        # Next round's candidates: the changed vertices' neighborhoods.
        active = np.zeros(n, dtype=bool)
        if changed:
            changed_arr = np.asarray(changed, dtype=np.int32)
            active[changed_arr] = True
            _, dsts, _, _ = csr.expand_vertices(changed_arr)
            active[dsts] = True
        return SparseFrontier.from_indices(np.nonzero(active)[0], n)

    enactor = Enactor(
        graph, convergence=EmptyFrontier() | MaxIterations(max_rounds)
    )
    stats = enactor.run(SparseFrontier.from_indices(np.arange(n), n), step)
    # Compact labels to 0..k-1.
    uniq, compact = np.unique(labels, return_inverse=True)
    return CommunityResult(
        labels=compact.astype(np.int64),
        n_communities=int(uniq.shape[0]),
        rounds=stats.num_iterations,
        stats=stats,
    )


def modularity(graph: Graph, labels: np.ndarray) -> float:
    """Newman modularity Q of a labeling on an undirected graph.

    ``Q = (1/2m) Σ_ij [A_ij - k_i·k_j / 2m] δ(c_i, c_j)`` — the standard
    community-quality score the LPA tests threshold.
    """
    coo = graph.coo()
    two_m = float(coo.get_num_edges())  # both arcs stored = 2m
    if two_m == 0:
        return 0.0
    labels = np.asarray(labels)
    same = labels[coo.rows] == labels[coo.cols]
    intra = float(np.count_nonzero(same)) / two_m
    degrees = graph.out_degrees().astype(np.float64)
    # Σ_c (Σ_{i in c} k_i / 2m)^2
    per_community = np.bincount(labels, weights=degrees) / two_m
    expected = float(np.sum(per_community**2))
    return intra - expected
