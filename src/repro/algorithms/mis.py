"""Maximal independent set — Luby's randomized parallel algorithm.

Another filter-shaped frontier algorithm: each round, every undecided
vertex draws a random priority; local maxima among undecided neighbors
join the set, their neighbors are excluded, and the undecided frontier
shrinks — O(log n) rounds with high probability, which the tests check.
The structure is identical to Jones–Plassmann coloring's round (they
are the same independent-set engine; coloring just loops it per color),
so this module exposes the reusable single-shot form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.graph.builder import as_undirected_simple
from repro.loop.enactor import Enactor
from repro.utils.counters import RunStats
from repro.utils.rng import SeedLike, resolve_rng


@dataclass
class MISResult:
    """Membership mask, set size, round count."""

    in_set: np.ndarray
    size: int
    rounds: int
    stats: RunStats = field(default_factory=RunStats)

    def vertices(self) -> np.ndarray:
        """Ids of the selected vertices."""
        return np.nonzero(self.in_set)[0]


def maximal_independent_set(graph: Graph, *, seed: SeedLike = 0) -> MISResult:
    """Luby's MIS on an undirected graph (self-loops ignored).

    Returns a set that is independent (no edge inside — verified by
    tests) and maximal (every outside vertex has a neighbor inside).
    Deterministic given ``seed``.  One superstep is one Luby round over
    the undecided frontier.
    """
    rng = resolve_rng(seed)
    n = graph.n_vertices
    # Independence is a constraint on both endpoints of every edge, so a
    # directed input must be symmetrized — the CSR of the raw graph would
    # hide in-neighbors and let two adjacent vertices both win a round.
    undirected = as_undirected_simple(graph)
    csr = undirected.csr()
    in_set = np.zeros(n, dtype=bool)
    excluded = np.zeros(n, dtype=bool)

    def step(frontier, state):
        undecided = frontier.indices_view()
        # Fresh random priorities each round (Luby's resampling).
        priorities = rng.random(n)
        srcs, dsts, _, _ = csr.expand_vertices(undecided)
        live = ~(in_set[dsts] | excluded[dsts]) & (srcs != dsts)
        best_rival = np.zeros(n, dtype=np.float64)
        if np.any(live):
            np.maximum.at(best_rival, srcs[live], priorities[dsts[live]])
        winners = undecided[priorities[undecided] > best_rival[undecided]]
        if winners.size == 0:
            # Distinct priorities make this unreachable; guard regardless.
            raise RuntimeError("MIS made no progress")
        in_set[winners] = True
        # Exclude the winners' neighborhoods.
        _, wn, _, _ = csr.expand_vertices(winners)
        if wn.size:
            excluded[wn[~in_set[wn]]] = True
        return SparseFrontier.from_indices(
            undecided[~(in_set[undecided] | excluded[undecided])], n
        )

    stats = Enactor(undirected).run(
        SparseFrontier.from_indices(np.arange(n), n), step
    )
    return MISResult(
        in_set=in_set, size=int(in_set.sum()), rounds=stats.num_iterations,
        stats=stats,
    )


def verify_mis(graph: Graph, in_set: np.ndarray) -> bool:
    """Independence and maximality check (the MIS contract)."""
    coo = graph.coo()
    off = coo.rows != coo.cols
    rows, cols = coo.rows[off], coo.cols[off]
    # Independence: no edge with both endpoints in the set.
    if np.any(in_set[rows] & in_set[cols]):
        return False
    # Maximality: every outside vertex has an in-set neighbor.
    has_in_neighbor = np.zeros(graph.n_vertices, dtype=bool)
    touched = rows[in_set[cols]]
    has_in_neighbor[touched] = True
    touched = cols[in_set[rows]]
    has_in_neighbor[touched] = True
    outside = ~in_set
    # Isolated vertices must be in the set themselves.  "Isolated" means
    # no incident non-loop edge in either direction — out-degree alone
    # would miscount a directed sink as isolated.
    incident = np.zeros(graph.n_vertices, dtype=np.int64)
    np.add.at(incident, rows, 1)
    np.add.at(incident, cols, 1)
    isolated = incident == 0
    if np.any(outside & isolated):
        return False
    return bool(np.all(has_in_neighbor[outside & ~isolated]))
