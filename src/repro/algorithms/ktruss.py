"""k-truss decomposition — edge-level cohesion by iterative peeling.

The edge-centric sibling of k-core: the k-truss is the maximal subgraph
whose every edge closes at least ``k - 2`` triangles.  The algorithm is
a peeling loop over an *edge* frontier (§III-C's edge-centric program
in earnest): compute per-edge triangle support with the segmented
intersection operator, repeatedly remove edges below threshold
(decrementing the support of the triangles they closed), then raise k —
the same two-operator shape as k-core, one level down the
vertex/edge hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Union

import numpy as np

from repro.frontier.sparse import SparseFrontier
from repro.graph.builder import from_edge_array
from repro.graph.graph import Graph
from repro.loop.enactor import Enactor
from repro.operators.intersection import segmented_intersection_counts
from repro.execution.policy import ExecutionPolicy, par, resolve_policy
from repro.utils.counters import RunStats


@dataclass
class KTrussResult:
    """Truss number per (oriented) edge and the maximum truss."""

    edge_u: np.ndarray
    edge_v: np.ndarray
    truss_numbers: np.ndarray
    max_truss: int
    stats: RunStats = field(default_factory=RunStats)

    def truss_subgraph_edges(self, k: int):
        """The (u, v) pairs whose truss number is at least ``k``."""
        keep = self.truss_numbers >= k
        return self.edge_u[keep], self.edge_v[keep]


def _oriented_with_adjacency(graph: Graph):
    """Degree-oriented simple graph + per-vertex sorted neighbor sets of
    the *undirected* simple graph (for triangle membership updates)."""
    coo = graph.coo()
    if graph.properties.directed:
        und = from_edge_array(
            np.concatenate([coo.rows, coo.cols]),
            np.concatenate([coo.cols, coo.rows]),
            None,
            n_vertices=graph.n_vertices,
            directed=True,
            deduplicate=True,
            remove_self_loops=True,
        )
    else:
        und = from_edge_array(
            coo.rows,
            coo.cols,
            None,
            n_vertices=graph.n_vertices,
            directed=True,
            deduplicate=True,
            remove_self_loops=True,
        )
    return und.with_sorted_neighbors()


def ktruss_decomposition(
    graph: Graph,
    *,
    policy: Union[str, ExecutionPolicy] = par,
) -> KTrussResult:
    """Peel the graph into trusses (undirected semantics).

    Truss numbers are reported per undirected edge (smaller endpoint
    first); an edge in no triangle has truss number 2, matching the
    standard convention where the k-truss requires support ≥ k-2.
    """
    policy = resolve_policy(policy)
    simple = _oriented_with_adjacency(graph)
    csr = simple.csr()
    n = simple.n_vertices
    # Undirected edge list, canonical orientation u < v.
    coo = simple.coo()
    fwd = coo.rows < coo.cols
    eu = coo.rows[fwd].astype(np.int64)
    ev = coo.cols[fwd].astype(np.int64)
    m = eu.shape[0]
    # Edge index lookup: pair key -> position.
    keys = eu * n + ev
    key_to_idx: Dict[int, int] = {int(k): i for i, k in enumerate(keys)}

    support = segmented_intersection_counts(
        policy, simple, eu.astype(np.int32), ev.astype(np.int32)
    ).astype(np.int64)
    alive = np.ones(m, dtype=bool)
    truss = np.full(m, 2, dtype=np.int64)
    degrees = simple.out_degrees()

    def common_neighbors(a: int, b: int) -> np.ndarray:
        return np.intersect1d(
            csr.get_neighbors(a), csr.get_neighbors(b), assume_unique=True
        )

    k = 2  # peel support below k - 2; survivors of k are in the k-truss

    def victims() -> SparseFrontier:
        nonlocal k
        below = np.flatnonzero(alive & (support < k - 2))
        if below.size == 0 and alive.any():
            k = int(support[alive].min()) + 3
            below = np.flatnonzero(alive & (support < k - 2))
        return SparseFrontier.from_indices(below, m)

    def step(frontier, state):
        peeled = frontier.indices_view()
        for e in peeled:
            e = int(e)
            alive[e] = False
            truss[e] = k - 1
            a, b = int(eu[e]), int(ev[e])
            # Decrement support of the other two edges of every
            # triangle this edge closed with still-alive partners.
            for w in common_neighbors(a, b):
                w = int(w)
                ea = key_to_idx.get(min(a, w) * n + max(a, w))
                eb = key_to_idx.get(min(b, w) * n + max(b, w))
                if ea is None or eb is None:
                    continue
                if alive[ea] and alive[eb]:
                    support[ea] -= 1
                    support[eb] -= 1
        # The frontier is edge ids: the arcs read are both endpoints'
        # neighbor lists per peeled edge.
        state.edges_scanned = int(
            degrees.take(eu.take(peeled)).sum()
            + degrees.take(ev.take(peeled)).sum()
        )
        return victims()

    stats = Enactor(simple).run(victims(), step)
    return KTrussResult(
        edge_u=eu,
        edge_v=ev,
        truss_numbers=truss,
        max_truss=int(truss.max(initial=2)) if m else 2,
        stats=stats,
    )
