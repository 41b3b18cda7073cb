"""Triangle counting via the segmented-intersection operator.

The edge-centric showcase (§III-C): the active set is the *edge*
frontier, and the work per element is the sorted-neighborhood
intersection |N(u) ∩ N(v)|.  To count each triangle once we orient the
(undirected) graph by degree — keep only edges from lower-rank to
higher-rank endpoints — and intersect oriented neighborhoods: the
standard forward counting scheme that also slashes the intersection
sizes on skewed graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.frontier.sparse import SparseFrontier
from repro.graph.builder import from_edge_array
from repro.graph.graph import Graph
from repro.loop.convergence import MaxIterations
from repro.loop.enactor import Enactor
from repro.operators.intersection import segmented_intersection_counts
from repro.execution.policy import ExecutionPolicy, par, resolve_policy
from repro.utils.counters import RunStats


@dataclass
class TCResult:
    """Total triangles, per-edge counts over the oriented edge list."""

    total: int
    per_edge: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    stats: RunStats = field(default_factory=RunStats)


def _orient_by_degree(graph: Graph) -> Graph:
    """Keep edges (u, v) with rank(u) < rank(v), rank = (degree, id).

    The result is a DAG whose out-neighborhoods are small for hubs, and
    every triangle of the input appears as exactly one directed wedge
    closure.
    """
    coo = graph.coo()
    degrees = graph.out_degrees()
    du, dv = degrees[coo.rows], degrees[coo.cols]
    forward = (du < dv) | ((du == dv) & (coo.rows < coo.cols))
    oriented = from_edge_array(
        coo.rows[forward],
        coo.cols[forward],
        coo.vals[forward],
        n_vertices=graph.n_vertices,
        directed=True,
    )
    return oriented.with_sorted_neighbors()


def triangle_count(
    graph: Graph,
    *,
    policy: Union[str, ExecutionPolicy] = par,
) -> TCResult:
    """Count triangles in an undirected graph.

    Directed inputs are treated as their underlying undirected graph
    (each arc contributes the edge).  Self-loops never form triangles
    and are ignored via the orientation step.
    """
    policy = resolve_policy(policy)
    if graph.properties.directed:
        # Symmetrize so both endpoints see the edge, then orient.
        coo = graph.coo()
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
        und = graph
    oriented = _orient_by_degree(und)
    ocoo = oriented.coo()
    m = ocoo.rows.shape[0]
    counts = {}

    def step(frontier, state):
        counts["per_edge"] = segmented_intersection_counts(
            policy, oriented, ocoo.rows, ocoo.cols
        )
        # One intersection per oriented edge reads both neighbor lists.
        degrees = oriented.out_degrees()
        state.edges_scanned = int(
            degrees.take(ocoo.rows).sum() + degrees.take(ocoo.cols).sum()
        )
        return frontier

    # The whole edge frontier in one superstep.
    stats = Enactor(oriented, convergence=MaxIterations(1)).run(
        SparseFrontier.from_indices(np.arange(m), m), step
    )
    per_edge = counts["per_edge"]
    return TCResult(
        total=int(per_edge.sum()),
        per_edge=per_edge,
        edge_u=ocoo.rows.copy(),
        edge_v=ocoo.cols.copy(),
        stats=stats,
    )


def clustering_coefficient(graph: Graph, *, policy=par) -> np.ndarray:
    """Local clustering coefficient per vertex, from triangle counts.

    ``c(v) = 2·T(v) / (deg(v)·(deg(v)-1))`` with T(v) the triangles
    through v; vertices of degree < 2 get 0.
    """
    result = triangle_count(graph, policy=policy)
    n = graph.n_vertices
    tri_per_vertex = np.zeros(n, dtype=np.float64)
    # Each counted triangle (u, v, w) with oriented edges u->v, u->w, v->w
    # touches all three vertices; attribute per-edge counts to both
    # endpoints, and the third vertex is found by re-intersection — cheaper:
    # each triangle is counted once per oriented edge (u,v) for each common
    # neighbor w, so incrementing u, v and w by per-edge contributions
    # needs the member lists.  We recompute memberships directly.
    csr = graph.csr() if not graph.properties.directed else None
    if csr is None:
        und_counts = result
        # Directed input: fall back via symmetrized graph handled inside
        # triangle_count; recompute degrees on the undirected structure.
        raise NotImplementedError(
            "clustering_coefficient supports undirected graphs"
        )
    oriented = _orient_by_degree(graph)
    ocsr = oriented.csr()
    for u, v in zip(result.edge_u, result.edge_v):
        a = ocsr.get_neighbors(int(u))
        b = ocsr.get_neighbors(int(v))
        common = np.intersect1d(a, b, assume_unique=False)
        for w in common:
            tri_per_vertex[int(u)] += 1
            tri_per_vertex[int(v)] += 1
            tri_per_vertex[int(w)] += 1
    deg = graph.out_degrees().astype(np.float64)
    denom = deg * (deg - 1.0)
    out = np.zeros(n, dtype=np.float64)
    ok = denom > 0
    out[ok] = 2.0 * tri_per_vertex[ok] / denom[ok]
    return out
