"""Borůvka minimum spanning forest — bulk-parallel component merging.

Each round (superstep) every component selects its minimum-weight
outgoing edge — a vectorized segmented arg-min over the edge list —
those edges join the forest, and the touched components merge by
pointer-jumping.  Rounds halve the component count, so the loop
converges in O(log V) supersteps: a textbook showcase of the BSP loop
over a *component* frontier rather than a vertex frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.algorithms.cc import merge_components
from repro.errors import GraphFormatError
from repro.graph.graph import Graph
from repro.execution.policy import ExecutionPolicy, par_vector, resolve_policy
from repro.utils.counters import IterationStats, RunStats


@dataclass
class MSTResult:
    """Selected edges (as COO triples), total weight, component labels."""

    edge_sources: np.ndarray
    edge_destinations: np.ndarray
    edge_weights: np.ndarray
    total_weight: float
    labels: np.ndarray
    n_components: int
    stats: RunStats = field(default_factory=RunStats)

    @property
    def n_edges(self) -> int:
        return int(self.edge_sources.shape[0])


def boruvka_mst(
    graph: Graph,
    *,
    policy: Union[str, ExecutionPolicy] = par_vector,
) -> MSTResult:
    """Minimum spanning forest of an undirected weighted graph.

    Requires an undirected graph (both arcs stored); ties between equal
    weights are broken by edge index, which keeps every round's choice
    deterministic and cycle-free.
    """
    resolve_policy(policy)
    if graph.properties.directed:
        raise GraphFormatError("boruvka_mst requires an undirected graph")
    n = graph.n_vertices
    coo = graph.coo()
    rows = coo.rows.astype(np.int64)
    cols = coo.cols.astype(np.int64)
    weights = coo.vals.astype(np.float64)
    m = rows.shape[0]

    labels = np.arange(n, dtype=np.int64)
    # Canonical per-undirected-edge key: both arcs of one edge share it.
    # Tie-breaking on this key (not the arc index) gives every component a
    # consistent total order over edges, which is what excludes cycles in
    # the picked set when weights tie.
    pair_key = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    picked_u: list = []
    picked_v: list = []
    picked_w: list = []
    stats = RunStats()
    import time as _time

    iteration = 0
    while True:
        t0 = _time.perf_counter()
        cu = labels[rows]
        cv = labels[cols]
        cross = cu != cv
        if not np.any(cross):
            break
        # Segmented arg-min: per component, its lightest outgoing edge.
        # Order candidates by (component, weight, canonical pair key); the
        # first row per component wins.
        cand = np.nonzero(cross)[0]
        order = np.lexsort((pair_key[cand], weights[cand], cu[cand]))
        sorted_comp = cu[cand][order]
        first = np.empty(sorted_comp.shape[0], dtype=bool)
        first[0] = True
        first[1:] = sorted_comp[1:] != sorted_comp[:-1]
        winners = cand[order][first]

        # Record each undirected edge once (smaller endpoint first); both
        # arcs may win for their own components, so dedup by pair key.
        u = np.minimum(rows[winners], cols[winners])
        v = np.maximum(rows[winners], cols[winners])
        keys = u * n + v
        _, keep = np.unique(keys, return_index=True)
        picked_u.append(u[keep])
        picked_v.append(v[keep])
        picked_w.append(weights[winners][keep])

        # Merge along every winner: hook and pointer-jump to stars.
        merge_components(labels, rows[winners], cols[winners])
        stats.record(
            IterationStats(
                iteration=iteration,
                frontier_size=int(winners.shape[0]),
                edges_touched=m,
                seconds=_time.perf_counter() - t0,
            )
        )
        iteration += 1
    stats.converged = True

    if picked_u:
        eu = np.concatenate(picked_u)
        ev = np.concatenate(picked_v)
        ew = np.concatenate(picked_w)
        # Rounds may re-pick a pair already merged through another path in
        # an earlier round; final dedup by pair keeps the forest exact.
        keys = eu * n + ev
        _, keep = np.unique(keys, return_index=True)
        eu, ev, ew = eu[keep], ev[keep], ew[keep]
    else:
        eu = np.empty(0, dtype=np.int64)
        ev = np.empty(0, dtype=np.int64)
        ew = np.empty(0, dtype=np.float64)
    n_components = int(np.unique(labels).shape[0])
    return MSTResult(
        edge_sources=eu,
        edge_destinations=ev,
        edge_weights=ew,
        total_weight=float(ew.sum()),
        labels=labels,
        n_components=n_components,
        stats=stats,
    )
