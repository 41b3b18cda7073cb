"""Strongly connected components — parallel FW-BW-Trim.

The Fleischer–Hendrickson–Pinar algorithm, the standard parallel SCC
(weak connectivity's directed sibling): repeatedly

1. **Trim** trivial SCCs (vertices with zero in- or out-degree inside
   the remaining subgraph) — a filter fixed point;
2. pick a pivot and compute its **forward** reachable set (BFS on the
   CSR) and **backward** reachable set (BFS on the CSC) within the
   remaining vertices;
3. their intersection is one SCC; the three disjoint remainders
   (forward-only, backward-only, unreached) contain no SCC spanning
   them, so each recurses independently.

Both BFS directions reuse the push advance machinery over masked
vertex sets; the recursion is managed with an explicit worklist.
Validated against Tarjan (:func:`tarjan_scc`) and networkx.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.enactor import Enactor
from repro.utils.counters import RunStats


@dataclass
class SCCResult:
    """Component labels (smallest member id per SCC) and counts."""

    labels: np.ndarray
    n_components: int
    stats: RunStats = field(default_factory=RunStats)

    def component_sizes(self) -> np.ndarray:
        """Size of each SCC, over compacted component ids."""
        _, counts = np.unique(self.labels, return_counts=True)
        return counts


def _masked_reachable(
    offsets: np.ndarray,
    targets: np.ndarray,
    start: int,
    active: np.ndarray,
) -> np.ndarray:
    """Vertices reachable from ``start`` using only ``active`` vertices.

    Level-synchronous frontier sweep with the bulk multi-range gather
    (the same kernel as advance, specialized to a boolean visited set).
    """
    visited = np.zeros(active.shape[0], dtype=bool)
    visited[start] = True
    frontier = np.asarray([start], dtype=np.int64)
    while frontier.size:
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        cum = np.cumsum(counts)
        base = np.repeat(starts - (cum - counts), counts)
        positions = np.arange(total, dtype=np.int64) + base
        neighbors = targets[positions].astype(np.int64)
        fresh = active[neighbors] & ~visited[neighbors]
        frontier = np.unique(neighbors[fresh])
        visited[frontier] = True
    return visited


def strongly_connected_components(graph: Graph) -> SCCResult:
    """FW-BW-Trim SCC labeling of a directed graph."""
    n = graph.n_vertices
    csr = graph.csr()
    csc = graph.csc()
    fwd_offsets = csr.row_offsets.astype(np.int64)
    fwd_targets = csr.column_indices.astype(np.int64)
    bwd_offsets = csc.col_offsets.astype(np.int64)
    bwd_targets = csc.row_indices.astype(np.int64)

    labels = np.full(n, -1, dtype=np.int64)

    def step(frontier, state):
        """Solve one subproblem (the frontier); push its remainders."""
        worklist: List[np.ndarray] = state.context["worklist"]
        active = np.zeros(n, dtype=bool)
        active[frontier.indices_view()] = True

        # Trim: peel vertices with no in- or out-neighbor inside the
        # active set — each is a singleton SCC.
        while True:
            verts = np.nonzero(active)[0]
            if verts.size == 0:
                break
            has_out = np.zeros(n, dtype=bool)
            has_in = np.zeros(n, dtype=bool)
            for v in verts:
                v = int(v)
                outs = fwd_targets[fwd_offsets[v] : fwd_offsets[v + 1]]
                if np.any(active[outs] & (outs != v)):
                    has_out[v] = True
                ins = bwd_targets[bwd_offsets[v] : bwd_offsets[v + 1]]
                if np.any(active[ins] & (ins != v)):
                    has_in[v] = True
            trivial = verts[~(has_out[verts] & has_in[verts])]
            if trivial.size == 0:
                break
            labels[trivial] = trivial  # singleton SCCs
            active[trivial] = False
        remaining = np.nonzero(active)[0]
        if remaining.size:
            pivot = int(remaining[0])
            fwd = _masked_reachable(fwd_offsets, fwd_targets, pivot, active)
            bwd = _masked_reachable(bwd_offsets, bwd_targets, pivot, active)
            scc_mask = fwd & bwd & active
            members = np.nonzero(scc_mask)[0]
            labels[members] = int(members.min())
            for sub_mask in (
                fwd & ~scc_mask & active,
                bwd & ~scc_mask & active,
                active & ~fwd & ~bwd,
            ):
                sub = np.nonzero(sub_mask)[0]
                if sub.size:
                    worklist.append(sub)
        return SparseFrontier.from_indices(
            worklist.pop() if worklist else [], n
        )

    # The worklist of independent subproblems, solved last-in first-out;
    # the loop converges when it is empty.
    stats = Enactor(graph).run(
        SparseFrontier.from_indices(np.arange(n), n),
        step,
        context={"worklist": []},
    )
    n_components = int(np.unique(labels).shape[0]) if n else 0
    return SCCResult(labels=labels, n_components=n_components, stats=stats)


def tarjan_scc(graph: Graph) -> np.ndarray:
    """Iterative Tarjan SCC — the sequential textbook oracle.

    Returns labels canonicalized to the smallest member id, directly
    comparable to :func:`strongly_connected_components`.
    """
    n = graph.n_vertices
    csr = graph.csr()
    index = np.full(n, -1, dtype=np.int64)
    lowlink = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    comp = np.full(n, -1, dtype=np.int64)
    stack: List[int] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        # Iterative DFS: (vertex, next-edge-position) frames.
        frames = [(root, int(csr.row_offsets[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while frames:
            v, pos = frames[-1]
            if pos < int(csr.row_offsets[v + 1]):
                frames[-1] = (v, pos + 1)
                w = int(csr.column_indices[pos])
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    frames.append((w, int(csr.row_offsets[w])))
                elif on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        members.append(w)
                        if w == v:
                            break
                    label = min(members)
                    for w in members:
                        comp[w] = label
    return comp
