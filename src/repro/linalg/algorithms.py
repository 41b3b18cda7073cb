"""Algorithms as linear-algebra iterations.

Each driver here reproduces one native-graph algorithm as a loop of
masked SpMV / SpMSpV products (§IV-A: "the duality of graphs and sparse
matrices"), returning the *same result type* as the native entry point
so callers, oracles, and the CLI cannot tell the backends apart — which
is exactly what the conformance matrix then proves mechanically:

====================  =========================  =======================
algorithm             semiring                   kernel shape
====================  =========================  =======================
bfs                   (or, and)                  push SpMSpV / pull
                                                 masked SpMV, visited
                                                 complement mask
sssp                  (min, +)                   push SpMSpV over the
                                                 improved frontier
cc                    (min, select)              SpMSpV label push over
                                                 both orientations
spgemm                (+, ×)                     A·B (scipy or COO
                                                 expand/collapse)
====================  =========================  =======================

The dense ``(+, ×)`` algorithms — pagerank, ppr, hits, spmv — have no
driver here: their native loops *are* the matrix iteration, running on
the one sum-aggregate kernel (:mod:`repro.operators.sum_aggregate`) that
:func:`repro.linalg.kernels.spmv` also hands unmasked ``PLUS_TIMES``
products to.  ``backend="linalg"`` on those entry points is accepted and
recorded, and runs the same code.

The drivers reuse the native direction optimizer's thresholds: push
(SpMSpV) while the frontier is small, pull (masked SpMV) when it covers
more than ``pull_threshold`` of the graph — the Beamer heuristic
re-expressed as a choice between matrix kernels.

Execution is bulk by construction (one NumPy/scipy product per
superstep), so the execution-policy axis is accepted for interface
parity but does not change the schedule — the conformance matrix
crosses ``backend="linalg"`` against the default policy instead.
"""

from __future__ import annotations

import time as _time
from typing import Optional

import numpy as np

from repro.algorithms.bfs import BFSResult, UNREACHED
from repro.algorithms.cc import CCResult
from repro.algorithms.sssp import SSSPResult
from repro.graph.graph import Graph
from repro.linalg.kernels import scipy_adjacency, spmspv, spmv
from repro.linalg.semiring import MIN_PLUS, OR_AND, Semiring
from repro.types import INF, INVALID_VERTEX, VALUE_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE
from repro.utils.counters import IterationStats, RunStats
from repro.utils.validation import check_vertex_in_range

#: Label propagation's algebra: ⊕ = min, ⊗ = "carry the source value"
#: (edges are structural, their weights don't enter the label order).
MIN_SELECT = Semiring(
    name="min_select",
    add=np.minimum,
    multiply=lambda x, w: x,
    add_identity=np.inf,
)


def _record(stats: RunStats, i: int, frontier: int, edges: int, t0: float):
    stats.record(
        IterationStats(
            iteration=i,
            frontier_size=frontier,
            edges_touched=edges,
            seconds=_time.perf_counter() - t0,
        )
    )


# -- bfs ----------------------------------------------------------------------


def linalg_bfs(
    graph: Graph,
    source: int,
    *,
    direction: str = "push",
    pull_threshold: float = 0.05,
    push_back_threshold: float = 0.01,
) -> BFSResult:
    """BFS as boolean matrix products over the (or, and) semiring.

    Push supersteps are SpMSpV over the frontier with the visited set as
    a structural-complement output mask; pull supersteps are a masked
    SpMV over the CSC restricted to unvisited rows.  ``"auto"`` switches
    between them on the frontier's active fraction, same thresholds as
    the native direction optimizer.
    """
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
    visited = np.zeros(n, dtype=bool)
    visited[source] = True
    frontier = np.asarray([source], dtype=np.int64)
    out_deg = graph.out_degrees()
    indicator = np.zeros(n, dtype=bool)
    level = 0
    stats = RunStats()
    last_pull = False
    while frontier.shape[0]:
        t0 = _time.perf_counter()
        level += 1
        if direction == "auto":
            frac = frontier.shape[0] / max(n, 1)
            use_pull = frac >= pull_threshold or (
                last_pull and frac > push_back_threshold
            )
            result.directions.append("pull" if use_pull else "push")
        else:
            use_pull = direction == "pull"
        last_pull = use_pull
        if use_pull:
            # Pull: every unvisited vertex asks "does any in-neighbor
            # hold the frontier bit?" — masked SpMV over the CSC with
            # the visited set's structural complement.
            indicator[:] = False
            indicator[frontier] = True
            y = spmv(
                graph,
                indicator,
                semiring=OR_AND,
                transpose=True,
                mask=visited,
                complement=True,
            )
            discovered = np.nonzero(y)[0]
            edges = int(np.count_nonzero(~visited))  # rows scanned
        else:
            # Push: SpMSpV over the frontier, visited-complement mask.
            _, discovered = spmspv(
                graph,
                frontier,
                np.ones(n, dtype=bool),
                semiring=OR_AND,
                mask=visited,
                complement=True,
            )
            edges = int(out_deg[frontier].sum())
        levels[discovered] = level
        visited[discovered] = True
        _record(stats, level - 1, int(frontier.shape[0]), edges, t0)
        frontier = discovered
    stats.converged = True
    result.stats = stats
    _fill_parents(graph, levels, parents)
    return result


def _fill_parents(
    graph: Graph, levels: np.ndarray, parents: np.ndarray
) -> None:
    """Assign each reached vertex an in-neighbor one level closer.

    The boolean products discard which source set each bit; parents are
    recovered in one CSC pass at the end — any in-neighbor at
    ``level - 1`` is a valid BFS parent (same benign-race contract as
    the native push claim).
    """
    csc = graph.csc()
    reached = np.nonzero(levels > 0)[0]
    if reached.shape[0] == 0:
        return
    starts = csc.col_offsets[reached]
    lengths = (csc.col_offsets[reached + 1] - starts).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        return
    flat = np.repeat(starts, lengths) + (
        np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    )
    srcs = csc.row_indices[flat].astype(np.int64)
    dsts = np.repeat(reached, lengths)
    good = levels[srcs] == levels[dsts] - 1
    # First qualifying in-edge per destination wins (np.unique keeps
    # the first occurrence index of each sorted key).
    uniq, first = np.unique(dsts[good], return_index=True)
    parents[uniq] = srcs[np.nonzero(good)[0][first]].astype(VERTEX_DTYPE)


# -- sssp ---------------------------------------------------------------------


def linalg_sssp(
    graph: Graph,
    source: int,
    *,
    direction: str = "push",
    pull_threshold: float = 0.05,
    max_iterations: Optional[int] = None,
) -> SSSPResult:
    """Label-correcting SSSP as (min, +) matrix products.

    Push supersteps relax the improved frontier's out-edges via SpMSpV;
    pull supersteps recompute every vertex's best in-edge bound via the
    transposed SpMV (converging to the same fixed point, Listing 4's
    invariant).  The next frontier is exactly the vertices whose
    distance dropped.
    """
    if direction not in ("push", "pull", "auto"):
        raise ValueError(
            f"direction must be 'push', 'pull', or 'auto', got {direction!r}"
        )
    n = graph.n_vertices
    source = check_vertex_in_range(source, n)
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    frontier = np.asarray([source], dtype=np.int64)
    out_deg = graph.out_degrees()
    cap = max_iterations if max_iterations is not None else 4 * max(n, 1) + 8
    stats = RunStats()
    i = 0
    while frontier.shape[0] and i < cap:
        t0 = _time.perf_counter()
        use_pull = direction == "pull" or (
            direction == "auto"
            and frontier.shape[0] / max(n, 1) >= pull_threshold
        )
        if use_pull:
            candidate = spmv(
                graph, dist, semiring=MIN_PLUS, transpose=True
            )
            improved = np.nonzero(candidate < dist)[0]
            edges = graph.n_edges
        else:
            candidate, touched = spmspv(
                graph, frontier, dist, semiring=MIN_PLUS
            )
            improved = touched[candidate[touched] < dist[touched]]
            edges = int(out_deg[frontier].sum())
        dist[improved] = candidate[improved]
        _record(stats, i, int(frontier.shape[0]), edges, t0)
        frontier = improved
        i += 1
    stats.converged = frontier.shape[0] == 0
    distances = np.where(np.isinf(dist), np.float64(INF), dist).astype(
        VALUE_DTYPE
    )
    return SSSPResult(distances=distances, source=source, stats=stats)


# -- cc -----------------------------------------------------------------------


def linalg_cc(graph: Graph) -> CCResult:
    """Weakly connected components as (min, select) label products.

    Every changed vertex pushes its label along out-edges, and (for
    directed graphs) along in-edges of the reversed adjacency, until
    the min-label fixed point — the same convergence as native label
    propagation, as matrix products.
    """
    n = graph.n_vertices
    labels = np.arange(n, dtype=np.float64)
    reverse = (
        graph.derived("linalg.reverse", graph.reverse)
        if graph.properties.directed
        else None
    )
    frontier = np.arange(n, dtype=np.int64)
    stats = RunStats()
    i = 0
    while frontier.shape[0]:
        t0 = _time.perf_counter()
        candidate, touched = spmspv(
            graph, frontier, labels, semiring=MIN_SELECT
        )
        if reverse is not None:
            cand_r, touched_r = spmspv(
                reverse, frontier, labels, semiring=MIN_SELECT
            )
            np.minimum(candidate, cand_r, out=candidate)
            touched = np.union1d(touched, touched_r)
        improved = touched[candidate[touched] < labels[touched]]
        labels[improved] = candidate[improved]
        _record(stats, i, int(frontier.shape[0]), int(touched.shape[0]), t0)
        frontier = improved
        i += 1
    stats.converged = True
    return CCResult.from_labels(labels.astype(np.int64), stats)


# -- spgemm ------------------------------------------------------------------


def linalg_spgemm(a: Graph, b: Graph) -> Graph:
    """``C = A·B`` over (+, ×); the product comes back as a graph.

    scipy's C SpGEMM when available; otherwise a COO expand/collapse
    (each A-nonzero (i,k,w) fans out over B's row k, duplicate (i,j)
    pairs fold by summation — Gustavson's algorithm written as array
    ops).  Structural zeros are kept out, same contract as native.
    """
    from repro.errors import GraphFormatError
    from repro.graph.coo import COOMatrix
    from repro.graph.csr import CSRMatrix

    if a.n_vertices != b.n_vertices:
        raise GraphFormatError(
            f"operand vertex counts differ: {a.n_vertices} vs {b.n_vertices}"
        )
    n = a.n_vertices
    probe_rows: np.ndarray
    sp_a = scipy_adjacency(a)
    if sp_a is not None:
        sp_b = scipy_adjacency(b)
        c = (sp_a @ sp_b).tocoo()
        # scipy keeps explicit zeros out of @-products already, but a
        # cancellation can leave stored zeros; drop them structurally.
        keep = c.data != 0
        rows = c.row[keep].astype(VERTEX_DTYPE)
        cols = c.col[keep].astype(VERTEX_DTYPE)
        vals = c.data[keep].astype(WEIGHT_DTYPE)
    else:
        a_coo = a.coo()
        b_csr = b.csr()
        # Fan each A-nonzero (i, k, w_ik) out over B's row k.
        k_mid = a_coo.cols.astype(np.int64)
        starts = b_csr.row_offsets[k_mid]
        lengths = (b_csr.row_offsets[k_mid + 1] - starts).astype(np.int64)
        total = int(lengths.sum())
        if total:
            flat = np.repeat(starts, lengths) + (
                np.arange(total)
                - np.repeat(np.cumsum(lengths) - lengths, lengths)
            )
            i_rep = np.repeat(a_coo.rows.astype(np.int64), lengths)
            w_rep = np.repeat(a_coo.vals.astype(np.float64), lengths)
            j_dst = b_csr.column_indices[flat].astype(np.int64)
            contrib = w_rep * b_csr.values[flat].astype(np.float64)
            keys = i_rep * n + j_dst
            uniq, inverse = np.unique(keys, return_inverse=True)
            summed = np.bincount(
                inverse, weights=contrib, minlength=uniq.shape[0]
            )
            rows = (uniq // n).astype(VERTEX_DTYPE)
            cols = (uniq % n).astype(VERTEX_DTYPE)
            vals = summed.astype(WEIGHT_DTYPE)
        else:
            rows = np.empty(0, dtype=VERTEX_DTYPE)
            cols = np.empty(0, dtype=VERTEX_DTYPE)
            vals = np.empty(0, dtype=WEIGHT_DTYPE)
    coo = COOMatrix(n, n, rows, cols, vals)
    ro, ci, v = coo.to_csr_arrays()
    return Graph(
        {"csr": CSRMatrix(n, n, ro, ci, v), "coo": coo},
        a.properties.with_(weighted=True),
    )
