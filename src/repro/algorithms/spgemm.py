"""SpGEMM — sparse matrix-matrix multiply over the native-graph API.

The `spgemm` entry of the essentials suite and the second face of the
graph/matrix duality (§IV-A): ``C = A·B`` where A and B are graphs'
weighted adjacencies.  Squaring an adjacency counts 2-hop paths, the
building block of friend-of-friend queries and of triangle counting by
trace.

The kernel is row-wise expansion (Gustavson's algorithm) vectorized a
row-block at a time: expand each of A's rows into its B-row
contributions with one bulk gather, then collapse duplicates with a
sorted segmented reduction.  Memory stays bounded by the block's
intermediate product size.

``backend="linalg"`` hands the product to scipy's C SpGEMM instead — a
second, independent implementation that the conformance matrix checks
this one against.  Without scipy it resolves to the native kernel.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.coo import COOMatrix
from repro.graph.csr import CSRMatrix
from repro.graph.graph import Graph
from repro.execution.policy import ExecutionPolicy, par_vector, resolve_policy
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE
from repro.operators.fused import segmented_sum
from repro.operators.sum_aggregate import graph_aggregate


def spgemm(
    a: Graph,
    b: Graph,
    *,
    policy: Union[str, ExecutionPolicy] = par_vector,
    row_block: int = 2048,
    backend: str = "native",
) -> Graph:
    """Multiply two graphs' weighted adjacency matrices; return the
    product as a new graph.

    Requires ``a.n_vertices == b.n_vertices`` (square, same id space).
    The result's edge (i, j) has weight ``Σ_k A[i,k]·B[k,j]``; zero
    products are kept out structurally (only realized pairs appear).
    """
    from repro.execution.backend import resolve_backend

    resolve_policy(policy)
    if a.n_vertices != b.n_vertices:
        raise GraphFormatError(
            f"operand vertex counts differ: {a.n_vertices} vs {b.n_vertices}"
        )
    n = a.n_vertices
    sp_a = (
        graph_aggregate(a).matrix()
        if resolve_backend(backend, "spgemm") == "linalg"
        else None
    )
    if sp_a is not None:
        c = (sp_a @ graph_aggregate(b).matrix()).tocoo()
        # A cancellation can leave stored zeros; drop them structurally.
        keep = c.data != 0
        rows = c.row[keep].astype(VERTEX_DTYPE)
        cols = c.col[keep].astype(VERTEX_DTYPE)
        vals = c.data[keep].astype(WEIGHT_DTYPE)
    else:
        rows, cols, vals = _gustavson(a.csr(), b.csr(), n, row_block)
    coo = COOMatrix(n, n, rows, cols, vals)
    ro, ci, v = coo.to_csr_arrays()
    return Graph(
        {"csr": CSRMatrix(n, n, ro, ci, v), "coo": coo},
        a.properties.with_(weighted=True),
    )


def _gustavson(a_csr: CSRMatrix, b_csr: CSRMatrix, n: int, row_block: int):
    """The native row-block product as ``(rows, cols, vals)`` COO arrays."""
    out_rows: list = []
    out_cols: list = []
    out_vals: list = []
    for start in range(0, n, row_block):
        stop = min(start + row_block, n)
        rows = np.arange(start, stop, dtype=VERTEX_DTYPE)
        # Expand A's rows: one (i, k, w_ik) triple per A-nonzero.
        i_src, k_mid, _, w_ik = a_csr.expand_vertices(rows)
        if k_mid.size == 0:
            continue
        # Expand each k into B's row k: the intermediate product.
        b_deg = b_csr.degrees_of(k_mid)
        total = int(b_deg.sum())
        if total == 0:
            continue
        i_rep = np.repeat(i_src, b_deg)
        w_rep = np.repeat(w_ik.astype(np.float64), b_deg)
        _, j_dst, _, w_kj = b_csr.expand_vertices(k_mid)
        # Note: expand_vertices on k_mid with duplicates repeats B rows in
        # the same order counts were computed, so arrays align.
        contrib = w_rep * w_kj.astype(np.float64)
        # Collapse duplicate (i, j) pairs.
        keys = i_rep.astype(np.int64) * n + j_dst.astype(np.int64)
        uniq, inverse = np.unique(keys, return_inverse=True)
        # `inverse` covers 0..len(uniq)-1 densely: bincount territory.
        summed = segmented_sum(inverse, contrib, uniq.shape[0])
        out_rows.append((uniq // n).astype(VERTEX_DTYPE))
        out_cols.append((uniq % n).astype(VERTEX_DTYPE))
        out_vals.append(summed.astype(WEIGHT_DTYPE))

    if not out_rows:
        return (
            np.empty(0, dtype=VERTEX_DTYPE),
            np.empty(0, dtype=VERTEX_DTYPE),
            np.empty(0, dtype=WEIGHT_DTYPE),
        )
    return (
        np.concatenate(out_rows),
        np.concatenate(out_cols),
        np.concatenate(out_vals),
    )


def count_two_hop_paths(graph: Graph, **kwargs) -> int:
    """Number of weighted 2-hop path endpoints: nnz-weighted sum of A²."""
    sq = spgemm(graph, graph, **kwargs)
    return int(round(float(sq.csr().values.sum())))
