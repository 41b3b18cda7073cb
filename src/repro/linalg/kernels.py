"""Masked SpMV / SpMSpV kernels — advance and reduce as matrix products.

The two kernels mirror the paper's push/pull duality exactly
(§III-C / §IV-A, and GraphBLAST's execution model):

* :func:`spmspv` — **push**: the frontier is a sparse vector; expand
  the out-edges (CSR rows) of its nonzeros, ⊗-combine each edge with
  the source's value, ⊕-scatter into destinations.  Work is
  O(edges out of the frontier), the frontier-driven regime.
* :func:`spmv` — **pull**: a dense product over the CSC (i.e.
  ``y = Aᵀ ⊗ x`` when ``transpose``), optionally restricted by a
  per-vertex *mask* — the still-unvisited set, with
  ``complement=True`` giving the structural-complement masking
  GraphBLAST uses for the visited set.  Work is O(edges into the
  masked rows), the bulk regime.

Both kernels are pure NumPy (segmented scatter-reduce over the offsets
arrays, the same pattern as :mod:`repro.operators.segmented`).  The
unmasked ``(+, ×)`` dense product is not implemented here at all: it *is*
the sum-aggregate every executor shares
(:mod:`repro.operators.sum_aggregate` — scipy's C matvec when
importable, ``np.bincount`` otherwise, bit-identical either way), and
:func:`spmv` hands it over.  The ``REPRO_NO_SCIPY`` environment variable
(or :func:`repro.linalg.force_numpy`) pins the pure-NumPy side, which CI exercises
with scipy uninstalled.

Kernel invocations are traced as ``linalg:spmv`` / ``linalg:spmspv``
spans, attributed to the operator layer by the analysis engine.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.observability.probe import active_probe
from repro.linalg.semiring import PLUS_TIMES, Semiring, resolve_semiring
from repro.operators.sum_aggregate import graph_aggregate, segment_ids


def scipy_adjacency(graph: Graph):
    """The graph's weighted adjacency as a cached ``scipy.sparse.csr_matrix``.

    ``A[u, v] = w`` for each stored edge, aliasing the CSR arrays
    (parallel edges stay separate entries; every scipy product sums
    them, which is what the ``(+, ×)`` kernels need).  Returns ``None``
    when scipy is gated off.  The same cached object the sum-aggregate
    kernel multiplies by.
    """
    return graph_aggregate(graph).matrix()


# -- the kernels --------------------------------------------------------------


def _masked_rows(
    n: int,
    mask: Optional[np.ndarray],
    complement: bool,
) -> Optional[np.ndarray]:
    """Row ids selected by ``mask`` (None = all rows)."""
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=bool)
    if mask.shape[0] != n:
        raise ValueError(
            f"mask must have one entry per vertex ({n}), got {mask.shape[0]}"
        )
    return np.nonzero(~mask if complement else mask)[0]


def spmv(
    graph: Graph,
    x: np.ndarray,
    *,
    semiring: Semiring = PLUS_TIMES,
    transpose: bool = False,
    mask: Optional[np.ndarray] = None,
    complement: bool = False,
) -> np.ndarray:
    """Masked (row-segmented) sparse matrix–vector product.

    ``y[u] = ⊕_{(u,v,w)} x[v] ⊗ w`` over u's out-edges, or over its
    in-edges when ``transpose`` (``y = Aᵀ ⊗ x`` — the pull form: each
    destination reduces over its sources).  Rows outside ``mask``
    (inside it, under ``complement``) keep the ⊕ identity and their
    edges are never touched — the masked-SpMV work saving that makes
    pull-BFS linear in the unvisited set, not the graph.
    """
    semiring = resolve_semiring(semiring)
    n = graph.n_vertices
    x = np.asarray(x)
    if x.shape[0] != n:
        raise ValueError(
            f"x must have one entry per vertex ({n}), got {x.shape[0]}"
        )
    rows = _masked_rows(n, mask, complement)
    if rows is None and semiring.name == PLUS_TIMES.name:
        # Unmasked (+, ×) is exactly the classical product: the shared
        # sum-aggregate kernel (which opens the ``linalg:spmv`` span).
        agg = graph_aggregate(graph)
        return agg.scatter(x) if transpose else agg.gather(x)
    with active_probe().span(
        "linalg:spmv",
        semiring=semiring.name,
        transpose=transpose,
        masked=mask is not None,
        rows=int(rows.shape[0]) if rows is not None else n,
    ):
        return _spmv_numpy(
            graph, x, semiring=semiring, transpose=transpose, rows=rows
        )


def _spmv_numpy(
    graph: Graph,
    x: np.ndarray,
    *,
    semiring: Semiring,
    transpose: bool,
    rows: Optional[np.ndarray],
) -> np.ndarray:
    """Segmented scatter-reduce for every product the sum-aggregate kernel
    does not cover: masked rows, or a semiring other than (+, ×)."""
    n = graph.n_vertices
    if transpose:
        csc = graph.csc()
        offsets, targets, weights = (
            csc.col_offsets, csc.row_indices, csc.values,
        )
    else:
        csr = graph.csr()
        offsets, targets, weights = (
            csr.row_offsets, csr.column_indices, csr.values,
        )
    out = semiring.zeros(n)
    xv = np.asarray(x, dtype=semiring.dtype)

    if rows is None:
        if int(offsets[-1]) == 0:
            return out
        contrib = semiring.multiply(
            xv[targets], weights.astype(np.float64)
        ).astype(semiring.dtype, copy=False)
        seg = graph.derived(
            "linalg.segments." + ("csc" if transpose else "csr"),
            lambda: segment_ids(offsets),
        )
        semiring.add.at(out, seg, contrib)
        return out

    # Masked form: gather only the selected rows' segments.
    starts = offsets[rows]
    lengths = (offsets[rows + 1] - starts).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        return out
    # Flat edge positions of every selected segment, in row order.
    flat = np.repeat(starts, lengths) + (
        np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    )
    contrib = semiring.multiply(
        xv[targets[flat]], weights[flat].astype(np.float64)
    ).astype(semiring.dtype, copy=False)
    seg = np.repeat(np.arange(rows.shape[0]), lengths)
    local = semiring.zeros(rows.shape[0])
    semiring.add.at(local, seg, contrib)
    out[rows] = local
    return out


def spmspv(
    graph: Graph,
    frontier_ids: np.ndarray,
    x: np.ndarray,
    *,
    semiring: Semiring = PLUS_TIMES,
    mask: Optional[np.ndarray] = None,
    complement: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sparse matrix × sparse vector over the frontier (the push kernel).

    ``frontier_ids`` are the nonzero positions of the sparse input
    vector; ``x`` is the dense value backing (only frontier entries are
    read).  Expands the frontier's out-edges (CSR) and ⊕-reduces the
    ⊗-combined contributions by destination:

        ``y[v] = ⊕_{(u,v,w), u ∈ frontier} x[u] ⊗ w``

    Returns ``(y, touched)`` where ``y`` is the dense accumulator
    (⊕ identity everywhere untouched) and ``touched`` the sorted unique
    destinations that received at least one contribution — the natural
    sparsity pattern of the output vector, i.e. the next frontier before
    masking.  ``mask``/``complement`` filter *outputs* structurally:
    contributions to excluded destinations are dropped before the
    reduction (the visited-set complement mask of push-BFS).
    """
    semiring = resolve_semiring(semiring)
    n = graph.n_vertices
    x = np.asarray(x)
    frontier_ids = np.asarray(frontier_ids, dtype=np.int64).ravel()
    probe = active_probe()
    with probe.span(
        "linalg:spmspv",
        semiring=semiring.name,
        nnz=int(frontier_ids.shape[0]),
        masked=mask is not None,
    ):
        out = semiring.zeros(n)
        if frontier_ids.shape[0] == 0:
            return out, np.empty(0, dtype=np.int64)
        csr = graph.csr()
        starts = csr.row_offsets[frontier_ids]
        lengths = (csr.row_offsets[frontier_ids + 1] - starts).astype(
            np.int64
        )
        total = int(lengths.sum())
        if total == 0:
            return out, np.empty(0, dtype=np.int64)
        flat = np.repeat(starts, lengths) + (
            np.arange(total)
            - np.repeat(np.cumsum(lengths) - lengths, lengths)
        )
        dsts = csr.column_indices[flat].astype(np.int64)
        srcs = np.repeat(frontier_ids, lengths)
        xv = np.asarray(x, dtype=semiring.dtype)
        contrib = semiring.multiply(
            xv[srcs], csr.values[flat].astype(np.float64)
        ).astype(semiring.dtype, copy=False)
        if mask is not None:
            keep_mask = np.asarray(mask, dtype=bool)
            if keep_mask.shape[0] != n:
                raise ValueError(
                    f"mask must have one entry per vertex ({n}), got "
                    f"{keep_mask.shape[0]}"
                )
            keep = (
                ~keep_mask[dsts] if complement else keep_mask[dsts]
            )
            dsts, contrib = dsts[keep], contrib[keep]
            if dsts.shape[0] == 0:
                return out, np.empty(0, dtype=np.int64)
        semiring.add.at(out, dsts, contrib)
        return out, np.unique(dsts)
