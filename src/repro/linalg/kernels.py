"""Masked SpMV / SpMSpV — advance and reduce as matrix products.

The two kernels state the paper's push/pull duality as algebra
(§III-C / §IV-A, and GraphBLAST's execution model):

* :func:`spmspv` — **push**: the frontier is a sparse vector; expand
  the out-edges (CSR rows) of its nonzeros, ⊗-combine each edge with
  the source's value, ⊕-scatter into destinations.
* :func:`spmv` — **pull**: a dense product, over the CSC when
  ``transpose`` (``y = Aᵀ ⊗ x``), optionally restricted to the rows a
  per-vertex *mask* selects — with ``complement=True`` the
  structural-complement masking GraphBLAST uses for the visited set.

They are the reference the native advance is checked against (the
``advance_semiring`` oracle in :mod:`repro.verify.oracles`): one
``ufunc.at`` scatter-reduce over the CSR/CSC arrays each.  The one
exception is the unmasked ``(+, ×)`` product, which *is* the
sum-aggregate every executor shares (:mod:`repro.operators.sum_aggregate`
— scipy's C matvec when importable, ``np.bincount`` otherwise); the
``REPRO_NO_SCIPY`` environment variable (or
:func:`repro.linalg.force_numpy`) pins its pure-NumPy side.

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
from repro.utils.validation import check_vertices_in_range


def _dense_operands(
    n: int, x, mask: Optional[np.ndarray]
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``x`` and ``mask`` as arrays, each checked to hold one entry per
    vertex (``mask`` may be ``None``)."""
    x = np.asarray(x)
    if x.shape != (n,):
        raise ValueError(
            f"x must have one entry per vertex ({n}), got shape {x.shape}"
        )
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n,):
            raise ValueError(
                f"mask must have one entry per vertex ({n}), got shape "
                f"{mask.shape}"
            )
    return x, mask


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
    (inside it, under ``complement``) keep the ⊕ identity: their edges
    contribute nothing.
    """
    semiring = resolve_semiring(semiring)
    n = graph.n_vertices
    x, mask = _dense_operands(n, x, mask)
    if mask is None and semiring.name == PLUS_TIMES.name:
        # Unmasked (+, ×) is exactly the classical product: the shared
        # sum-aggregate kernel (which opens the ``linalg:spmv`` span).
        agg = graph_aggregate(graph)
        return agg.scatter(x) if transpose else agg.gather(x)
    if transpose:
        csc = graph.csc()
        offsets, reads, weights = csc.col_offsets, csc.row_indices, csc.values
    else:
        csr = graph.csr()
        offsets, reads, weights = csr.row_offsets, csr.column_indices, csr.values
    # Each edge slot writes to its segment's row and reads x at its target.
    writes = graph.derived(
        "linalg.segments." + ("csc" if transpose else "csr"),
        lambda: segment_ids(offsets),
    )
    if mask is not None:
        keep = mask[writes] != complement
        reads, writes, weights = reads[keep], writes[keep], weights[keep]
    with active_probe().span(
        "linalg:spmv",
        semiring=semiring.name,
        transpose=transpose,
        masked=mask is not None,
        edges=int(writes.shape[0]),
    ):
        out = semiring.zeros(n)
        contrib = semiring.multiply(
            x.astype(semiring.dtype, copy=False)[reads],
            weights.astype(np.float64),
        ).astype(semiring.dtype, copy=False)
        semiring.add.at(out, writes, contrib)
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
    x, mask = _dense_operands(n, x, mask)
    frontier_ids = np.asarray(frontier_ids, dtype=np.int64).ravel()
    check_vertices_in_range(frontier_ids, n)
    with active_probe().span(
        "linalg:spmspv",
        semiring=semiring.name,
        nnz=int(frontier_ids.shape[0]),
        masked=mask is not None,
    ):
        out = semiring.zeros(n)
        srcs, dsts, _, weights = graph.csr().expand_vertices(frontier_ids)
        dsts = dsts.astype(np.int64)
        contrib = semiring.multiply(
            x.astype(semiring.dtype, copy=False)[srcs],
            weights.astype(np.float64),
        ).astype(semiring.dtype, copy=False)
        if mask is not None:
            keep = mask[dsts] != complement
            dsts, contrib = dsts[keep], contrib[keep]
        semiring.add.at(out, dsts, contrib)
        return out, np.unique(dsts)
