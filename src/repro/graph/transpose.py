"""Graph transposition: CSR <-> CSC in linear time.

Storing both the original and the transposed representation is how the
abstraction supports push *and* pull traversals "at the cost of memory
space" (§III-C / §IV-A sidebar).  The conversion is a stable LSD radix
sort over destinations (:func:`bucket_order`) — O(E) per 16-bit digit,
one pass for graphs with at most 2^16 vertices.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csc import CSCMatrix
from repro.graph.csr import CSRMatrix
from repro.types import EDGE_DTYPE, VERTEX_DTYPE

_DIGIT_BITS = 16


def bucket_order(keys: np.ndarray, n_buckets: int) -> np.ndarray:
    """The stable permutation that sorts ``keys`` (each in ``[0, n_buckets)``).

    Equal to ``np.argsort(keys, kind="stable")``, but computed as an LSD
    radix sort over 16-bit digits: a stable sort of a ``uint16`` array
    is numpy's O(n) radix path, where wider integers fall back to a
    comparison timsort.  ``ceil(log2(n_buckets) / 16)`` passes.
    """
    keys = np.asarray(keys)
    # The uint16 cast keeps exactly the low 16 bits: one digit per pass.
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = _DIGIT_BITS
    while (n_buckets - 1) >> shift > 0:
        digits = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digits, kind="stable")]
        shift += _DIGIT_BITS
    return order


def transpose_csr(csr: CSRMatrix) -> CSCMatrix:
    """Build the CSC view of ``csr`` (same logical graph, pull layout).

    The returned CSC groups edges by destination; within one destination,
    sources appear in increasing order (stability of the radix sort over
    a row-sorted input), which pull-side intersection kernels rely on.
    """
    n_rows, n_cols = csr.n_rows, csr.n_cols
    counts = np.bincount(csr.column_indices, minlength=n_cols).astype(EDGE_DTYPE)
    col_offsets = np.zeros(n_cols + 1, dtype=EDGE_DTYPE)
    np.cumsum(counts, out=col_offsets[1:])

    order = bucket_order(csr.column_indices, n_cols)
    sources = np.repeat(
        np.arange(n_rows, dtype=VERTEX_DTYPE), np.diff(csr.row_offsets)
    )
    return CSCMatrix(
        n_rows, n_cols, col_offsets, sources[order], csr.values[order]
    )


def csc_to_csr(csc: CSCMatrix) -> CSRMatrix:
    """Rebuild the CSR (push) view from a CSC (pull) view."""
    n_rows, n_cols = csc.n_rows, csc.n_cols
    counts = np.bincount(csc.row_indices, minlength=n_rows).astype(EDGE_DTYPE)
    row_offsets = np.zeros(n_rows + 1, dtype=EDGE_DTYPE)
    np.cumsum(counts, out=row_offsets[1:])

    order = bucket_order(csc.row_indices, n_rows)
    destinations = np.repeat(
        np.arange(n_cols, dtype=csc.row_indices.dtype),
        np.diff(csc.col_offsets),
    )
    return CSRMatrix(
        n_rows, n_cols, row_offsets, destinations[order], csc.values[order]
    )
