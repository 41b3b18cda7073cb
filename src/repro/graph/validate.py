"""Structural validation of graph representations.

Validation is deliberately separate from construction: the format classes
check only cheap shape invariants in their constructors so bulk pipelines
stay fast, while these functions perform the full O(V + E) audit used by
tests, loaders, and debugging sessions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csc import CSCMatrix
from repro.graph.csr import CSRMatrix


def validate_csr(csr: CSRMatrix) -> None:
    """Fully audit a CSR structure; raise :class:`GraphFormatError` on fault.

    Checks: monotone offsets anchored at 0 and n_edges, column indices in
    range, finite weights.
    """
    ro = csr.row_offsets
    if ro[0] != 0:
        raise GraphFormatError(f"row_offsets[0] must be 0, got {int(ro[0])}")
    if np.any(np.diff(ro) < 0):
        bad = int(np.argmax(np.diff(ro) < 0))
        raise GraphFormatError(f"row_offsets decreases at row {bad}")
    n_edges = int(ro[-1])
    if csr.column_indices.shape[0] != n_edges:
        raise GraphFormatError(
            f"column_indices length {csr.column_indices.shape[0]} != "
            f"row_offsets[-1] = {n_edges}"
        )
    if n_edges:
        cmin = int(csr.column_indices.min())
        cmax = int(csr.column_indices.max())
        if cmin < 0 or cmax >= csr.n_cols:
            raise GraphFormatError(
                f"column indices must lie in [0, {csr.n_cols}); found "
                f"range [{cmin}, {cmax}]"
            )
        if not np.all(np.isfinite(csr.values)):
            raise GraphFormatError("edge weights must be finite")


def validate_csc(csc: CSCMatrix) -> None:
    """Fully audit a CSC structure (mirror of :func:`validate_csr`)."""
    co = csc.col_offsets
    if co[0] != 0:
        raise GraphFormatError(f"col_offsets[0] must be 0, got {int(co[0])}")
    if np.any(np.diff(co) < 0):
        bad = int(np.argmax(np.diff(co) < 0))
        raise GraphFormatError(f"col_offsets decreases at column {bad}")
    n_edges = int(co[-1])
    if csc.row_indices.shape[0] != n_edges:
        raise GraphFormatError(
            f"row_indices length {csc.row_indices.shape[0]} != "
            f"col_offsets[-1] = {n_edges}"
        )
    if n_edges:
        rmin = int(csc.row_indices.min())
        rmax = int(csc.row_indices.max())
        if rmin < 0 or rmax >= csc.n_rows:
            raise GraphFormatError(
                f"row indices must lie in [0, {csc.n_rows}); found "
                f"range [{rmin}, {rmax}]"
            )
        if not np.all(np.isfinite(csc.values)):
            raise GraphFormatError("edge weights must be finite")


def validate_graph(graph) -> None:
    """Audit every materialized view of a :class:`~repro.graph.graph.Graph`
    and verify cross-view consistency (same vertex and edge counts, and the
    CSC really is the transpose of the CSR).
    """
    csr = graph.view("csr") if graph.has_view("csr") else None
    csc = graph.view("csc") if graph.has_view("csc") else None
    if csr is not None:
        validate_csr(csr)
    if csc is not None:
        validate_csc(csc)
    if csr is not None and csc is not None:
        if csr.get_num_edges() != csc.get_num_edges():
            raise GraphFormatError(
                f"CSR has {csr.get_num_edges()} edges but CSC has "
                f"{csc.get_num_edges()}"
            )
        # Compare edge multisets: (src, dst, weight) triples must agree.
        n = csr.get_num_edges()
        src_r = csr.source_of_edges(np.arange(n))
        dst_r = csr.column_indices
        order_r = np.lexsort((csr.values, dst_r, src_r))
        dst_c = (
            np.searchsorted(csc.col_offsets, np.arange(n), side="right") - 1
        ).astype(dst_r.dtype)
        src_c = csc.row_indices
        order_c = np.lexsort((csc.values, dst_c, src_c))
        if not (
            np.array_equal(src_r[order_r], src_c[order_c])
            and np.array_equal(dst_r[order_r], dst_c[order_c])
            and np.allclose(csr.values[order_r], csc.values[order_c])
        ):
            raise GraphFormatError("CSC view is not the transpose of the CSR view")


def validate_overlay(overlay) -> None:
    """Audit a :class:`~repro.dynamic.overlay.DeltaOverlay`'s invariants.

    Checks, in O(base + delta):

    * tombstone flags cover exactly the base edge-id range, none counted
      twice (``n_deleted`` agrees with the mask);
    * every staged insert endpoint is a valid vertex id, every staged
      weight finite;
    * the staged inserts are coherent: keys strictly increasing (one
      slot per arc) and staging sequence numbers distinct;
    * **no duplicate live arc across base+delta**: a staged insert whose
      ``(src, dst)`` also exists as a live (un-tombstoned) base arc
      would make the merged CSR a multigraph the mutation API promised
      not to create.

    Every check is an array pass; none loops over arcs in Python.
    """
    base = overlay.base
    n = base.get_num_vertices()
    m = base.get_num_edges()
    live = overlay.live_mask()
    if live.shape[0] != m:
        raise GraphFormatError(
            f"tombstone mask covers {live.shape[0]} edge ids, base has {m}"
        )
    n_dead = m - int(np.count_nonzero(live))
    if n_dead != overlay.n_deleted:
        raise GraphFormatError(
            f"tombstone count disagrees: mask has {n_dead}, "
            f"counter says {overlay.n_deleted}"
        )
    add_src, add_dst, add_w = overlay.inserted_arrays()
    if add_src.size:
        lo = min(int(add_src.min()), int(add_dst.min()))
        hi = max(int(add_src.max()), int(add_dst.max()))
        if lo < 0 or hi >= n:
            raise GraphFormatError(
                f"staged inserts must reference vertices in [0, {n}); "
                f"found range [{lo}, {hi}]"
            )
        if not np.all(np.isfinite(add_w)):
            raise GraphFormatError("staged insert weights must be finite")
    keys, seq = overlay._add_keys, overlay._add_seq
    if not (
        keys.shape == seq.shape == add_w.shape
        and np.all(keys[1:] > keys[:-1])
        and np.unique(seq).shape == seq.shape
    ):
        raise GraphFormatError(
            "staged inserts must be sorted by key, one slot per arc, with "
            "distinct staging numbers (duplicate staged arc?)"
        )
    # No staged insert may duplicate a live base arc.
    base_src = np.repeat(np.arange(n), np.diff(base.row_offsets))
    dup = np.flatnonzero(
        np.isin(
            overlay.keys(add_src, add_dst),
            overlay.keys(base_src[live], base.column_indices[live]),
        )
    )
    if dup.size:
        s, d = int(add_src[dup[0]]), int(add_dst[dup[0]])
        raise GraphFormatError(
            f"staged insert ({s}, {d}) duplicates a live base edge — "
            f"inserting an existing arc must tombstone or rewrite it"
        )
