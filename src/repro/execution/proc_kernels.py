"""Worker-side superstep kernels for the ``par_proc`` policy.

Each function here is one partition's share of one bulk-synchronous
round, written against **raw arrays** (shared-memory views of the graph
plus a pre-round mirror of the algorithm state).  Two rules make the
multiprocess rounds exactly reproduce the in-process fused kernels
(:mod:`repro.operators.fused`) without cross-process races:

1. **Workers never mutate shared state.**  A concurrent
   ``np.minimum.at`` from several processes can permanently lose the
   smaller of two racing candidates (unlike the in-thread kernels,
   whose races are serialized by the GIL at ufunc granularity).  So a
   worker only *proposes*: it returns compact ``(destination,
   candidate)`` update buffers, pre-filtered against the pre-round
   mirror.
2. **The parent merges deterministically.**  Proposals route through
   the mailbox with a min-combiner; folding the per-destination minimum
   and comparing it against the pre-round value yields exactly the
   ``improved = cand < old`` set the single-pass kernel computes, in
   one place, with no ordering sensitivity.

Dropping a proposal whose candidate is not below the pre-round value
never changes the fold (the filter is monotone), which is what makes
the per-worker pre-filter safe bandwidth reduction rather than a
semantic choice.

The min-relax / claim kernels need nothing but NumPy;
:func:`pagerank_range` is the shared sum-aggregate kernel
(:mod:`repro.operators.sum_aggregate`), which imports scipy lazily on
its first product — traversal-only workers never load it.  All are
unit-tested in process (``tests/test_par_proc.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.operators.sum_aggregate import SumAggregate

_EMPTY_PAIR = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))


def _expand(offsets: np.ndarray, vertices: np.ndarray):
    """CSR/CSC segment gather: flat edge ids + per-vertex counts."""
    starts = offsets.take(vertices)
    ends = offsets.take(vertices + 1)
    counts = ends - starts
    cum = counts.cumsum()
    total = int(cum[-1]) if counts.size else 0
    if total == 0:
        return None, counts
    # Segment base of each edge slot: ends - cum == starts - prefix(counts).
    edge_ids = (ends - cum).repeat(counts)
    edge_ids += np.arange(total, dtype=edge_ids.dtype)
    return edge_ids, counts


def min_relax_push(
    row_offsets: np.ndarray,
    column_indices: np.ndarray,
    edge_weights: np.ndarray,
    values: np.ndarray,
    vertices: np.ndarray,
    *,
    weighted: bool = True,
    edge_mask: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One partition of a push min-relax round (SSSP / CC shape).

    Returns ``(dsts, cand)`` — every expanded edge whose candidate beats
    the destination's pre-round value.  ``values`` is a read-only
    mirror; candidates are computed in its dtype (float32 for
    distances, int64 for CC labels) and returned as float64, the
    mailbox value dtype — lossless both ways for the dtypes in use.
    """
    edge_ids, counts = _expand(row_offsets, vertices)
    if edge_ids is None:
        return _EMPTY_PAIR
    dsts = column_indices.take(edge_ids)
    cand = values.take(vertices).repeat(counts)
    if weighted:
        cand = cand + edge_weights.take(edge_ids)
    if edge_mask is not None:
        live = edge_mask.take(edge_ids)
        dsts = dsts.compress(live)
        cand = cand.compress(live)
    keep = cand < values.take(dsts)
    return dsts.compress(keep), cand.compress(keep).astype(np.float64)


def min_relax_pull(
    col_offsets: np.ndarray,
    row_indices: np.ndarray,
    edge_weights: np.ndarray,
    values: np.ndarray,
    active: np.ndarray,
    candidates: np.ndarray,
    *,
    weighted: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """One partition of a pull min-relax round: the candidate slice's
    in-edges from the active set, filtered like the push side."""
    edge_ids, counts = _expand(col_offsets, candidates)
    if edge_ids is None:
        return _EMPTY_PAIR
    srcs = row_indices.take(edge_ids)
    live = active.take(srcs)
    if not np.any(live):
        return _EMPTY_PAIR
    srcs = srcs.compress(live)
    dsts = np.repeat(candidates, counts).compress(live)
    cand = values.take(srcs)
    if weighted:
        cand = cand + edge_weights.take(edge_ids.compress(live))
    keep = cand < values.take(dsts)
    return dsts.compress(keep), cand.compress(keep).astype(np.float64)


def claim_push(
    row_offsets: np.ndarray,
    column_indices: np.ndarray,
    levels: np.ndarray,
    vertices: np.ndarray,
    *,
    unreached: int = -1,
) -> Tuple[np.ndarray, np.ndarray]:
    """One partition of a push BFS-discovery round.

    Returns ``(claimed_dsts, src_ids)`` for destinations unreached in
    the pre-round mirror.  The parent folds the minimum source per
    destination — a deterministic choice among equally valid BFS
    parents (the in-process kernel's last-write-wins pick is another).
    """
    edge_ids, counts = _expand(row_offsets, vertices)
    if edge_ids is None:
        return _EMPTY_PAIR
    dsts = column_indices.take(edge_ids)
    fresh = levels.take(dsts) == unreached
    if not np.any(fresh):
        return _EMPTY_PAIR
    srcs = vertices.repeat(counts).compress(fresh)
    return dsts.compress(fresh), srcs.astype(np.float64)


def claim_pull(
    col_offsets: np.ndarray,
    row_indices: np.ndarray,
    levels: np.ndarray,
    active: np.ndarray,
    candidates: np.ndarray,
    *,
    unreached: int = -1,
) -> Tuple[np.ndarray, np.ndarray]:
    """One partition of a pull BFS-discovery round: unreached candidates
    scan their in-edges for an active parent."""
    edge_ids, counts = _expand(col_offsets, candidates)
    if edge_ids is None:
        return _EMPTY_PAIR
    srcs = row_indices.take(edge_ids)
    live = active.take(srcs)
    if not np.any(live):
        return _EMPTY_PAIR
    srcs = srcs.compress(live)
    dsts = np.repeat(candidates, counts).compress(live)
    fresh = levels.take(dsts) == unreached
    if not np.any(fresh):
        return _EMPTY_PAIR
    return dsts.compress(fresh), srcs.compress(fresh).astype(np.float64)


def pagerank_range(
    col_offsets: np.ndarray,
    row_indices: np.ndarray,
    edge_weights: np.ndarray,
    share: np.ndarray,
    incoming: np.ndarray,
    lo: int,
    hi: int,
) -> int:
    """Incoming rank mass for the vertex range ``[lo, hi)``: the shared
    (+, ×) sum-aggregate kernel, gathered over this worker's CSC slice.

    ``share`` is the parent's per-source ``rank / out_weight`` (computed
    once per superstep, mirrored), ``edge_weights`` the CSC's float64
    weights — so the worker does no per-edge preparation at all, and its
    sums match the in-process scatter over the CSR bit for bit (both add
    a destination's terms in source order).  The one kernel that
    *writes* shared memory: ``incoming`` rows are partitioned
    contiguously across workers, so writes are disjoint and re-running
    the range after a worker crash is idempotent.  Returns the edge
    count processed (the round's work accounting).
    """
    e0 = int(col_offsets[lo])
    e1 = int(col_offsets[hi])
    incoming[lo:hi] = SumAggregate(
        col_offsets[lo : hi + 1] - e0,
        row_indices[e0:e1],
        edge_weights[e0:e1],
        share.shape[0],
    ).gather(share)
    return e1 - e0
