"""Worker-side round kernels for the ``par_proc`` policy: owner computes.

The engine (:mod:`repro.execution.proc_engine`) cuts ``0..n`` into one
contiguous destination range per worker.  Each function here is one
worker's share of one bulk-synchronous round: the *whole* frontier
expanded over *this worker's* slice of the graph — the in-edges of its
range — so every update aimed at a vertex is folded by that vertex's
owner and nowhere else.  The bodies are the in-process fused kernels'
own (:mod:`repro.operators.fused`), called over shared-memory views
with the range's bounds, so both executors run one definition of each
kernel.

Two rules keep the rounds exact and restartable:

1. **Workers never write shared state.**  Source values are read from
   the parent's pre-round mirror; the per-destination fold (min for
   min-relax, last write in edge order for claim) happens in a private
   scratch array, allocated per round (only its touched pages are
   ever mapped).  A worker killed mid-round is respawned and the same round
   re-dispatched, with the same result.
2. **Ranges are disjoint and ordered.**  A worker returns ``(winners,
   new_values)`` for its range, sorted and unique, so the parent's
   concatenation in rank order *is* the sorted unique frontier the
   in-process kernels emit — nothing left to merge.

The traversal kernels need nothing but NumPy; :func:`pagerank_range` is
the shared sum-aggregate kernel (:mod:`repro.operators.sum_aggregate`),
which imports scipy lazily on its first product — traversal-only
workers never load it.  All are unit-tested in process
(``tests/test_par_proc.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.operators.fused import claim_pull, claim_push, relax_pull, relax_push
from repro.operators.sum_aggregate import SumAggregate
from repro.types import VERTEX_DTYPE


def _local(vertices: Optional[np.ndarray], lo: int, hi: int) -> np.ndarray:
    """The pull candidates inside ``[lo, hi)``, range-local (``None``:
    the whole range)."""
    if vertices is None:
        return np.arange(hi - lo, dtype=VERTEX_DTYPE)
    return vertices.compress((vertices >= lo) & (vertices < hi)) - lo


def min_relax_range(
    direction: str, offsets: np.ndarray, targets: np.ndarray,
    values: np.ndarray, lo: int, hi: int, *,
    weights: Optional[np.ndarray] = None, vertices: Optional[np.ndarray] = None,
    active: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One worker's min-relax round over the destination range
    ``[lo, hi)``; returns the range's winners and their new values.

    Push: ``vertices`` is the whole frontier and ``offsets`` /
    ``targets`` / ``weights`` this rank's CSR slice.
    Pull: ``offsets`` / ``targets`` / ``weights`` are this rank's CSC
    column slice (``targets`` holding the in-edges' sources) and
    ``vertices`` the round's candidates (``None``: every vertex).
    """
    fold = np.empty(hi - lo, dtype=values.dtype)
    if direction == "push":
        winners = relax_push(
            offsets, targets, weights, values, vertices, lo=lo, out=fold,
        )
    else:
        winners = relax_pull(
            offsets, targets, weights, values, active, _local(vertices, lo, hi),
            lo=lo, out=fold,
        )
    return winners + lo, fold.take(winners)


def claim_range(
    direction: str, offsets: np.ndarray, targets: np.ndarray,
    levels: np.ndarray, lo: int, hi: int, *,
    vertices: Optional[np.ndarray] = None, active: Optional[np.ndarray] = None,
    unreached: int = -1,
) -> Tuple[np.ndarray, np.ndarray]:
    """One worker's BFS-discovery round over ``[lo, hi)`` (arrays as in
    :func:`min_relax_range`); returns the claimed vertices and their
    parents — the parent process stamps the levels."""
    parents = np.empty(hi - lo, dtype=VERTEX_DTYPE)
    if direction == "push":
        winners = claim_push(
            offsets, targets, levels, vertices, parents, lo=lo,
            unreached=unreached,
        )
    else:
        winners = claim_pull(
            offsets, targets, levels, active, _local(vertices, lo, hi),
            parents, lo=lo, unreached=unreached,
        )
    return winners + lo, parents.take(winners)


def pagerank_range(
    offsets: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    share: np.ndarray,
    incoming: np.ndarray,
    lo: int,
    hi: int,
) -> int:
    """Incoming rank mass for the vertex range ``[lo, hi)``: the shared
    (+, ×) sum-aggregate kernel, gathered over this rank's CSC column
    slice (offsets rebased to it, in-edge sources, float64 weights).

    ``share`` is the parent's per-source ``rank / out_weight`` (computed
    once per superstep, mirrored) — so the worker does no per-edge
    preparation at all, and its sums match the in-process scatter over
    the CSR bit for bit (both add a destination's terms in source
    order).  The one kernel that *writes* shared memory: ``incoming``
    rows are partitioned contiguously across workers, so writes are
    disjoint and re-running the range after a worker crash is
    idempotent.  Returns the edge count processed (the round's work
    accounting).
    """
    incoming[lo:hi] = SumAggregate(
        offsets, targets, weights, share.shape[0]
    ).gather(share)
    return targets.shape[0]
