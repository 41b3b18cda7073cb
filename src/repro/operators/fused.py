"""Fused advance kernels and frontier-adaptive dispatch heuristics.

The operator chain the paper composes per superstep — advance, apply
the user condition, scatter the survivors into the output frontier —
is semantically three steps but does not have to be three *passes*.
For the condition shapes that dominate graph analytics the whole chain
collapses into one vectorized kernel (Gunrock's fused-operator trick):

* **min-relax** — SSSP / CC label propagation:
  ``candidate = values[src] (+ weight); atomic-min into values[dst];
  emit improved destinations``;
* **claim-unvisited** — BFS discovery: ``emit destinations whose level
  is unset, stamping level and parent``;
* **sum-aggregate** — PageRank / HITS / SpMV: the (+, ×) product, one
  kernel for every executor in :mod:`repro.operators.sum_aggregate`;
  :func:`segmented_sum` here is the bare dense scatter-add for callers
  that already hold per-edge contributions (SpGEMM's collapse).

Algorithms opt in by building their condition through a factory below
(:func:`min_relax_condition`, :func:`claim_levels_condition`).  The
result is an ordinary bulk condition — byte-identical under every
policy — that additionally carries a :class:`FusedKernel`;
``neighbors_expand`` detects the kernel and, under the vectorized
policy, routes the whole superstep through the single-pass form
instead of the generic gather → condition → scatter pipeline.  Every
other policy ignores the kernel and runs the condition unchanged, so
fusion never forks semantics.

Each kernel body is defined once, over raw arrays and a destination
range (:func:`relax_push`, :func:`relax_pull`, :func:`claim_push`,
:func:`claim_pull`): the in-process kernels call it over the whole
graph, each ``par_proc`` worker over the slice of the graph holding the
in-edges of the range it owns (:mod:`repro.execution.proc_kernels`).

The same module holds the frontier-adaptive dispatch heuristics
(§III-C's direction choice, made per-iteration): :data:`DEFAULT_ALPHA`
and :data:`DEFAULT_BETA` are the one pair of Beamer push↔pull
thresholds, read by BFS's counted-edge switch
(:mod:`repro.algorithms.bfs`) and by :func:`choose_direction`, the
estimate ``neighbors_expand(direction="auto")`` makes from frontier size
× average degree; :func:`choose_representation` picks sparse vs dense
output frontiers at a density threshold.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional, Tuple

import numpy as np

from repro.frontier.base import Frontier
from repro.frontier.dense import DenseFrontier
from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.operators.conditions import bulk_condition
from repro.execution.atomics import bulk_min_relax
from repro.execution.workspace import Workspace
from repro.types import EDGE_DTYPE, VERTEX_DTYPE

#: Attribute carrying a condition's fused kernel (when eligible).
FUSED_ATTR = "__repro_fused_kernel__"

#: Beamer direction-optimization thresholds (alpha: push→pull when the
#: frontier's out-edges exceed the unexplored edges / alpha; beta:
#: pull→push when the frontier shrinks under n / beta) — GAP's values.
DEFAULT_ALPHA = 15.0
DEFAULT_BETA = 18.0

#: Output frontiers denser than this fraction of the graph switch to
#: the bitmap representation (measured on the *input* frontier, the
#: best single predictor available before the expand runs).
DENSE_REPRESENTATION_THRESHOLD = 0.05


#: Global fusion switch.  Fused kernels and the generic pipeline must be
#: semantically identical; the conformance matrix flips this to prove it
#: (``repro verify --fused off``).
_FUSION_ENABLED = True


def fusion_enabled() -> bool:
    """Whether conditions may route through their fused kernels."""
    return _FUSION_ENABLED


@contextmanager
def fusion_override(enabled: bool):
    """Temporarily force fusion on or off (conformance sweeps)."""
    global _FUSION_ENABLED
    prev = _FUSION_ENABLED
    _FUSION_ENABLED = bool(enabled)
    try:
        yield
    finally:
        _FUSION_ENABLED = prev


def fused_kernel_of(condition: Callable) -> Optional["FusedKernel"]:
    """The fused kernel attached to ``condition``, if any.

    Returns ``None`` while fusion is globally disabled, so every caller
    (advance dispatch *and* the algorithms' emits-deduplicated-sets
    bookkeeping) falls back to the generic pipeline consistently.
    """
    if not _FUSION_ENABLED:
        return None
    return getattr(condition, FUSED_ATTR, None)


# -- output plumbing (trusted: ids come from the graph's own arrays) -----------


def emit(output: Frontier, ids: np.ndarray) -> Frontier:
    """Append ``ids`` to ``output``: a kernel's fresh winners, valid
    ``VERTEX_DTYPE`` ids that a sparse output adopts without a copy."""
    if isinstance(output, SparseFrontier):
        output.adopt(ids)
    else:  # dense, queue or exotic frontier: generic path
        output.add_many(ids)
    return output


# -- fused kernels ---------------------------------------------------------------


class FusedKernel:
    """A single-pass advance+condition+scatter kernel.

    ``push`` expands the frontier's out-edges via the CSR;
    ``pull`` tests candidates' in-edges against the active set via the
    CSC.  Both must apply exactly the state mutations the generic
    pipeline would for the same condition, and emit the same output
    *set* — fused kernels additionally deduplicate and sort their
    emission (the bitmap round-trip is nearly free inside the kernel),
    so algorithms can skip their own between-superstep dedup pass when
    the fused route is active.
    """

    name = "fused"
    supports_pull = True

    def push(
        self,
        graph: Graph,
        vertices: np.ndarray,
        output: Frontier,
        workspace: Optional[Workspace],
    ) -> Frontier:
        """Expand ``vertices``' out-edges (CSR), mutate state, emit into
        ``output``."""
        raise NotImplementedError

    def pull(
        self,
        graph: Graph,
        frontier: Frontier,
        candidates: Optional[np.ndarray],
        output: Frontier,
        workspace: Optional[Workspace],
    ) -> Frontier:
        """Scan ``candidates``' in-edges (CSC) against the active
        ``frontier``, mutate state, emit into ``output``."""
        raise NotImplementedError


def _gather_segments(offsets, vertices, workspace):
    """Multi-range gather bookkeeping shared by the fused kernels.

    Returns ``(edge_ids, counts)`` — the flat positions of every edge
    incident to ``vertices`` in the given offsets array, and the
    per-vertex segment lengths.  Uses the workspace's cached ramp so the
    steady state allocates only the two ``repeat`` outputs.

    Written in method/``out=`` form (``.take``, ``.repeat``, in-place
    arithmetic into just-produced temporaries): on superstep-sized
    frontiers every avoided Python-level ufunc dispatch is a visible
    fraction of the kernel.
    """
    starts = offsets.take(vertices)
    ends = offsets.take(vertices + 1)
    counts = np.subtract(ends, starts, out=starts)  # starts dies here
    cum = counts.cumsum()
    total = int(cum[-1]) if counts.size else 0
    if total == 0:
        return None, counts
    # Segment base of each edge slot: ends - cum == starts - (cum - counts).
    base = np.subtract(ends, cum, out=ends)  # ends dies here
    edge_ids = base.repeat(counts)
    np.add(_ramp(total, workspace), edge_ids, out=edge_ids)
    return edge_ids, counts


def _ramp(total, workspace):
    """``0 .. total - 1``, the workspace's cached ramp when pooled."""
    if workspace is not None:
        return workspace.arange(total)
    return np.arange(total, dtype=EDGE_DTYPE)


def sort_unique(ids: np.ndarray) -> np.ndarray:
    """Sorted duplicate-free copy of ``ids``: sort, drop adjacent repeats.

    ``np.unique``'s core, inlined — identical output, without its lazy
    ``numpy.ma`` import (a one-time ~20 ms hit that would otherwise land
    inside the first timed superstep of a cold process).
    """
    s = ids.astype(VERTEX_DTYPE)  # a copy, sorted in place
    s.sort()
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s.compress(keep)


def dedup_ids(
    ids: np.ndarray, capacity: int, workspace: Optional[Workspace] = None
) -> np.ndarray:
    """Sorted duplicate-free copy of ``ids``, method picked by size.

    Below a quarter of ``capacity`` ids, :func:`sort_unique` (O(k log k));
    from there on a bitmap round-trip (O(k + n) scatter/gather, the flag
    buffer pooled when a workspace is supplied).  The crossover was
    measured at n = 2^16 and 2^18: sorting wins up to k ≈ n/4, the bitmap
    from k ≈ n/2 — and a high-diameter traversal's superstep, whose
    frontier is a few hundred ids, no longer pays an n-length
    ``np.nonzero`` scan.  Both methods return the same array.
    """
    if 4 * ids.shape[0] < capacity:
        return sort_unique(ids)
    if workspace is not None:
        flags = workspace.cleared("dedup.flags", capacity, bool)
    else:
        flags = np.zeros(capacity, dtype=bool)
    flags[ids] = True
    return np.nonzero(flags)[0].astype(VERTEX_DTYPE, copy=False)


def active_flags(
    frontier: Frontier, n: int, workspace: Optional[Workspace] = None
) -> np.ndarray:
    """Dense bool view of a frontier's active set (pooled when possible)."""
    if isinstance(frontier, DenseFrontier):
        return frontier.flags_view()
    if workspace is not None:
        flags = workspace.cleared("fused.active", n, bool)
    else:
        flags = np.zeros(n, dtype=bool)
    idx = (
        frontier.indices_view()
        if isinstance(frontier, SparseFrontier)
        else frontier.to_indices()
    )
    if idx.size:
        flags[idx] = True
    return flags


def _candidate_ids(n: int, candidates: Optional[np.ndarray]) -> np.ndarray:
    if candidates is None:
        return np.arange(n, dtype=VERTEX_DTYPE)
    return np.asarray(candidates, dtype=VERTEX_DTYPE).ravel()


# -- array-level kernel bodies -------------------------------------------------------
#
# One definition of each traversal kernel, over raw arrays and a
# *destination range* starting at ``lo``: the in-process kernels below
# call them over the whole graph (``lo = 0``), each ``par_proc`` worker
# over its own slice (:mod:`repro.execution.proc_kernels`).  State
# arrays (``values`` / ``levels``) are always whole, read for source
# values; destinations are range-local ids.  Every body returns the
# sorted unique range-local winners.  ``weights=None`` relaxes unweighted.

_NO_WINNERS = np.empty(0, dtype=VERTEX_DTYPE)


def _push_edges(offsets, targets, vertices, workspace):
    """``(edge slots, range-local destinations, per-vertex counts)`` of
    ``vertices``' out-edges in a CSR (or slice), or ``None``."""
    seg, counts = _gather_segments(offsets, vertices, workspace)
    if seg is None:
        return None
    if workspace is not None:
        return seg, workspace.take("fused.dsts", targets, seg), counts
    return seg, targets.take(seg), counts


def _pull_edges(offsets, sources, active, vertices, workspace):
    """``(edge slots, sources, range-local destinations)`` of the
    in-edges from ``active`` sources of range-local ``vertices``, over a
    CSC column slice starting at the range, or ``None``."""
    seg, counts = _gather_segments(offsets, vertices, workspace)
    if seg is None:
        return None
    srcs = sources.take(seg)
    live = active.take(srcs)
    if not live.any():
        return None
    dsts = vertices.repeat(counts).compress(live)
    return seg.compress(live), srcs.compress(live), dsts


def _fold_min(current, dsts, cand, out, workspace):
    """Min-fold the candidates that beat ``current`` (the pre-round
    values of the range) into ``out`` — ``current`` itself when ``None``,
    else private scratch whose touched slots are seeded here."""
    keep = cand < current.take(dsts)
    winners = dsts.compress(keep)
    if not winners.size:
        return _NO_WINNERS
    cand = cand.compress(keep)
    if out is None:
        out = current
    else:
        out[winners] = cand
    np.minimum.at(out, winners, cand)
    return dedup_ids(winners, out.shape[0], workspace)


def relax_push(
    offsets: np.ndarray, targets: np.ndarray, weights: Optional[np.ndarray],
    values: np.ndarray, vertices: np.ndarray, *, lo: int = 0,
    out: Optional[np.ndarray] = None, workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """Min-relax ``vertices``' out-edges into a destination range.

    ``offsets`` / ``targets`` / ``weights`` are a CSR over every source
    whose targets are range-local: the whole graph's, or one worker's
    slice holding only the in-edges of its range.  Improved values are
    folded into ``out`` (``None``: ``values[lo:]`` in place).
    """
    edges = _push_edges(offsets, targets, vertices, workspace)
    if edges is None:
        return _NO_WINNERS
    seg, dsts, counts = edges
    # Gather per-vertex then repeat: k reads + one repeat instead of
    # a length-E fancy gather through a repeated source array.
    cand = values.take(vertices).repeat(counts)
    if weights is not None:
        cand += weights.take(seg)
    return _fold_min(values[lo:], dsts, cand, out, workspace)


def relax_pull(
    offsets: np.ndarray, sources: np.ndarray, weights: Optional[np.ndarray],
    values: np.ndarray, active: np.ndarray, vertices: np.ndarray, *,
    lo: int = 0, out: Optional[np.ndarray] = None,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """Min-relax range-local ``vertices``' in-edges from the ``active``
    sources over a CSC column slice starting at ``lo`` (the whole CSC
    when ``lo = 0``); ``out`` as in :func:`relax_push`."""
    edges = _pull_edges(offsets, sources, active, vertices, workspace)
    if edges is None:
        return _NO_WINNERS
    seg, srcs, dsts = edges
    cand = values.take(srcs)
    if weights is not None:
        cand += weights.take(seg)
    return _fold_min(values[lo:], dsts, cand, out, workspace)


def claim_push(
    offsets: np.ndarray, targets: np.ndarray, levels: np.ndarray,
    vertices: np.ndarray, parents: np.ndarray, *, lo: int = 0,
    unreached: int = -1, workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """Claim the range's unreached children of ``vertices`` (arrays as
    in :func:`relax_push`) into the range-local ``parents``, freshness
    read from the range's pre-round levels.  Last write in edge order
    wins; a slice keeps every destination's edges in CSR order, so its
    parent is the whole graph's."""
    edges = _push_edges(offsets, targets, vertices, workspace)
    if edges is None:
        return _NO_WINNERS
    _, dsts, counts = edges
    fresh = levels[lo:].take(dsts) == unreached
    claimed = dsts.compress(fresh)
    if not claimed.size:
        return _NO_WINNERS
    parents[claimed] = vertices.repeat(counts).compress(fresh)
    return dedup_ids(claimed, parents.shape[0], workspace)


def claim_pull(
    offsets: np.ndarray, sources: np.ndarray, levels: np.ndarray,
    active: np.ndarray, vertices: np.ndarray, parents: np.ndarray, *,
    lo: int = 0, unreached: int = -1, workspace: Optional[Workspace] = None,
) -> Tuple[np.ndarray, int]:
    """The still-unreached range-local ``vertices`` scan their in-edges
    for an ``active`` parent and stop at the first one (arrays as in
    :func:`relax_pull`, ``parents`` as in :func:`claim_push`).

    Beamer's bottom-up step with GraphBLAST's early exit, vectorized in
    rounds: each candidate still scanning reads its next 1, 1, 2, 4, …
    in-edges, and leaves once it has found an active source or run out
    of in-edges — at most twice the edges of a one-at-a-time exit, in
    ⌈log₂ d_max⌉ + 2 rounds.  The parent is the first active
    in-neighbour in CSC order, which a column slice keeps.  Returns the
    sorted unique winners and the number of in-edges read.
    """
    cand = vertices.compress(levels[lo:].take(vertices) == unreached)
    pos = offsets.take(cand)
    end = offsets.take(cand + 1)
    left = pos < end
    cand, pos, end = cand.compress(left), pos.compress(left), end.compress(left)
    claimed = [_NO_WINNERS]
    scanned = rounds = 0
    while cand.size:
        width = 1 << max(rounds - 1, 0)  # edges per candidate: 1, 1, 2, 4, …
        rounds += 1
        if width == 1:
            counts = 1
            srcs = sources.take(pos)
            found = active.take(srcs)
            firsts = srcs.compress(found)
        else:
            counts = np.minimum(end - pos, width)
            starts = counts.cumsum()
            starts -= counts  # where each candidate's slots begin
            seg = (pos - starts).repeat(counts)
            ramp = _ramp(seg.size, workspace)
            seg += ramp
            srcs = sources.take(seg)
            # Each candidate's first active slot: the smallest slot left
            # once inactive ones are pushed past the end.
            first = np.minimum.reduceat(
                np.where(active.take(srcs), ramp, seg.size), starts
            )
            found = first < seg.size
            firsts = srcs.take(first.compress(found))
        scanned += srcs.size
        won = cand.compress(found)
        parents[won] = firsts
        claimed.append(won)
        pos += counts
        left = ~found
        left &= pos < end
        cand, pos, end = cand.compress(left), pos.compress(left), end.compress(left)
    winners = np.concatenate(claimed)
    return dedup_ids(winners, parents.shape[0], workspace), scanned


# -- in-process kernels: the whole-range calls ---------------------------------------


class MinRelaxKernel(FusedKernel):
    """Fused relax-and-emit: the SSSP / CC shape.

    ``candidate[e] = values[src(e)] (+ weight(e) when weighted)``,
    batched ``atomic::min`` into ``values``, output = the (deduplicated,
    sorted) set of destinations whose pre-batch value improved — exactly
    :func:`~repro.execution.atomics.bulk_min_relax` run inside the
    expand, with no intermediate edge tuple materialized for the
    condition protocol.
    """

    name = "min_relax"

    def __init__(self, values: np.ndarray, *, weighted: bool = True) -> None:
        self.values = values
        self.weighted = weighted

    def push(self, graph, vertices, output, workspace):
        """Relax the frontier's out-edges in one batched min pass."""
        csr = graph.csr()
        winners = relax_push(
            csr.row_offsets, csr.column_indices,
            csr.values if self.weighted else None, self.values, vertices,
            workspace=workspace,
        )
        return emit(output, winners) if winners.size else output

    def pull(self, graph, frontier, candidates, output, workspace):
        """Relax candidates' in-edges from the active set (CSC side)."""
        csc = graph.csc()
        n = graph.n_vertices
        winners = relax_pull(
            csc.col_offsets, csc.row_indices,
            csc.values if self.weighted else None, self.values,
            active_flags(frontier, n, workspace), _candidate_ids(n, candidates),
            workspace=workspace,
        )
        return emit(output, winners) if winners.size else output


class ClaimLevelsKernel(FusedKernel):
    """Fused BFS discovery: claim unvisited destinations, stamping level
    and parent in the same pass.

    Push matches the classic bulk ``discover`` condition exactly:
    freshness is evaluated against pre-batch levels (so several parents
    of one child all pass) and the level/parent writes are
    last-write-wins, which is benign — any discovering parent is a
    valid BFS parent.  Pull stops each candidate at its first active
    in-neighbour (:func:`claim_pull`) and records the in-edges it read
    in ``scanned``.
    """

    name = "claim_levels"

    def __init__(
        self, levels: np.ndarray, parents: np.ndarray, *, unreached: int = -1
    ) -> None:
        self.levels = levels
        self.parents = parents
        self.unreached = unreached
        #: In-edges the last pull read (the superstep's work).
        self.scanned = 0

    def stamp_levels(self, winners: np.ndarray) -> None:
        """Level each winner one past the parent it was claimed by."""
        levels = self.levels
        levels[winners] = levels.take(self.parents.take(winners)) + 1

    def _commit(self, output, winners):
        if not winners.size:
            return output
        self.stamp_levels(winners)
        return emit(output, winners)

    def push(self, graph, vertices, output, workspace):
        """Claim unvisited children of the frontier (CSR expand)."""
        csr = graph.csr()
        winners = claim_push(
            csr.row_offsets, csr.column_indices, self.levels, vertices,
            self.parents, unreached=self.unreached, workspace=workspace,
        )
        return self._commit(output, winners)

    def pull(self, graph, frontier, candidates, output, workspace):
        """Unvisited candidates scan in-edges for a visited parent."""
        csc = graph.csc()
        n = graph.n_vertices
        winners, self.scanned = claim_pull(
            csc.col_offsets, csc.row_indices, self.levels,
            active_flags(frontier, n, workspace), _candidate_ids(n, candidates),
            self.parents, unreached=self.unreached, workspace=workspace,
        )
        return self._commit(output, winners)


# -- condition factories ------------------------------------------------------------


def min_relax_condition(values: np.ndarray, *, weighted: bool = True) -> Callable:
    """A bulk min-relax condition carrying its fused kernel.

    Under any policy the returned condition behaves exactly like the
    handwritten form (``new = values[src] (+ w); return
    bulk_min_relax(values, dst, new)``); under ``par_vector`` the
    attached :class:`MinRelaxKernel` lets ``neighbors_expand`` run the
    whole superstep in one pass.
    """

    if weighted:

        @bulk_condition
        def condition(srcs, dsts, edges, weights):
            return bulk_min_relax(values, dsts, values[srcs] + weights)

    else:

        @bulk_condition
        def condition(srcs, dsts, edges, weights):
            return bulk_min_relax(values, dsts, values[srcs])

    setattr(condition, FUSED_ATTR, MinRelaxKernel(values, weighted=weighted))
    return condition


def claim_levels_condition(
    levels: np.ndarray, parents: np.ndarray, *, unreached: int = -1
) -> Callable:
    """A BFS discovery condition carrying its fused kernel.

    The plain-call form serves both scalar (``seq``) and bulk policies,
    normalizing scalars the same way the handwritten BFS condition did.
    """

    @bulk_condition
    def condition(srcs, dsts, edges, weights):
        scalar = np.ndim(srcs) == 0
        s = np.atleast_1d(np.asarray(srcs, dtype=np.int64))
        d = np.atleast_1d(np.asarray(dsts, dtype=np.int64))
        fresh = levels[d] == unreached
        if np.any(fresh):
            claimed = d[fresh]
            levels[claimed] = levels[s[fresh]] + 1
            parents[claimed] = s[fresh]
        return bool(fresh[0]) if scalar else fresh

    setattr(
        condition, FUSED_ATTR, ClaimLevelsKernel(levels, parents, unreached=unreached)
    )
    return condition


# -- segmented sums ------------------------------------------------------------------


def segmented_sum(
    indices: np.ndarray,
    weights: np.ndarray,
    size: int,
    *,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """Dense scatter-add: ``out[i] = Σ weights[k] for indices[k] == i``.

    The ``np.bincount`` form of ``np.add.at(out, indices, weights)`` —
    an order of magnitude faster when ``indices`` covers most of
    ``0..size-1`` (every whole-graph aggregate does).  Returns float64,
    matching the accumulator dtype the rank algorithms already use.
    Prefer ``np.add.at`` only when the index set is a small, sparse
    subset of the range (then the O(size) bincount pass dominates).
    """
    return np.bincount(indices, weights=weights, minlength=size)


# -- frontier-adaptive dispatch ------------------------------------------------------


def choose_direction(
    graph: Graph,
    frontier: Frontier,
    *,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    last_direction: str = "push",
) -> str:
    """Beamer-style per-iteration push↔pull choice.

    Estimates the frontier's outgoing work as ``|frontier| × average
    degree`` (degree statistics, no per-vertex gather) and switches to
    pull when it exceeds ``m / alpha`` — the regime where scanning
    candidates' in-edges beats expanding a huge frontier.  Once pulled,
    switches back to push only when the frontier re-narrows below
    ``n / beta`` (the hysteresis that avoids thrashing at the crossover).
    """
    n = graph.n_vertices
    m = graph.n_edges
    size = frontier.size()
    if n == 0 or m == 0 or size == 0:
        return "push"
    frontier_edges = size * (m / n)
    if last_direction == "pull":
        return "push" if size < n / beta else "pull"
    return "pull" if frontier_edges > m / alpha else "push"


def choose_representation(
    frontier: Frontier,
    *,
    threshold: float = DENSE_REPRESENTATION_THRESHOLD,
) -> str:
    """Sparse↔dense output choice at a density threshold.

    The input frontier's active fraction is the predictor: a dense
    frontier expands into a dense output (bitmap dedup is free there),
    a narrow one stays sparse (O(k) instead of O(n) per superstep).
    """
    return "dense" if frontier.active_fraction() >= threshold else "sparse"
