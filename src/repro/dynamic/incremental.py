"""Incremental recompute: repair results from the affected set.

The paper's frontier/operator decomposition makes "start from the dirty
vertices" a first-class operation (Gunrock's framing): the repair loops
below are *the same* ``neighbors_expand`` + min-relax supersteps the
static algorithms run — only the initial frontier changes, from
``{source}`` (or all vertices) to the set of vertices a mutation batch
can actually affect.  Each function returns the static algorithm's
result type, so callers swap ``sssp(...)`` for
``incremental_sssp(...)`` without touching anything downstream.

The repair recipes:

* **SSSP** — inserted edges are relaxed directly (monotone improvement
  propagates forward); deletions invalidate the *least* fixpoint of
  lost tight support (a vertex with a surviving tight in-edge from a
  strictly closer valid vertex keeps its distance), the invalidated
  region resets to ``INF``, and the boundary (finite-distance
  in-neighbors of the invalidated set) re-relaxes it.
* **BFS** — the same with unit weights, plus the parent tree: deleted
  parent edges start a level-ordered invalidation wave that a vertex
  escapes by having *any* surviving in-edge from a valid vertex one
  level up; repaired (and rescued-but-orphaned) vertices pick any
  tight in-edge as the new parent (the conformance comparator is
  tie-tolerant, as any valid parent is a valid BFS tree).
* **CC** — a deleted edge matters only if it disconnects its
  endpoints, so deletions are settled by one exact certificate: an
  undirected BFS from the root of every component that lost an edge
  (one traversal of the affected components, however many deletions
  the batch carries); unreached members are genuine split-offs and are
  relabelled in place.  Insertions merge at the label level (the CC
  hook loop, grafting whole components along the inserted edges).
* **PageRank / PPR** — warm restart: power iteration from the previous
  rank vector converges to the same fixed point (it is a contraction),
  typically in a small fraction of the cold-start iterations after a
  small mutation batch.

Every repair records a ``dynamic:repair`` span with the invalidated /
seed counts, and ``dynamic.*`` counters through the ambient Probe.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.algorithms.bfs import BFSResult, UNREACHED
from repro.algorithms.cc import CCResult, merge_components
from repro.algorithms.pagerank import PageRankResult, pagerank
from repro.algorithms.ppr import PPRResult, personalized_pagerank
from repro.algorithms.sssp import SSSPResult
from repro.dynamic.dynamic_graph import DynamicGraph, MutationBatch
from repro.errors import GraphFormatError
from repro.execution.atomics import AtomicArray
from repro.execution.policy import (
    ExecutionPolicy,
    SequencedPolicy,
    VectorPolicy,
    par_vector,
    resolve_policy,
)
from repro.frontier.sparse import SparseFrontier
from repro.graph.csc import CSCMatrix
from repro.graph.csr import CSRMatrix
from repro.graph.graph import Graph
from repro.loop.enactor import Enactor
from repro.observability.probe import active_probe
from repro.operators.advance import neighbors_expand
from repro.operators.conditions import scalar_condition
from repro.operators.fused import (
    fused_kernel_of,
    min_relax_condition,
)
from repro.operators.uniquify import uniquify
from repro.types import (
    INF,
    INVALID_VERTEX,
    VALUE_DTYPE,
    VERTEX_DTYPE,
    WEIGHT_DTYPE,
)
from repro.utils.counters import IterationStats, RunStats

GraphLike = Union[Graph, DynamicGraph]


def _resolve(graph: GraphLike, batch: Optional[MutationBatch], since_epoch):
    """Normalize the (graph, batch) pair every incremental entry takes.

    A :class:`DynamicGraph` supplies both the merged snapshot and (via
    its mutation log) the batch; a plain :class:`Graph` must come with
    an explicit batch.
    """
    if isinstance(graph, DynamicGraph):
        merged = graph.graph()
        if batch is None:
            batch = graph.mutations_since(
                0 if since_epoch is None else since_epoch
            )
        return merged, batch
    if batch is None:
        raise GraphFormatError(
            "incremental recompute on a plain Graph needs an explicit "
            "MutationBatch (pass batch=, or pass the DynamicGraph)"
        )
    return graph, batch


def _min_relax_fixpoint(
    graph: Graph,
    values: np.ndarray,
    seed_ids: np.ndarray,
    policy,
    *,
    state_name: str,
    resilience=None,
) -> RunStats:
    """Run the label-correcting relax loop from ``seed_ids`` to empty.

    This is :func:`repro.algorithms.sssp.sssp`'s superstep verbatim —
    scalar atomic min under threaded/sequential policies, the fused
    single-pass kernel under ``par_vector`` — so repair inherits the
    whole policy matrix for free.
    """
    n = graph.n_vertices
    if seed_ids.size == 0:
        stats = RunStats()
        stats.converged = True
        return stats

    if isinstance(policy, (SequencedPolicy,)) or (
        not isinstance(policy, VectorPolicy) and policy.parallel
    ):
        atomic = AtomicArray(values)

        @scalar_condition
        def condition(src, dst, edge, weight):
            new_v = values[src] + weight
            curr = atomic.min_at(dst, new_v)
            return new_v < curr

    else:
        condition = min_relax_condition(values)

    enactor = Enactor(graph)
    emits_sets = (
        isinstance(policy, VectorPolicy)
        and fused_kernel_of(condition) is not None
    )

    def step(f, state):
        out = neighbors_expand(
            policy, graph, f, condition, workspace=enactor.workspace
        )
        if not emits_sets:
            out = uniquify(policy, out, workspace=enactor.workspace)
        return out

    frontier = SparseFrontier.from_indices(
        seed_ids.astype(VERTEX_DTYPE, copy=False), n
    )
    return enactor.run(
        frontier,
        step,
        resilience=resilience,
        state_arrays={state_name: values},
    )


def _arc_positions(offsets: np.ndarray, ids: np.ndarray):
    """Positions of every arc in the ``ids``' segments of a CSR/CSC
    offsets array, plus the per-id segment lengths."""
    offs = offsets.astype(np.int64, copy=False)
    starts = offs[ids]
    cnts = offs[ids + 1] - starts
    seg0 = np.cumsum(cnts) - cnts
    idx = np.repeat(starts - seg0, cnts)
    idx += np.arange(idx.size, dtype=np.int64)
    return idx, cnts


def _relax_push(
    merged: Graph,
    dist: np.ndarray,
    seeds: np.ndarray,
    *,
    unit: bool,
) -> RunStats:
    """The ``par_vector`` fast path of :func:`_min_relax_fixpoint`.

    Same label-correcting fixpoint, hand-vectorized: gather the
    frontier's out-edges straight off the CSR arrays, scatter-min the
    improvements, and the vertices whose value actually dropped form
    the next frontier.  Repair frontiers are batch-sized, not
    graph-sized, so the generic operator pipeline's per-superstep
    machinery (workspaces, frontier objects, dedup passes) would
    dominate the runtime — this loop is the same dozen numpy kernels
    with nothing between them.  ``unit=True`` relaxes hop counts
    (BFS) without touching the weight array at all.
    """
    stats = RunStats()
    csr = merged.csr()
    frontier = np.unique(seeds).astype(np.int64)
    iteration = 0
    while frontier.size:
        idx, cnts = _arc_positions(csr.row_offsets, frontier)
        if idx.size == 0:
            break
        dsts = csr.column_indices[idx].astype(np.int64)
        src_d = np.repeat(dist[frontier], cnts)
        cand = src_d + 1.0 if unit else src_d + csr.values[idx]
        better = cand < dist[dsts]
        stats.record(
            IterationStats(iteration, int(frontier.size), int(idx.size), 0.0)
        )
        iteration += 1
        if not np.any(better):
            break
        d2 = dsts[better]
        c2 = cand[better]
        snap = dist[d2]
        np.minimum.at(dist, d2, c2)
        frontier = np.unique(d2[dist[d2] < snap])
    stats.converged = True
    return stats


def _pull_refill(
    merged: Graph,
    dist: np.ndarray,
    invalid: np.ndarray,
    *,
    unit: bool,
) -> np.ndarray:
    """One pull step: refill each invalidated vertex from its in-edges.

    The CSC stores a vertex's in-edges contiguously, so one gather plus
    a segmented ``minimum.reduceat`` recomputes every invalidated
    vertex's best supported value in a handful of kernels — far cheaper
    than seeding the push loop with the whole region boundary and
    expanding *all* of the boundary's out-edges.  Invalid sources hold
    the INF sentinel, so they never vouch for a neighbor.  Returns the
    vertices that ended up with a finite value — the push loop's
    starting frontier; vertices supported only through other invalid
    vertices get their value when those push.
    """
    inv = np.nonzero(invalid)[0]
    if inv.size == 0:
        return inv
    csc = merged.csc()
    inv = inv[csc.col_offsets[inv + 1] > csc.col_offsets[inv]]
    if inv.size == 0:
        return inv
    idx, cnts = _arc_positions(csc.col_offsets, inv)
    srcs = csc.row_indices[idx]
    cand = dist[srcs] + 1.0 if unit else dist[srcs] + csc.values[idx]
    seg0 = np.cumsum(cnts) - cnts
    refilled = np.minimum(dist[inv], np.minimum.reduceat(cand, seg0))
    dist[inv] = refilled
    return inv[refilled < INF]


def _tight_invalidate(
    merged: Graph,
    old: np.ndarray,
    dirty: np.ndarray,
    *,
    protect: int,
) -> np.ndarray:
    """Least fixpoint of "invalid iff no surviving tight support".

    A vertex's old distance survives a deletion batch iff it still has
    a *tight in-edge* (``old[src] + w == old[dst]``) from a vertex that
    itself survives.  Starting from the heads of deleted supporting
    edges, each candidate is first given the chance to be **rescued**
    by an alternative tight in-edge from a strictly-closer valid vertex
    (strictness keeps zero-weight cycles from vouching for themselves);
    only unrescued candidates are invalidated, and their tight
    out-neighbors re-examined — a supporter falling later re-queues
    anyone it had previously rescued.  Tight support strictly decreases
    distance along the chain, so the dependency order is acyclic and
    the iteration terminates with the *minimal* invalid set — the whole
    point, since repair cost scales with it.

    Returns a boolean mask; ``protect`` (the source) is never marked.
    """
    csr = merged.csr()
    csc = merged.csc()
    n = old.shape[0]
    invalid = np.zeros(n, dtype=bool)
    wave = np.unique(dirty[dirty != protect]).astype(VERTEX_DTYPE)
    while wave.size:
        srcs, dsts, _, wts = csc.gather_in_edges(wave)
        rescued = np.zeros(n, dtype=bool)
        if srcs.size:
            support = (
                (old[srcs] < old[dsts])
                & ~invalid[srcs]
                & (old[srcs] + wts == old[dsts])
            )
            rescued[dsts[support]] = True
        newly = wave[~rescued[wave] & ~invalid[wave]]
        if newly.size == 0:
            break
        invalid[newly] = True
        s2, d2, _, w2 = csr.expand_vertices(newly)
        dependents = (
            (old[d2] < INF)
            & (old[s2] + w2 == old[d2])
            & ~invalid[d2]
            & (d2 != protect)
        )
        wave = np.unique(d2[dependents]).astype(VERTEX_DTYPE)
    return invalid


def _gather_arcs(
    offsets: np.ndarray,
    targets: np.ndarray,
    ids: np.ndarray,
    keep: Optional[np.ndarray] = None,
):
    """``(endpoint, owner)`` arc pairs for ``ids`` off raw index arrays.

    One segmented gather off a CSR/CSC offset+index pair — the weight
    and sort work :meth:`gather_in_edges` / :meth:`expand_vertices` do
    is pure waste on the structural hot paths here (level rescue, kid
    cascade, parent re-pick), which only need endpoints.  ``keep``, a
    per-arc mask over the same arrays, drops the arcs it marks False.
    """
    idx, cnts = _arc_positions(offsets, ids)
    owners = np.repeat(ids.astype(np.int64, copy=False), cnts)
    if keep is not None:
        sel = keep[idx]
        idx, owners = idx[sel], owners[sel]
    return targets[idx].astype(np.int64), owners


def _boundary_seeds(graph: Graph, values: np.ndarray, invalid: np.ndarray):
    """Finite-valued in-neighbors of the invalidated set — the frontier
    from which the region is re-derived."""
    inv_ids = np.nonzero(invalid)[0].astype(VERTEX_DTYPE)
    if inv_ids.size == 0:
        return np.empty(0, dtype=VERTEX_DTYPE)
    srcs, _, _, _ = graph.csc().gather_in_edges(inv_ids)
    if srcs.size == 0:
        return np.empty(0, dtype=VERTEX_DTYPE)
    return np.unique(srcs[values[srcs] < INF]).astype(VERTEX_DTYPE)


def incremental_sssp(
    graph: GraphLike,
    prev: SSSPResult,
    *,
    batch: Optional[MutationBatch] = None,
    since_epoch: Optional[int] = None,
    policy: Union[str, ExecutionPolicy] = par_vector,
    resilience=None,
) -> SSSPResult:
    """Repair a previous SSSP result after a mutation batch.

    ``graph`` is the mutated graph (a :class:`DynamicGraph`, or a plain
    merged :class:`Graph` with ``batch`` given explicitly); ``prev`` is
    the result computed before the batch.  Distances equal a full
    recompute's exactly — the metamorphic oracle in ``repro verify``
    holds this to account across the policy matrix.
    """
    policy = resolve_policy(policy)
    merged, batch = _resolve(graph, batch, since_epoch)
    source = prev.source
    old = prev.distances
    dist = old.astype(VALUE_DTYPE, copy=True)
    probe = active_probe()
    with probe.span(
        "dynamic:repair", algorithm="sssp", batch=batch.size
    ) as span:
        invalid = np.zeros(merged.n_vertices, dtype=bool)
        if batch.n_removed:
            rs, rd, rw = (
                batch.removed_src.astype(np.int64),
                batch.removed_dst.astype(np.int64),
                batch.removed_w.astype(VALUE_DTYPE),
            )
            supported = (old[rs] < INF) & (old[rs] + rw == old[rd])
            invalid = _tight_invalidate(
                merged, old, rd[supported].astype(VERTEX_DTYPE), protect=source
            )
            dist[invalid] = INF
        vector = isinstance(policy, VectorPolicy)
        seeds = []
        if batch.n_inserted:
            is_, id_ = (
                batch.inserted_src.astype(np.int64),
                batch.inserted_dst.astype(np.int64),
            )
            cand = (dist[is_] + batch.inserted_w.astype(VALUE_DTYPE)).astype(
                VALUE_DTYPE
            )
            before = dist[id_].copy()
            np.minimum.at(dist, id_, cand)
            seeds.append(
                np.unique(id_[dist[id_] < before]).astype(VERTEX_DTYPE)
            )
        if vector:
            seeds.append(
                _pull_refill(merged, dist, invalid, unit=False).astype(
                    VERTEX_DTYPE
                )
            )
        else:
            seeds.append(_boundary_seeds(merged, dist, invalid))
        seed_ids = np.unique(np.concatenate(seeds)).astype(VERTEX_DTYPE)
        n_invalid = int(np.count_nonzero(invalid))
        span.set("invalidated", n_invalid)
        span.set("seeds", int(seed_ids.size))
        probe.counter("dynamic.invalidated", n_invalid)
        probe.counter("dynamic.repair_seeds", int(seed_ids.size))
        if vector:
            stats = _relax_push(merged, dist, seed_ids, unit=False)
        else:
            stats = _min_relax_fixpoint(
                merged,
                dist,
                seed_ids,
                policy,
                state_name="dist",
                resilience=resilience,
            )
    return SSSPResult(distances=dist, source=source, stats=stats)


def _unit_weight_graph(merged: Graph) -> Graph:
    """The merged structure with unit weights (shared index arrays) —
    BFS-as-SSSP needs hop counts, not edge weights.

    The CSC is built from ``merged``'s (deriving it there so the
    transpose is cached on the snapshot across repair calls) rather
    than re-transposed per call: the index arrays are identical, only
    the values differ, and they are all ones anyway.
    """
    csr = merged.csr()
    ones = np.ones(csr.get_num_edges(), dtype=WEIGHT_DTYPE)
    csc = merged.csc()
    views = {
        "csr": CSRMatrix(
            csr.n_rows, csr.n_cols, csr.row_offsets, csr.column_indices, ones
        ),
        "csc": CSCMatrix(
            csc.n_rows, csc.n_cols, csc.col_offsets, csc.row_indices, ones
        ),
    }
    return Graph(views, merged.properties)


def incremental_bfs(
    graph: GraphLike,
    prev: BFSResult,
    *,
    batch: Optional[MutationBatch] = None,
    since_epoch: Optional[int] = None,
    policy: Union[str, ExecutionPolicy] = par_vector,
    resilience=None,
) -> BFSResult:
    """Repair BFS levels and parents after a mutation batch.

    Deleted parent-tree edges start an invalidation wave processed in
    increasing level order: a candidate with a surviving in-edge from a
    still-valid vertex one level up is *rescued* (its level is still
    achievable — only its parent pointer may need re-picking), and
    invalidation cascades only through vertices with no alternate
    support.  Repair then runs the unit-weight min-relax from the
    region boundary and re-derives parents for every vertex whose
    level changed or whose recorded parent edge is gone.
    """
    policy = resolve_policy(policy)
    merged, batch = _resolve(graph, batch, since_epoch)
    n = merged.n_vertices
    source = prev.source
    old_levels = prev.levels
    levels = old_levels.copy()
    parents = prev.parents.copy()
    probe = active_probe()
    with probe.span(
        "dynamic:repair", algorithm="bfs", batch=batch.size
    ) as span:
        # 1. Invalidate exactly the vertices that lost all level
        #    support.  Candidates are processed in increasing old-level
        #    order (supporters live one level up, so they are already
        #    decided): a candidate with a surviving in-edge from a
        #    still-valid vertex at ``level - 1`` keeps its level — only
        #    its parent pointer may need repair — and invalidation
        #    cascades only through vertices with no such alternate.
        invalid = np.zeros(n, dtype=bool)
        broken_roots = np.empty(0, dtype=np.int64)
        if batch.n_removed:
            csc = merged.csc()
            rs = batch.removed_src.astype(np.int64)
            rd = batch.removed_dst.astype(np.int64)
            broken = (
                (levels[rd] > 0)
                & (parents[rd] == rs.astype(parents.dtype))
                & (rd != source)
            )
            broken_roots = np.unique(rd[broken])
            pending = broken_roots
            while pending.size:
                level = int(old_levels[pending].min())
                at_level = old_levels[pending] == level
                now = pending[at_level]
                rest = pending[~at_level]
                srcs, dsts = _gather_arcs(
                    csc.col_offsets, csc.row_indices, now
                )
                rescued = np.zeros(n, dtype=bool)
                if srcs.size:
                    support = ~invalid[srcs] & (
                        old_levels[srcs] == level - 1
                    )
                    rescued[dsts[support]] = True
                newly = now[~rescued[now]]
                invalid[newly] = True
                kids = np.empty(0, dtype=np.int64)
                if newly.size:
                    csr = merged.csr()
                    d2, _ = _gather_arcs(
                        csr.row_offsets, csr.column_indices, newly
                    )
                    kids = np.unique(
                        d2[
                            (old_levels[d2] == level + 1)
                            & ~invalid[d2]
                            & (d2 != source)
                        ]
                    )
                pending = np.union1d(rest, kids)
        # 2. Levels as float distances; invalid region reset.
        #    _boundary_seeds/_min_relax compare against float32 INF;
        #    use a float64 array with INF as the sentinel.
        dist = np.where(
            (levels < 0) | invalid, INF, levels.astype(np.float64)
        )
        vector = isinstance(policy, VectorPolicy)
        seeds = []
        if batch.n_inserted:
            is_ = batch.inserted_src.astype(np.int64)
            id_ = batch.inserted_dst.astype(np.int64)
            cand = dist[is_] + 1.0
            before = dist[id_].copy()
            np.minimum.at(dist, id_, cand)
            seeds.append(
                np.unique(id_[dist[id_] < before]).astype(VERTEX_DTYPE)
            )
        if vector:
            seeds.append(
                _pull_refill(merged, dist, invalid, unit=True).astype(
                    VERTEX_DTYPE
                )
            )
        else:
            seeds.append(_boundary_seeds(merged, dist, invalid))
        seed_ids = np.unique(np.concatenate(seeds)).astype(VERTEX_DTYPE)
        n_invalid = int(np.count_nonzero(invalid))
        span.set("invalidated", n_invalid)
        span.set("seeds", int(seed_ids.size))
        probe.counter("dynamic.invalidated", n_invalid)
        probe.counter("dynamic.repair_seeds", int(seed_ids.size))
        if vector:
            stats = _relax_push(merged, dist, seed_ids, unit=True)
        else:
            stats = _min_relax_fixpoint(
                _unit_weight_graph(merged),
                dist,
                seed_ids,
                policy,
                state_name="levels",
                resilience=resilience,
            )
        # 3. Back to integer levels; fix parents where needed.  Three
        #    ways a parent pointer goes stale: the vertex itself was
        #    repaired; it was a rescued broken root (level kept, but
        #    the recorded edge is gone); or its recorded parent was
        #    repaired to a different level out from under it.
        new_levels = np.where(dist < INF, dist, UNREACHED).astype(np.int64)
        new_levels[source] = 0
        changed = (new_levels != old_levels) | invalid
        changed[broken_roots] = True
        pclamp = np.where(parents >= 0, parents, 0).astype(np.int64)
        changed |= (
            (new_levels > 0)
            & (parents >= 0)
            & (new_levels[pclamp] != new_levels - 1)
        )
        changed[source] = False
        parents[changed] = INVALID_VERTEX
        fix = np.nonzero(changed & (new_levels >= 0))[0]
        if fix.size:
            csc = merged.csc()
            srcs, dsts = _gather_arcs(
                csc.col_offsets, csc.row_indices, fix
            )
            tight = (new_levels[srcs] >= 0) & (
                new_levels[srcs] + 1 == new_levels[dsts]
            )
            # Any tight in-edge is a valid parent; last write wins.
            parents[dsts[tight]] = srcs[tight]
    levels = new_levels
    return BFSResult(levels=levels, parents=parents, source=source, stats=stats)


def _deletion_arcs(merged: Graph, batch: MutationBatch):
    """The snapshot's underlying undirected structure *minus the
    batch's inserted arcs*, as ``(offsets, endpoints, keep)`` triples
    over its own CSR (out-arcs) and CSC (in-arcs).

    Deletion certificates must run on exactly "yesterday's structure
    after the deletions": traversing an inserted edge would let one
    component's BFS wander into another and mark a genuinely split-off
    piece as reached, silently re-gluing it to a component it no longer
    belongs to when the insert merge later joins labels.  Every
    insert-induced reconnection instead goes through that merge.

    ``keep`` is a per-arc mask, False exactly on inserted arcs (None
    when the batch inserts nothing).  Only the CSR rows of inserted
    sources and the CSC columns of inserted destinations can hold one,
    so only those are scanned.
    """
    csr, csc = merged.csr(), merged.csc()
    out_arcs = (csr.row_offsets, csr.column_indices)
    in_arcs = (csc.col_offsets, csc.row_indices)
    if not batch.n_inserted:
        return [(*out_arcs, None), (*in_arcs, None)]
    n = np.int64(merged.n_vertices)
    src = batch.inserted_src.astype(np.int64)
    dst = batch.inserted_dst.astype(np.int64)
    sides = []
    for (offsets, ends), owner, other in (
        (out_arcs, src, dst),
        (in_arcs, dst, src),
    ):
        # Owner-major keys: the gathered arcs come out grouped by
        # ascending owner, so the binary searches probe in order.
        inserted = np.sort(owner * n + other)
        owners = np.unique(owner)
        idx, cnts = _arc_positions(offsets, owners)
        keys = np.repeat(owners * n, cnts) + ends[idx]
        pos = np.minimum(np.searchsorted(inserted, keys), inserted.size - 1)
        keep = np.ones(ends.shape[0], dtype=bool)
        keep[idx[inserted[pos] == keys]] = False
        sides.append((offsets, ends, keep))
    return sides


def _certified_reach(sides, n: int, roots: np.ndarray) -> np.ndarray:
    """Vertices reachable from ``roots`` over the underlying undirected
    deletion-only structure — the exact certificate deletions need.

    One frontier BFS that gathers each level's out-arcs from the CSR
    and in-arcs from the CSC (:func:`_deletion_arcs`); every edge of
    the roots' components is touched once, so the cost is proportional
    to the components that actually lost an edge, not to the graph.
    """
    seen = np.zeros(n, dtype=bool)
    seen[roots] = True
    frontier = roots
    while frontier.size:
        # Scatter-first: dumping every gathered neighbor into a fresh
        # mask and subtracting ``seen`` afterwards beats filtering the
        # gather on the heavy middle levels of a scale-free component.
        mask = np.zeros(n, dtype=bool)
        for offsets, ends, keep in sides:
            idx, _ = _arc_positions(offsets, frontier)
            if keep is not None:
                idx = idx[keep[idx]]
            mask[ends[idx]] = True
        mask &= ~seen
        seen |= mask
        frontier = np.nonzero(mask)[0]
    return seen


def _relabel_split(sides, labels: np.ndarray, cut: np.ndarray) -> int:
    """Relabel the split-off vertices ``cut`` to per-component minima.

    Every surviving non-inserted edge out of a cut vertex leads to
    another cut vertex (anything still tied to the old root was
    reached by the certificate BFS; old edges never cross old
    components), so a min-label hook-and-shortcut loop restricted to
    the cut's own deletion-structure edges settles the new labels in
    :math:`O(\\log)` rounds.  Inserted edges that tie a cut piece to
    anything — another piece, its old component, a different component
    — are deliberately left to the caller's label-level merge.
    """
    cut_ids = np.nonzero(cut)[0]
    if cut_ids.size == 0:
        return 0
    labels[cut_ids] = cut_ids.astype(labels.dtype)
    # Both ends of a kept arc are cut, so the hook (symmetric) needs
    # only the out-arcs: every such edge is in its source's CSR row.
    offsets, ends, keep = sides[0]
    dsts, srcs = _gather_arcs(offsets, ends, cut_ids, keep)
    inside = cut[dsts]
    merge_components(labels, srcs[inside], dsts[inside])
    return int(cut_ids.size)


def incremental_cc(
    graph: GraphLike,
    prev: CCResult,
    *,
    batch: Optional[MutationBatch] = None,
    since_epoch: Optional[int] = None,
    policy: Union[str, ExecutionPolicy] = par_vector,
    resilience=None,
) -> CCResult:
    """Repair connected components after a mutation batch.

    A deleted edge changes nothing unless it actually disconnects its
    endpoints, so deletions are settled by one exact *reachability
    certificate*: an undirected BFS from the root (minimum-id) vertex
    of every component that lost an edge.  Members the BFS still
    reaches keep their label; the rest are genuine split-offs and are
    relabelled by a hook-and-shortcut min-label pass restricted to
    their own edges.  The certificate costs one traversal of the
    affected components — independent of how many deletions the batch
    carries.  Insertions then merge at the *label* level — the hook
    loop over component roots, no propagation — which also
    stitches split-offs (and their old components) back together when
    an inserted edge bridges them.
    """
    policy = resolve_policy(policy)
    merged, batch = _resolve(graph, batch, since_epoch)
    n = merged.n_vertices
    labels = prev.labels.copy()
    probe = active_probe()
    with probe.span(
        "dynamic:repair", algorithm="cc", batch=batch.size
    ) as span:
        stats = RunStats()
        stats.converged = True
        n_relabelled = 0
        n_roots = 0
        if batch.n_removed and n:
            rs = batch.removed_src.astype(np.int64)
            rd = batch.removed_dst.astype(np.int64)
            real = rs != rd  # self-loops never carry connectivity
            if np.any(real):
                ends = np.concatenate([rs[real], rd[real]])
                # Labels are component-minimum vertex ids, so a label
                # value doubles as the component's root vertex.
                roots = np.unique(labels[ends]).astype(np.int64)
                n_roots = int(roots.size)
                sides = _deletion_arcs(merged, batch)
                seen = _certified_reach(sides, n, roots)
                cut = np.isin(labels, roots) & ~seen
                n_relabelled = _relabel_split(sides, labels, cut)
        if batch.n_inserted:
            # Merge at the label level: component-minimum labels are
            # already stars rooted at their minima, so the hook loop
            # grafts whole components along the inserted edges.
            merge_components(labels, batch.inserted_src, batch.inserted_dst)
        span.set("invalidated", n_relabelled)
        span.set("seeds", n_roots)
        probe.counter("dynamic.invalidated", n_relabelled)
        probe.counter("dynamic.repair_seeds", n_roots)
    return CCResult.from_labels(labels, stats)


def incremental_pagerank(
    graph: GraphLike,
    prev: PageRankResult,
    *,
    batch: Optional[MutationBatch] = None,
    since_epoch: Optional[int] = None,
    policy: Union[str, ExecutionPolicy] = par_vector,
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
) -> PageRankResult:
    """PageRank warm-restarted from the previous rank vector.

    Power iteration is a contraction toward a unique fixed point, so
    starting near it (the pre-mutation ranks, for a small batch) needs
    far fewer iterations than the uniform cold start — same result
    type, same tolerance semantics.
    """
    merged, _ = _resolve(graph, batch, since_epoch or 0)
    probe = active_probe()
    with probe.span(
        "dynamic:repair", algorithm="pagerank", warm=True
    ):
        result = pagerank(
            merged,
            damping=damping,
            tolerance=tolerance,
            max_iterations=max_iterations,
            policy=policy,
            initial_ranks=prev.ranks,
        )
        probe.counter("dynamic.warm_iterations", result.iterations)
    return result


def incremental_ppr(
    graph: GraphLike,
    prev: PPRResult,
    *,
    batch: Optional[MutationBatch] = None,
    since_epoch: Optional[int] = None,
    policy: Union[str, ExecutionPolicy] = par_vector,
    damping: float = 0.85,
    tolerance: float = 1e-8,
    max_iterations: int = 200,
) -> PPRResult:
    """Personalized PageRank warm-restarted from the previous ranks."""
    merged, _ = _resolve(graph, batch, since_epoch or 0)
    probe = active_probe()
    with probe.span("dynamic:repair", algorithm="ppr", warm=True):
        result = personalized_pagerank(
            merged,
            prev.seeds,
            damping=damping,
            tolerance=tolerance,
            max_iterations=max_iterations,
            policy=policy,
            initial_ranks=prev.ranks,
        )
        probe.counter("dynamic.warm_iterations", result.iterations)
    return result
