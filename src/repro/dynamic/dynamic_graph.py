"""A mutable graph: immutable CSR snapshot + delta overlay + epochs.

:class:`DynamicGraph` is the dynamic-graph facade.  It quacks like
:class:`~repro.graph.graph.Graph` — ``csr()``, ``csc()``, ``coo()``,
``n_vertices``, the scalar adjacency API — so every algorithm in the
repo runs unmodified on a mutated graph.  Internally it is three parts:

* an immutable **base** :class:`Graph` snapshot (never touched);
* a :class:`~repro.dynamic.overlay.DeltaOverlay` of staged mutations;
* a per-epoch **merged snapshot**: the first structural read after a
  mutation batch builds a fresh ordinary ``Graph`` by *patching* the
  last snapshot (the base, before the first) with only the arcs that
  changed since it — the CSR always, the CSC too when the last snapshot
  had one — and every subsequent read (push CSR, pull CSC, COO,
  transpose) reuses it until the next mutation.  The patch is a few
  linear passes over the previous arrays (:mod:`repro.graph.splice`):
  the CSR is never sorted again, and the CSC is transposed only when
  a snapshot first needs one that its predecessor did not have.

Scalar adjacency queries (``get_neighbors``, ``has_edge``, degree,
``iter_edges``) answer straight from base+delta without forcing the
merge, so a mutate-heavy phase that only pokes at neighborhoods never
pays snapshot cost.

**Epochs**: every mutation batch bumps a monotonic ``epoch`` counter —
the coherence token the service's result cache and the incremental
algorithms key off.  **Compaction**: when the overlay grows past
``compact_threshold`` × base edges, the merged snapshot is promoted to
be the new base and the overlay reset (amortized O(1) per mutation).

The mutation *log* records each batch (epoch, inserts, deletes with the
weights they carried) so incremental recompute can ask "what changed
since epoch e" (:meth:`mutations_since`) and repair from exactly the
affected set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import from_edge_array
from repro.graph.graph import Graph
from repro.dynamic.overlay import DeltaOverlay
from repro.observability.probe import active_probe
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE

EdgeLike = Union[Tuple[int, int], Tuple[int, int, float], Sequence]


@dataclass
class MutationBatch:
    """What changed between two epochs, as flat arrays.

    ``removed_*`` carries the weight each arc had when it was removed —
    incremental SSSP needs it to decide whether a deleted edge could
    have supported a shortest path.
    """

    inserted_src: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=VERTEX_DTYPE)
    )
    inserted_dst: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=VERTEX_DTYPE)
    )
    inserted_w: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=WEIGHT_DTYPE)
    )
    removed_src: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=VERTEX_DTYPE)
    )
    removed_dst: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=VERTEX_DTYPE)
    )
    removed_w: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=WEIGHT_DTYPE)
    )

    @property
    def n_inserted(self) -> int:
        return int(self.inserted_src.shape[0])

    @property
    def n_removed(self) -> int:
        return int(self.removed_src.shape[0])

    @property
    def size(self) -> int:
        return self.n_inserted + self.n_removed

    @staticmethod
    def concat(batches: Sequence["MutationBatch"]) -> "MutationBatch":
        """Fold several batches into one *net* batch (in order).

        Opposing mutations cancel: an arc inserted in one batch and
        deleted in a later one contributes nothing, and only the last
        insertion of an arc survives.  The folded batch therefore means
        exactly "apply all removals, then all insertions" relative to
        the state *before the first batch* — the contract every
        ``incremental_*`` repair assumes.  Removal records keep the
        weights arcs carried at the fold's start (all of them, for
        multigraph bases with parallel arcs), since incremental SSSP
        uses them to detect lost tight support.
        """
        batches = [b for b in batches if b.size]
        if not batches:
            return MutationBatch()
        if len(batches) == 1:
            # A single _apply batch is already in net form: removals
            # precede insertions and each arc appears at most once per
            # side.
            return batches[0]
        # One chronological event table: per batch, removals happen
        # before insertions, and batches are already in epoch order.
        srcs, dsts, wts, kinds = [], [], [], []
        for b in batches:
            srcs += [b.removed_src, b.inserted_src]
            dsts += [b.removed_dst, b.inserted_dst]
            wts += [b.removed_w, b.inserted_w]
            kinds += [
                np.zeros(b.n_removed, dtype=bool),
                np.ones(b.n_inserted, dtype=bool),
            ]
        src = np.concatenate(srcs).astype(np.int64)
        dst = np.concatenate(dsts).astype(np.int64)
        w = np.concatenate(wts)
        is_ins = np.concatenate(kinds)
        # Stable sort groups events by arc while preserving the
        # chronological order within each group.
        key = (src << 32) | dst
        order = np.argsort(key, kind="stable")
        k = key[order]
        ins = is_ins[order]
        group_start = np.r_[True, k[1:] != k[:-1]]
        gid = np.cumsum(group_start) - 1
        n_groups = int(gid[-1]) + 1
        pos = np.arange(k.size, dtype=np.int64)
        # Removals before an arc's first insertion tombstone arcs that
        # were live at the fold's start — those survive the fold.  A
        # removal after an insertion only cancels that insertion.
        first_ins = np.full(n_groups, k.size, dtype=np.int64)
        np.minimum.at(first_ins, gid[ins], pos[ins])
        rem_idx = order[~ins & (pos < first_ins[gid])]
        # An arc is live at the fold's end iff its last event is an
        # insertion; that event carries the final weight.
        last_pos = np.r_[np.nonzero(group_start)[0][1:], k.size] - 1
        ins_idx = order[last_pos[ins[last_pos]]]
        return MutationBatch(
            inserted_src=src[ins_idx].astype(VERTEX_DTYPE),
            inserted_dst=dst[ins_idx].astype(VERTEX_DTYPE),
            inserted_w=w[ins_idx].astype(WEIGHT_DTYPE),
            removed_src=src[rem_idx].astype(VERTEX_DTYPE),
            removed_dst=dst[rem_idx].astype(VERTEX_DTYPE),
            removed_w=w[rem_idx].astype(WEIGHT_DTYPE),
        )


def _edge_arrays(
    edges: Sequence[EdgeLike], n_vertices: int, *, default_weight: float = 1.0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, weight)`` arrays from ``(src, dst[, weight])`` entries,
    with every endpoint checked to be a vertex id in ``[0, n_vertices)``."""
    try:
        table = np.asarray(edges, dtype=np.float64)
    except (TypeError, ValueError):  # ragged: 2- and 3-entry edges mixed
        table = None
    if table is None or table.ndim != 2 or table.shape[1] not in (2, 3):
        rows = []
        for edge in edges:
            if len(edge) not in (2, 3):
                raise GraphFormatError(
                    f"edges must be (src, dst) or (src, dst, weight); got "
                    f"length-{len(edge)} entry"
                )
            rows.append((*edge, default_weight)[:3])
        table = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    ends = np.trunc(table[:, :2])  # int() semantics for float ids
    bad = ~((ends >= 0) & (ends < n_vertices))
    if bad.any():
        raise GraphFormatError(
            f"vertex {ends[bad][0]:.0f} out of range for "
            f"n_vertices={n_vertices}"
        )
    if table.shape[1] == 3:
        weights = table[:, 2]
    else:
        weights = np.full(table.shape[0], default_weight)
    return ends[:, 0].astype(np.int64), ends[:, 1].astype(np.int64), weights


class DynamicGraph:
    """A graph that accepts edge mutations and still serves every view.

    Parameters
    ----------
    graph:
        The initial snapshot.  Its CSR view is adopted as the immutable
        base; the original object is never mutated.
    compact_threshold:
        Overlay size (staged inserts + tombstones) as a fraction of base
        edges beyond which the next mutation triggers :meth:`compact`.
        ``None`` disables auto-compaction.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        compact_threshold: Optional[float] = 0.25,
    ) -> None:
        if compact_threshold is not None and compact_threshold <= 0:
            raise GraphFormatError(
                f"compact_threshold must be positive or None, "
                f"got {compact_threshold}"
            )
        self._base = graph
        self._overlay = DeltaOverlay(graph.csr())
        self.compact_threshold = compact_threshold
        self.properties = graph.properties
        self._epoch = 0
        self._compactions = 0
        self._log: List[Tuple[int, MutationBatch]] = []
        #: (epoch, Graph) of the last merged snapshot — the base at first.
        #: Kept past later mutations: the next snapshot patches it.
        self._snapshot: Tuple[int, Graph] = (0, graph)

    # -- identity ----------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter; bumped once per mutation batch."""
        return self._epoch

    @property
    def overlay(self) -> DeltaOverlay:
        """The current delta overlay (read-only use, please)."""
        return self._overlay

    @property
    def base_graph(self) -> Graph:
        """The immutable base snapshot under the overlay."""
        return self._base

    @property
    def compactions(self) -> int:
        """How many times the overlay has been folded into the base."""
        return self._compactions

    @property
    def n_vertices(self) -> int:
        return self._base.n_vertices

    @property
    def n_edges(self) -> int:
        """Live directed edge count (base − tombstones + inserts)."""
        return self._overlay.live_edge_count()

    def get_num_vertices(self) -> int:
        """Graph-API alias for :attr:`n_vertices`."""
        return self.n_vertices

    def get_num_edges(self) -> int:
        """Graph-API alias for :attr:`n_edges`."""
        return self.n_edges

    # -- mutation ----------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n_vertices):
            raise GraphFormatError(
                f"vertex {v} out of range for n_vertices={self.n_vertices}"
            )

    def _both_arcs(self, src, dst, *rest):
        """Undirected graphs mutate both stored arc directions: the
        reversed arcs follow the given ones."""
        if self.properties.directed:
            return (src, dst, *rest)
        flip = src != dst
        return (
            np.concatenate([src, dst[flip]]),
            np.concatenate([dst, src[flip]]),
            *(np.concatenate([r, r[flip]]) for r in rest),
        )

    def insert_edges(self, edges: Sequence[EdgeLike]) -> MutationBatch:
        """Stage a batch of edge insertions; one epoch bump for the batch.

        Inserting an arc that is already live *updates its weight* (the
        logical edge set has no parallel duplicates across base+delta);
        on undirected graphs both arc directions are staged.  Returns
        the :class:`MutationBatch` recorded in the log.
        """
        return self._apply(inserts=edges, deletes=())

    def insert_edge(self, src: int, dst: int, weight: float = 1.0) -> MutationBatch:
        """Stage one insertion (its own epoch)."""
        return self.insert_edges([(src, dst, weight)])

    def remove_edges(self, edges: Sequence[EdgeLike]) -> MutationBatch:
        """Stage a batch of deletions; one epoch bump for the batch.

        Removing an arc that does not exist (or was already removed)
        raises :class:`GraphFormatError` and leaves the whole batch
        unapplied — mutation batches are all-or-nothing.
        """
        return self._apply(inserts=(), deletes=edges)

    def remove_edge(self, src: int, dst: int) -> MutationBatch:
        """Stage one deletion (its own epoch)."""
        return self.remove_edges([(src, dst)])

    def update_weight(self, src: int, dst: int, weight: float) -> MutationBatch:
        """Replace the weight of a live edge (error if absent)."""
        self._check_vertex(src)
        self._check_vertex(dst)
        if not self.has_edge(src, dst):
            raise GraphFormatError(
                f"cannot update weight of edge ({src}, {dst}): "
                f"no live edge exists"
            )
        return self.insert_edges([(src, dst, weight)])

    def apply(
        self,
        *,
        insert: Sequence[EdgeLike] = (),
        remove: Sequence[EdgeLike] = (),
    ) -> MutationBatch:
        """Stage one mixed batch (removals first, then insertions)."""
        return self._apply(inserts=insert, deletes=remove)

    def _apply(self, *, inserts, deletes) -> MutationBatch:
        probe = active_probe()
        with probe.span("dynamic:mutate", epoch=self._epoch + 1) as span:
            n = self.n_vertices
            ins = self._both_arcs(*_edge_arrays(inserts, n))
            dels = self._both_arcs(*_edge_arrays(deletes, n)[:2])
            span.set("n_insert", int(ins[0].size))
            span.set("n_remove", int(dels[0].size))
            # The overlay validates the whole batch before staging any
            # of it (batches are all-or-nothing).  A weight update is
            # logged as remove + insert: incremental SSSP treats a
            # weight increase exactly like an edge deletion.
            batch = MutationBatch(*self._overlay.stage(*dels, *ins))
            self._epoch += 1
            self._log.append((self._epoch, batch))
            probe.counter("dynamic.mutations", batch.size)
            probe.gauge("dynamic.epoch", self._epoch)
        self._maybe_compact()
        return batch

    # -- the mutation log --------------------------------------------------------

    def mutations_since(self, epoch: int) -> MutationBatch:
        """Every mutation applied after ``epoch``, folded into one batch."""
        return MutationBatch.concat(
            [b for e, b in self._log if e > epoch]
        )

    def log_length(self) -> int:
        """Number of batches retained in the mutation log."""
        return len(self._log)

    def trim_log(self, *, keep_epochs_after: int) -> int:
        """Drop log entries at or before the given epoch; returns dropped
        count.  Long-running streams call this once consumers catch up —
        the log otherwise grows without bound."""
        before = len(self._log)
        self._log = [(e, b) for e, b in self._log if e > keep_epochs_after]
        return before - len(self._log)

    # -- snapshots and compaction --------------------------------------------------

    def graph(self) -> Graph:
        """The merged base+delta snapshot as an ordinary :class:`Graph`.

        Cached per epoch: the first call after a mutation patches the
        last snapshot's CSR — and its CSC, if it had one — with the arcs
        changed since (:meth:`DeltaOverlay.patch`), so the cost follows
        the batch plus a linear copy, not a sort of every edge.  Later
        calls, and every view derived from the returned graph, are free.
        With an empty overlay the base graph itself is returned.  The
        returned graph is never modified afterwards.
        """
        if self._overlay.size == 0:
            return self._base
        epoch, prev = self._snapshot
        if epoch == self._epoch:
            return prev
        probe = active_probe()
        with probe.span(
            "dynamic:snapshot",
            epoch=self._epoch,
            overlay=self._overlay.size,
            n_edges=self.n_edges,
        ) as span:
            csr, csc, delta = self._overlay.patch(
                prev.csr(), prev.csc() if prev.has_view("csc") else None
            )
            views = {"csr": csr} if csc is None else {"csr": csr, "csc": csc}
            span.set("views", ",".join(views))
            span.set("delta_arcs", delta)
            merged = Graph(views, self.properties)
        self._snapshot = (self._epoch, merged)
        return merged

    # ``snapshot`` reads better at call sites that emphasize immutability.
    snapshot = graph

    def compact(self) -> Graph:
        """Fold the overlay into a fresh immutable base; returns it.

        The merged snapshot (built if absent) is *promoted*: it becomes
        the new base, the overlay resets to empty, and the epoch is
        unchanged — compaction is a representation change, not a
        mutation.  The mutation log survives so incremental consumers
        reading ``mutations_since`` are unaffected.
        """
        if self._overlay.size == 0:
            return self._base
        probe = active_probe()
        with probe.span(
            "dynamic:compact",
            epoch=self._epoch,
            overlay=self._overlay.size,
            n_edges=self.n_edges,
        ):
            merged = self.graph()
            self._base = merged
            self._overlay = DeltaOverlay(merged.csr())
            self._compactions += 1
            probe.counter("dynamic.compactions")
        return merged

    def _maybe_compact(self) -> None:
        if self.compact_threshold is None:
            return
        base_edges = max(1, self._base.n_edges)
        if self._overlay.size > self.compact_threshold * base_edges:
            self.compact()

    # -- Graph-facade delegation ---------------------------------------------------

    def view(self, name: str):
        """Named view of the merged snapshot (see :meth:`Graph.view`)."""
        return self.graph().view(name)

    def has_view(self, name: str) -> bool:
        """Whether the merged snapshot can produce view ``name``."""
        return self.graph().has_view(name)

    def csr(self):
        """Push-traversal CSR of the *merged* graph."""
        return self.graph().csr()

    def csc(self):
        """Pull-traversal CSC (transpose) of the merged graph."""
        return self.graph().csc()

    def coo(self):
        """Edge-list COO of the merged graph."""
        return self.graph().coo()

    def reverse(self) -> Graph:
        """The merged graph with every arc flipped."""
        return self.graph().reverse()

    def out_degrees(self) -> np.ndarray:
        """Per-vertex out-degrees of the merged graph."""
        return self.graph().out_degrees()

    def in_degrees(self) -> np.ndarray:
        """Per-vertex in-degrees of the merged graph."""
        return self.graph().in_degrees()

    def memory_footprint(self) -> Dict[str, int]:
        """Bytes held now, without forcing a merge: ``snapshot.<view>``
        for the retained snapshot's views, ``base.<view>`` for the base's
        when it is a different graph, and ``overlay.<part>`` for the
        overlay's arrays (see :meth:`DeltaOverlay.memory_footprint`)."""
        held = {"snapshot": self._snapshot[1]}
        if self._base is not self._snapshot[1]:
            held["base"] = self._base
        out = {
            f"{name}.{view}": size
            for name, graph in held.items()
            for view, size in graph.memory_footprint().items()
        }
        for part, size in self._overlay.memory_footprint().items():
            out[f"overlay.{part}"] = size
        return out

    # -- overlay-direct scalar adjacency (no merge forced) -------------------------

    def get_num_neighbors(self, v: int) -> int:
        """Live out-degree of ``v`` straight off the overlay (no merge)."""
        self._check_vertex(v)
        return int(self._overlay.neighbors_of(v)[0].shape[0])

    def get_neighbors(self, v: int) -> np.ndarray:
        """Live out-neighbors of ``v`` straight off the overlay."""
        self._check_vertex(v)
        return self._overlay.neighbors_of(v)[0]

    def get_neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`get_neighbors`."""
        self._check_vertex(v)
        return self._overlay.neighbors_of(v)[1]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether arc ``(u, v)`` is live in base+delta."""
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(np.any(self._overlay.neighbors_of(u)[0] == v))

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of the live edge ``(u, v)`` (error if absent)."""
        self._check_vertex(u)
        self._check_vertex(v)
        nbrs, wts = self._overlay.neighbors_of(u)
        hit = np.flatnonzero(nbrs == v)
        if hit.size == 0:
            raise GraphFormatError(f"no live edge ({u}, {v})")
        return float(wts[hit[0]])

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(src, dst, weight)`` over live edges, overlay-merged."""
        return self._overlay.iter_live_edges()

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(n_vertices={self.n_vertices}, "
            f"n_edges={self.n_edges}, epoch={self._epoch}, "
            f"overlay={self._overlay.size}, "
            f"compactions={self._compactions})"
        )


def dynamic_from_edges(
    sources,
    destinations,
    weights=None,
    *,
    n_vertices: Optional[int] = None,
    directed: bool = True,
    compact_threshold: Optional[float] = 0.25,
) -> DynamicGraph:
    """Convenience: build a :class:`DynamicGraph` straight from edge arrays."""
    return DynamicGraph(
        from_edge_array(
            sources,
            destinations,
            weights,
            n_vertices=n_vertices,
            directed=directed,
        ),
        compact_threshold=compact_threshold,
    )
