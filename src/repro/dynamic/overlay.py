"""The delta overlay: batched mutations staged on top of an immutable CSR.

The GraphX lesson (Xin et al.) is that analytics stay cheap under change
when the *base* structure never mutates: edits accumulate in a small
side structure (here: staged inserts plus a tombstone set over base edge
ids), reads see base+delta merged, and a periodic *compaction* folds the
delta back into a fresh immutable snapshot.  The overlay is deliberately
dumb — no per-vertex trees, just flat arrays — because every consumer
that needs speed (the operators) reads the merged CSR snapshot, and the
overlay only has to make mutation a few array passes over the batch and
scalar adjacency queries O(degree).

Arcs are addressed by one int64 key, ``src * n + dst``.  The staged
inserts are stored sorted by key (with a staging sequence number that
restores insertion order for the merge), and the base arcs get a sorted
key index built once per base, on first use — so a whole batch is
located with a few ``searchsorted`` calls, never a per-arc Python loop.

Each staged batch also records its *structural delta*: the base edge ids
it tombstoned and the staged inserts it un-staged or rewrote (new arcs
need no record: their staging numbers are past the last patch's mark).
:meth:`DeltaOverlay.patch` turns the deltas since the last merged
snapshot into a splice of that snapshot's CSR and CSC
(:mod:`repro.graph.splice`), so an epoch's merge costs a few passes over
the previous arrays plus work in the changed arcs, not a rebuild.

Invariants (audited by :func:`repro.graph.validate.validate_overlay`):

* tombstones reference *base* edge ids only, each at most once —
  deleting a delta-inserted edge un-stages it instead;
* an inserted edge never duplicates a live edge: inserting an existing
  ``(src, dst)`` arc is a *weight update* (the base arc is tombstoned or
  the staged insert rewritten);
* staged keys are strictly increasing, sequence numbers distinct;
* every staged endpoint is a valid vertex id and every weight finite.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csc import CSCMatrix
from repro.graph.csr import CSRMatrix
from repro.graph.splice import Splice, segment_search
from repro.graph.transpose import bucket_order
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE


def _sorted_lookup(sorted_keys: np.ndarray, keys: np.ndarray):
    """``(pos, hit)``: each key's insertion point in ``sorted_keys`` and
    whether the key is present there."""
    # Sorted needles walk the haystack in order — several times faster
    # than random probes, even counting the argsort.
    order = np.argsort(keys)
    pos = np.empty(keys.shape[0], dtype=np.intp)
    pos[order] = np.searchsorted(sorted_keys, keys[order])
    if sorted_keys.size == 0:
        return pos, np.zeros(pos.shape, dtype=bool)
    return pos, sorted_keys[np.minimum(pos, sorted_keys.size - 1)] == keys


def _expand(lo: np.ndarray, hi: np.ndarray):
    """``(query, position)`` over the slices ``[lo[i], hi[i])``: one row
    per covered position, grouped by query."""
    cnts = hi - lo
    query = np.repeat(np.arange(cnts.shape[0]), cnts)
    return query, np.arange(query.shape[0]) + np.repeat(
        lo - (np.cumsum(cnts) - cnts), cnts
    )


def _concat(parts) -> np.ndarray:
    """The int64 arrays ``parts`` end to end (empty for no parts)."""
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


class DeltaOverlay:
    """Staged edge mutations against one base :class:`CSRMatrix`.

    The overlay holds directed *arcs*; undirected-graph symmetry is the
    caller's concern (:class:`~repro.dynamic.dynamic_graph.DynamicGraph`
    stages both arc directions).
    """

    __slots__ = (
        "base",
        "_n",
        "_add_keys",
        "_add_w",
        "_add_seq",
        "_seq",
        "_base_keys",
        "_base_ids",
        "_dead",
        "_dead_count",
        "_killed",
        "_unstaged",
        "_rewritten",
        "_mark",
        "_dead_ids",
    )

    def __init__(self, base: CSRMatrix) -> None:
        self.base = base
        self._n = np.int64(base.get_num_vertices())
        #: Staged inserts sorted by key, their weights, and their staging
        #: sequence numbers (``_seq`` is the next one to hand out).
        self._add_keys = np.empty(0, dtype=np.int64)
        self._add_w = np.empty(0, dtype=WEIGHT_DTYPE)
        self._add_seq = np.empty(0, dtype=np.int64)
        self._seq = 0
        #: Sorted base arc keys and the (ascending, per key) edge ids
        #: they came from; None until the first lookup.
        self._base_keys = None
        self._base_ids = None
        #: Tombstone flags over base edge ids (lazy; None until the
        #: first delete so a pure-insert overlay costs no O(E) array).
        self._dead = None
        self._dead_count = 0
        #: The structural deltas since the last :meth:`patch`: tombstoned
        #: base ids, and ``(keys, seqs)`` of un-staged and rewritten
        #: inserts, one entry per batch.  ``_mark`` is the staging number
        #: the last patch had reached (later ones are the new arcs), and
        #: ``_dead_ids`` the sorted base ids tombstoned by then.
        self._killed = []
        self._unstaged = []
        self._rewritten = []
        self._mark = 0
        self._dead_ids = np.empty(0, dtype=np.int64)

    # -- size accounting ---------------------------------------------------------

    @property
    def n_inserted(self) -> int:
        """Number of staged (live) inserted arcs."""
        return int(self._add_keys.shape[0])

    @property
    def n_deleted(self) -> int:
        """Number of tombstoned base arcs."""
        return self._dead_count

    @property
    def size(self) -> int:
        """Total staged mutations — the compaction-trigger measure."""
        return self.n_inserted + self.n_deleted

    def live_edge_count(self) -> int:
        """Edges visible through the overlay (base − dead + inserted)."""
        return self.base.get_num_edges() - self._dead_count + self.n_inserted

    # -- lookup ------------------------------------------------------------------

    def keys(self, src, dst) -> np.ndarray:
        """The int64 arc keys ``src * n + dst``."""
        return np.asarray(src, dtype=np.int64) * self._n + np.asarray(
            dst, dtype=np.int64
        )

    def _live_base_arcs(self, keys: np.ndarray):
        """``(query, edge_id)`` for every live base arc matching each key:
        one contiguous group per query index, edge ids ascending within
        a group."""
        if self._base_keys is None:
            base = self.base
            index = np.repeat(
                np.arange(self._n, dtype=np.int64), np.diff(base.row_offsets)
            )
            index *= self._n  # in place: the index is graph-sized
            index += base.column_indices
            # Rows are already grouped, so timsort only merges short
            # per-row runs; stability keeps parallel arcs in id order.
            self._base_ids = np.argsort(index, kind="stable")
            self._base_keys = index[self._base_ids]
        order = np.argsort(keys)  # sorted needles, as in _sorted_lookup
        lo = np.searchsorted(self._base_keys, keys[order], side="left")
        hi = np.searchsorted(self._base_keys, keys[order], side="right")
        query, at = _expand(lo, hi)
        query, edges = order[query], self._base_ids[at]
        if self._dead is not None:
            alive = ~self._dead[edges]
            query, edges = query[alive], edges[alive]
        return query, edges

    # -- mutation ----------------------------------------------------------------

    def stage(self, del_src, del_dst, ins_src, ins_dst, ins_w):
        """Validate and stage one batch: removals first, then insertions.

        Arguments are arrays of valid vertex ids and float weights.
        Nothing is staged unless the whole batch is valid: each delete
        names a live arc, at most once, and every weight is finite.  A
        delete un-stages a staged insert, else tombstones the first live
        base arc.  Inserting a live arc is a *weight update*: the staged
        insert is rewritten in place, or every live base parallel arc
        is tombstoned.  An arc inserted twice keeps the last weight.

        Returns ``(ins_src, ins_dst, ins_w, rem_src, rem_dst, rem_w)`` —
        the :class:`~repro.dynamic.dynamic_graph.MutationBatch` fields,
        where every weight an arc carried before being replaced (base,
        staged, or an earlier insert of this batch) is a removal.
        """
        n = self._n
        dkeys = self.keys(del_src, del_dst)
        ordered = np.sort(dkeys)
        twice = ordered[1:][ordered[1:] == ordered[:-1]]
        if twice.size:
            k = int(twice[0])
            raise GraphFormatError(
                f"edge ({k // n}, {k % n}) removed twice in one batch"
            )
        d_slot, d_hit = _sorted_lookup(self._add_keys, dkeys)
        query, edges = self._live_base_arcs(dkeys)
        found, first = np.unique(query, return_index=True)
        d_edge = np.full(dkeys.shape[0], -1, dtype=np.int64)
        d_edge[found] = edges[first]  # the first live parallel arc
        missing = np.flatnonzero(~d_hit & (d_edge < 0))
        if missing.size:
            i = missing[0]
            raise GraphFormatError(
                f"cannot remove edge ({int(del_src[i])}, {int(del_dst[i])}): "
                f"no live edge exists"
            )
        bad = np.flatnonzero(~np.isfinite(ins_w))
        if bad.size:
            i = bad[0]
            raise GraphFormatError(
                f"edge ({int(ins_src[i])}, {int(ins_dst[i])}) weight must be "
                f"finite, got {float(ins_w[i])!r}"
            )

        # Removals.
        d_w = np.empty(dkeys.shape[0], dtype=WEIGHT_DTYPE)
        d_w[d_hit] = self._add_w[d_slot[d_hit]]
        d_w[~d_hit] = self.base.values[d_edge[~d_hit]]
        self._kill(d_edge[~d_hit])
        gone = d_slot[d_hit]
        self._unstaged.append((self._add_keys[gone], self._add_seq[gone]))
        keep = np.ones(self.n_inserted, dtype=bool)
        keep[gone] = False
        self._add_keys = self._add_keys[keep]
        self._add_w = self._add_w[keep]
        self._add_seq = self._add_seq[keep]

        # Insertions: the last write per arc wins; new arcs are staged in
        # first-occurrence order.
        ikeys = self.keys(ins_src, ins_dst)
        _, first = np.unique(ikeys, return_index=True)
        _, last = np.unique(ikeys[::-1], return_index=True)
        win = (ikeys.shape[0] - 1 - last)[np.argsort(first)]
        superseded = np.ones(ikeys.shape[0], dtype=bool)
        superseded[win] = False
        w_key = ikeys[win]
        w_w = ins_w[win].astype(WEIGHT_DTYPE)
        slot, rewrite = _sorted_lookup(self._add_keys, w_key)
        r_old = self._add_w[slot[rewrite]]
        self._add_w[slot[rewrite]] = w_w[rewrite]
        self._rewritten.append((w_key[rewrite], self._add_seq[slot[rewrite]]))
        fresh = np.flatnonzero(~rewrite)
        query, edges = self._live_base_arcs(w_key[fresh])
        self._kill(edges)
        self._append(w_key[fresh], w_w[fresh])

        rem_key = np.concatenate(
            [dkeys, ikeys[superseded], w_key[rewrite], w_key[fresh][query]]
        )
        rem_w = np.concatenate(
            [d_w, ins_w[superseded], r_old, self.base.values[edges]]
        )
        return (
            (w_key // n).astype(VERTEX_DTYPE),
            (w_key % n).astype(VERTEX_DTYPE),
            w_w,
            (rem_key // n).astype(VERTEX_DTYPE),
            (rem_key % n).astype(VERTEX_DTYPE),
            rem_w.astype(WEIGHT_DTYPE),
        )

    def _kill(self, edges: np.ndarray) -> None:
        """Tombstone base arcs (distinct, currently live)."""
        if edges.size:
            if self._dead is None:
                self._dead = np.zeros(self.base.get_num_edges(), dtype=bool)
            self._dead[edges] = True
            self._dead_count += int(edges.size)
            self._killed.append(edges)

    def _append(self, keys: np.ndarray, weights: np.ndarray) -> None:
        """Stage new arcs (distinct keys, none staged yet), numbering them
        in the given order."""
        seq = self._seq + np.arange(keys.shape[0], dtype=np.int64)
        self._seq += int(keys.shape[0])
        order = np.argsort(keys)
        at = np.searchsorted(self._add_keys, keys[order])
        self._add_keys = np.insert(self._add_keys, at, keys[order])
        self._add_w = np.insert(self._add_w, at, weights[order])
        self._add_seq = np.insert(self._add_seq, at, seq[order])

    # -- merged reads ------------------------------------------------------------

    def inserted_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The staged inserts as ``(src, dst, weight)`` arrays, in staging
        order (un-staging an arc leaves the others' order unchanged)."""
        order = bucket_order(self._add_seq, self._seq)
        keys = self._add_keys[order]
        return (
            (keys // self._n).astype(VERTEX_DTYPE),
            (keys % self._n).astype(VERTEX_DTYPE),
            self._add_w[order],
        )

    def live_mask(self) -> np.ndarray:
        """Boolean mask over base edge ids: True where not tombstoned."""
        if self._dead is None:
            return np.ones(self.base.get_num_edges(), dtype=bool)
        return ~self._dead

    def neighbors_of(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """Live out-neighbors and weights of ``v`` through the overlay.

        Base-order survivors first, then staged inserts in staging order
        — O(degree + log inserts) with no global merge.
        """
        base = self.base
        start, stop = int(base.row_offsets[v]), int(base.row_offsets[v + 1])
        nbrs = base.column_indices[start:stop]
        wts = base.values[start:stop]
        if self._dead is not None:
            alive = ~self._dead[start:stop]
            if not alive.all():
                nbrs = nbrs[alive]
                wts = wts[alive]
        lo, hi = np.searchsorted(
            self._add_keys, [v * self._n, (v + 1) * self._n]
        )
        if hi > lo:
            mine = lo + np.argsort(self._add_seq[lo:hi])
            nbrs = np.concatenate([nbrs, self._add_keys[mine] % self._n])
            wts = np.concatenate([wts, self._add_w[mine]])
        return nbrs.astype(VERTEX_DTYPE, copy=False), wts.astype(
            WEIGHT_DTYPE, copy=False
        )

    def iter_live_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(src, dst, weight)`` for every live edge (base order
        per vertex, then that vertex's staged inserts)."""
        for v in range(self.base.get_num_vertices()):
            nbrs, wts = self.neighbors_of(v)
            for dst, w in zip(nbrs, wts):
                yield v, int(dst), float(w)

    def merged_coo_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The full live edge set as parallel COO arrays.

        Base survivors keep CSR order (sources non-decreasing); inserts
        append in staging order.  The counting sort in
        :meth:`COOMatrix.to_csr_arrays` is stable, so a CSR built from
        these arrays lists each vertex's surviving base edges before its
        inserted ones — the layout :meth:`patch` maintains.  This is the
        from-scratch rebuild that the patched snapshots are checked
        against; snapshots themselves never take this path.
        """
        base = self.base
        keep = self.live_mask()
        degrees = np.diff(base.row_offsets)
        all_src = np.repeat(
            np.arange(base.get_num_vertices(), dtype=VERTEX_DTYPE), degrees
        )
        add_src, add_dst, add_w = self.inserted_arrays()
        return (
            np.concatenate([all_src[keep], add_src]),
            np.concatenate([base.column_indices[keep], add_dst]),
            np.concatenate([base.values[keep], add_w]),
        )

    # -- patching the merged snapshot --------------------------------------------

    def patch(
        self, csr: CSRMatrix, csc: Optional[CSCMatrix] = None
    ) -> Tuple[CSRMatrix, Optional[CSCMatrix], int]:
        """The merged views now, patched from the previous ones.

        ``csr`` (and ``csc``, when the previous snapshot has one) must be
        the merged views as of the last :meth:`patch` — or the base's,
        before the first.  Returns ``(csr, csc or None, delta_arcs)``,
        equal array for array to a rebuild from
        :meth:`merged_coo_arrays` (and its transpose), and starts a new
        delta record.  The inputs are not modified.

        A snapshot lists each row's live base arcs in id order, then its
        staged arcs in staging order; its CSC, the stable transpose,
        orders each column by row and then the same way.  So an arc that
        leaves is located by tombstone counts (base arcs) or staging
        ranks (staged arcs), and a new arc — staged after every arc of
        the previous snapshot — goes at the end of its row, and in its
        column after every entry whose row is not greater.
        """
        n, mark = self._n, self._mark
        ro_base = self.base.row_offsets
        killed = np.sort(_concat(self._killed))
        k_src = np.searchsorted(ro_base, killed, side="right") - 1
        # Un-staged and rewritten arcs count only if they were staged
        # before the mark, i.e. present in csr.
        g_keys = _concat([keys for keys, _ in self._unstaged])
        g_seq = _concat([seq for _, seq in self._unstaged])
        g_keys, g_seq = g_keys[g_seq < mark], g_seq[g_seq < mark]
        r_keys = _concat([keys for keys, _ in self._rewritten])
        r_seq = _concat([seq for _, seq in self._rewritten])
        r_seq, first = np.unique(r_seq, return_index=True)
        r_keys = r_keys[first]
        old = (r_seq < mark) & ~np.isin(r_seq, g_seq)
        r_keys, r_seq = r_keys[old], r_seq[old]
        r_w = self._add_w[np.searchsorted(self._add_keys, r_keys)]
        fresh = self._add_seq >= mark
        a_keys, a_seq, a_w = (
            self._add_keys[fresh],
            self._add_seq[fresh],
            self._add_w[fresh],
        )
        a_src = a_keys // n

        # A tombstoned base arc sits after its row's earlier base arcs
        # that were live in csr; a staged arc sits before its row's
        # later-staged arcs that were in csr.
        def dead_before(ids):
            return np.searchsorted(self._dead_ids, ids)

        start = ro_base[k_src]
        k_pos = (
            csr.row_offsets[k_src]
            + (killed - start)
            - (dead_before(killed) - dead_before(start))
        )
        gone = np.argsort(g_keys)
        gone_keys, gone_seq = g_keys[gone], g_seq[gone]

        def staged_pos(keys, seq):
            src = keys // n
            later = self._later_in_row(
                self._add_keys, self._add_seq, src, seq
            ) + self._later_in_row(gone_keys, gone_seq, src, seq)
            return csr.row_offsets[src + 1] - 1 - later

        rows = np.lexsort((a_seq, a_src))  # staging order within a row
        splice = Splice(
            csr.row_offsets,
            np.concatenate([k_pos, staged_pos(g_keys, g_seq)]),
            csr.row_offsets[a_src[rows] + 1],
            a_src[rows],
        )
        values = splice.apply(csr.values, a_w[rows])
        values[splice.moved(staged_pos(r_keys, r_seq))] = r_w
        merged = CSRMatrix(
            csr.n_rows,
            csr.n_cols,
            splice.offsets,
            splice.apply(csr.column_indices, a_keys[rows] % n),
            values,
        )
        if csc is not None:
            csc = self._patch_csc(
                csc, killed, k_src, g_keys, r_keys, r_w, a_keys, a_w
            )
        delta = int(killed.size + g_keys.size + r_keys.size + a_keys.size)
        self._dead_ids = np.insert(
            self._dead_ids, np.searchsorted(self._dead_ids, killed), killed
        )
        self._killed, self._unstaged, self._rewritten = [], [], []
        self._mark = self._seq
        return merged, csc, delta

    def _patch_csc(self, csc, killed, k_src, g_keys, r_keys, r_w, a_keys, a_w):
        """:meth:`patch`'s CSC half."""
        n, co = self._n, csc.col_offsets
        k_dst = self.base.column_indices[killed].astype(np.int64)
        a_src, a_dst = a_keys // n, a_keys % n
        cols = np.lexsort((a_src, a_dst))
        a_src, a_dst = a_src[cols], a_dst[cols]
        # One search finds where each (row, column) pair starts in its
        # column: the leaving and rewritten arcs' own row, and for a new
        # arc the next row — it goes after every entry with its row.
        src = np.concatenate([k_src, g_keys // n, r_keys // n, a_src + 1])
        dst = np.concatenate([k_dst, g_keys % n, r_keys % n, a_dst])
        found = segment_search(csc.row_indices, co[dst], co[dst + 1], src)
        k_pos, g_pos, r_pos, at = np.split(
            found, np.cumsum([killed.size, g_keys.size, r_keys.size])
        )
        # A tombstoned base arc follows the parallel arcs of its pair
        # with smaller ids that were live in csc.
        nxt = np.minimum(k_pos + 1, max(csc.row_indices.size - 1, 0))
        run = np.flatnonzero(
            (k_pos + 1 < co[k_dst + 1]) & (csc.row_indices[nxt] == k_src)
        )
        if run.size:
            keys = k_src[run] * n + k_dst[run]
            k_pos[run] += self._live_rank(killed, keys, run)
        splice = Splice(co, np.concatenate([k_pos, g_pos]), at, a_dst)
        values = splice.apply(csc.values, a_w[cols])
        values[splice.moved(r_pos)] = r_w
        return CSCMatrix(
            csc.n_rows,
            csc.n_cols,
            splice.offsets,
            splice.apply(csc.row_indices, a_src),
            values,
        )

    def _later_in_row(self, keys, seqs, src, seq) -> np.ndarray:
        """Per query ``i``: how many arcs of the key-sorted ``(keys,
        seqs)`` lie in row ``src[i]`` and were staged after ``seq[i]`` but
        before the mark."""
        query, at = _expand(
            np.searchsorted(keys, src * self._n),
            np.searchsorted(keys, (src + 1) * self._n),
        )
        later = (seqs[at] > seq[query]) & (seqs[at] < self._mark)
        return np.bincount(query[later], minlength=src.shape[0])

    def _live_rank(self, killed, keys, which) -> np.ndarray:
        """For the tombstoned base arcs ``killed[which]`` (``killed``
        sorted), whose arc keys are ``keys``: how many parallel arcs with
        smaller ids were live before the mark."""
        query, at = _expand(
            np.searchsorted(self._base_keys, keys, side="left"),
            np.searchsorted(self._base_keys, keys, side="right"),
        )
        ids = self._base_ids[at]
        hit = np.minimum(np.searchsorted(killed, ids), killed.size - 1)
        was_live = ~self._dead[ids] | (killed[hit] == ids)
        earlier = was_live & (ids < killed[which][query])
        return np.bincount(query[earlier], minlength=which.shape[0])

    def memory_footprint(self) -> Dict[str, int]:
        """Bytes held by the overlay's arrays: the base key index, the
        tombstone mask, the staged inserts and the recorded deltas."""

        def nbytes(*arrays) -> int:
            return sum(a.nbytes for a in arrays if a is not None)

        pairs = self._unstaged + self._rewritten
        deltas = self._killed + [a for pair in pairs for a in pair]
        return {
            "key_index": nbytes(self._base_keys, self._base_ids),
            "tombstones": nbytes(self._dead, self._dead_ids),
            "staged": nbytes(self._add_keys, self._add_w, self._add_seq),
            "deltas": nbytes(*deltas),
        }

    def __repr__(self) -> str:
        return (
            f"DeltaOverlay(base_edges={self.base.get_num_edges()}, "
            f"inserted={self.n_inserted}, deleted={self.n_deleted})"
        )
