"""Parent-side orchestration of ``par_proc`` supersteps: owner computes.

The engine is the parent half of the multiprocess policy.  When a graph
first runs on W workers it cuts ``0..n`` into W contiguous destination
ranges balanced on in-edges plus vertices (:func:`destination_ranges`),
used by every round kind, and places,
in shared memory (:class:`~repro.execution.shm.ShmArena`), one slice
per rank: for push rounds the CSR restricted to the in-edges of that
rank's range (:func:`destination_slice`), for pull rounds and PageRank
the CSC's columns ``[lo, hi)``, which are already contiguous
(:func:`column_slice`).

Each round the parent mirrors the frontier and the pre-round state;
every worker expands the whole frontier over its own slice and folds the
updates aimed at its range in private memory
(:mod:`repro.execution.proc_kernels`).  The replies are disjoint, sorted
and unique, so concatenating them in rank order yields exactly the
frontier the in-process fused kernels emit; the parent applies the new
values and emits it.  This is the message-passing pillar's owner-computes
rule with a 1-D destination partition — GraphX's reduce-where-the-data-
lives — and it leaves the parent only the barrier, the mirror copies and
one concatenation per round.

One engine per process (:func:`get_engine`); rounds are serialized by a
lock so concurrent service-layer queries interleave at superstep
granularity rather than corrupting each other's mirror slots.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.execution import shm
from repro.execution.proc_pool import (
    default_proc_workers,
    get_proc_pool,
    in_worker_process,
    shutdown_pools,
)
from repro.frontier.sparse import SparseFrontier
from repro.observability.probe import active_probe
from repro.operators.fused import active_flags, emit
from repro.operators.load_balance import edge_balanced_chunks
from repro.types import VERTEX_DTYPE

Range = Tuple[int, int]

_NO_UPDATES = (np.empty(0, dtype=VERTEX_DTYPE), np.empty(0, dtype=np.float64), 0)


def _shm_ref(descriptor: shm.Descriptor) -> Tuple[str, shm.Descriptor]:
    """Tag a whole-array descriptor for the worker-side resolver."""
    return ("shm", descriptor)


def destination_ranges(graph, n_workers: int) -> List[Range]:
    """Contiguous ranges of ``0..n``, at most one per worker (fewer when
    there are fewer vertices than workers), balanced on in-edges plus
    vertices: each vertex weighs its in-degree plus the mean degree.

    A round costs per in-edge *and* per destination (winners, dedup; a
    PageRank column) — on R-MAT 17 with 2 workers an in-edge-only cut
    left the many-vertex rank ~1.3x busier and a vertex cut the hub
    rank ~2x; see ``docs/performance_notes.md``.
    """
    n, m = graph.n_vertices, graph.n_edges
    in_degrees = np.bincount(graph.csr().column_indices, minlength=n)
    # n * (in-degree + m / n), kept integral for the cumulative cut.
    return edge_balanced_chunks(in_degrees * n + m, n_workers)


def destination_slice(csr, lo: int, hi: int) -> Dict[str, np.ndarray]:
    """The CSR restricted to the in-edges of ``[lo, hi)``: row offsets
    over every source, targets rebased to ``lo``, and weights.  Each
    destination keeps its edges in CSR order."""
    targets = csr.column_indices
    ids = np.flatnonzero((targets >= lo) & (targets < hi))
    return {
        "offsets": np.searchsorted(ids, csr.row_offsets),
        "targets": targets.take(ids) - lo,
        "weights": csr.values.take(ids),
    }


def column_slice(csc, lo: int, hi: int) -> Dict[str, np.ndarray]:
    """The CSC's columns ``[lo, hi)`` as their own arrays: offsets
    rebased to the slice, the in-edges' sources (``targets``) and
    weights, also as the sum-aggregate's float64.  Whole arrays, not
    views of the graph's: scipy copies a view of a much larger array on
    every product."""
    e0, e1 = csc.col_offsets[lo], csc.col_offsets[hi]
    return {
        "offsets": csc.col_offsets[lo : hi + 1] - e0,
        "targets": csc.row_indices[e0:e1],
        "weights": csc.values[e0:e1],
        "weights64": csc.values[e0:e1].astype(np.float64),
    }


class _Placement:
    """One graph's shared-memory arrays, per worker count: the
    destination ranges and each rank's push / pull slice."""

    __slots__ = ("ranges", "slices")

    def __init__(self) -> None:
        self.ranges: Dict[int, List[Range]] = {}
        self.slices: Dict[Tuple[int, str], List[Dict[str, shm.Descriptor]]] = {}

    def descriptors(self):
        for per_rank in self.slices.values():
            for placed in per_rank:
                yield from placed.values()


class ProcEngine:
    """Shared-memory placement + round orchestration for ``par_proc``."""

    def __init__(self) -> None:
        self.arena = shm.ShmArena()
        self._lock = threading.RLock()
        # Graph placements keyed by id(graph); a weakref.finalize on the
        # facade releases the segments once the graph is collected (the
        # CSR/CSC views carry __slots__ without __weakref__; the facade
        # is a plain class, so it is the referent).
        self._graphs: Dict[int, _Placement] = {}

    # -- placement ---------------------------------------------------------------------

    def _placement(self, graph) -> _Placement:
        key = id(graph)
        placed = self._graphs.get(key)
        if placed is None:
            placed = self._graphs[key] = _Placement()
            weakref.finalize(graph, self._release_graph, key)
        return placed

    def _ranges(self, graph, n_workers: int) -> List[Range]:
        ranges = self._placement(graph).ranges
        if n_workers not in ranges:
            ranges[n_workers] = destination_ranges(graph, n_workers)
        return ranges[n_workers]

    def _slices(
        self, graph, n_workers: int, direction: str, names
    ) -> List[Dict[str, shm.Descriptor]]:
        """Each rank's :func:`destination_slice` (push) or
        :func:`column_slice` (pull), each named array placed on first
        use — a run places only what its rounds read."""
        ranges = self._ranges(graph, n_workers)
        per_rank = self._placement(graph).slices.setdefault(
            (n_workers, direction), [{} for _ in ranges]
        )
        missing = [name for name in names if ranges and name not in per_rank[0]]
        if missing:
            if direction == "push":
                cut, view = destination_slice, graph.csr()
            else:
                cut, view = column_slice, graph.csc()
            for placed, (lo, hi) in zip(per_rank, ranges):
                arrays = cut(view, lo, hi)
                for name in missing:
                    placed[name] = self.arena.place(arrays[name])
        return per_rank

    def _release_graph(self, key: int) -> None:
        with self._lock:
            placed = self._graphs.pop(key, None)
            if placed is None:
                return
            for descriptor in placed.descriptors():
                self.arena.release(descriptor)

    def _mirror(self, slot: str, arr: np.ndarray) -> shm.Descriptor:
        before = self.arena.bytes_copied
        descriptor = self.arena.mirror(slot, arr)
        probe = active_probe()
        if probe.enabled:
            probe.counter("comm.bytes", self.arena.bytes_copied - before)
        return descriptor

    # -- round plumbing ----------------------------------------------------------------

    def _dispatch(self, pool, fn: str, per_rank_args, phase: str):
        """Run one round, stitching per-worker busy times into the trace
        as ``proc:task`` spans and bumping the round/byte counters."""
        probe = active_probe()
        retire = self.arena.drain_retired()
        if not probe.enabled:
            return pool.run_round(fn, per_rank_args, retire)
        with probe.span(
            "proc:round", fn=fn, phase=phase, workers=pool.num_workers
        ):
            replies = pool.run_round(fn, per_rank_args, retire)
            probe.counter("proc.rounds")
            probe.gauge("proc.workers", pool.num_workers)
            returned = 0
            busy_total = 0.0
            for rank, reply in enumerate(replies):
                if reply is None:
                    continue
                if reply["winners"] is not None:
                    returned += reply["winners"].nbytes + reply["values"].nbytes
                busy = float(reply["busy"])
                busy_total += busy
                task_attrs = {"worker": rank, "fn": fn}
                if reply.get("trace") is not None:
                    # The echoed round-frame trace id: stitched worker
                    # intervals stay attributable to their query.
                    task_attrs["trace_id"] = reply["trace"]
                probe.record_span("proc:task", duration=busy, **task_attrs)
            if busy_total:
                # Busy seconds accumulate so the service can derive the
                # pool's busy fraction (busy / (uptime * workers)).
                probe.counter("proc.busy_seconds", busy_total)
            if returned:
                probe.counter("comm.bytes", returned)
        return replies

    # -- advance rounds ----------------------------------------------------------------

    def advance(
        self,
        policy,
        graph,
        kernel,
        *,
        direction: str,
        work_ids: Optional[np.ndarray],
        active: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One par_proc advance superstep.

        Push: every worker expands ``work_ids`` (the frontier) over its
        slice.  Pull: each worker scans the in-edges of the candidates
        ``work_ids`` inside its range (``None``: all of them) against
        ``active``.  Returns ``(winners, new_values, scanned)`` —
        winners sorted, unique; for claim rounds the values are parents
        and ``scanned`` sums the in-edges the workers' pulls read.
        """
        n_workers = self._worker_count(policy)
        pool = get_proc_pool(n_workers)
        with self._lock:
            args: Dict[str, object] = {"direction": direction}
            names = ["offsets", "targets"]
            if kernel.name == "min_relax":
                fn = "min_relax"
                args["values"] = _shm_ref(
                    self._mirror("state.values", kernel.values)
                )
                if kernel.weighted:
                    names.append("weights")
            else:
                fn = "claim"
                args["levels"] = _shm_ref(
                    self._mirror("state.values", kernel.levels)
                )
                args["unreached"] = kernel.unreached
            if work_ids is not None:
                args["vertices"] = _shm_ref(self._mirror("round.work", work_ids))
            if active is not None:
                args["active"] = _shm_ref(self._mirror("round.active", active))
            slices = self._slices(graph, n_workers, direction, names)
            per_rank: List[Optional[Dict]] = [None] * n_workers
            for rank, (lo, hi) in enumerate(self._ranges(graph, n_workers)):
                per_rank[rank] = dict(args, lo=lo, hi=hi, **{
                    name: _shm_ref(slices[rank][name]) for name in names
                })
            replies = [
                r for r in self._dispatch(pool, fn, per_rank, "advance") if r
            ]
        if not replies:
            return _NO_UPDATES
        return (
            np.concatenate([r["winners"] for r in replies]),
            np.concatenate([r["values"] for r in replies]),
            sum(r["scanned"] or 0 for r in replies),
        )

    # -- pagerank ----------------------------------------------------------------------

    def pagerank_incoming(
        self, policy, graph, share: np.ndarray
    ) -> np.ndarray:
        """One PageRank superstep's incoming-mass vector ``Aᵀ·share``:
        the sum-aggregate kernel over each rank's column slice in
        parallel (disjoint shared writes; re-running a range after a
        crash is idempotent)."""
        n = graph.n_vertices
        n_workers = self._worker_count(policy)
        pool = get_proc_pool(n_workers)
        with self._lock:
            share_ref = _shm_ref(self._mirror("pr.share", share))
            inc_desc, incoming = self.arena.slot_array(
                "pr.incoming", n, np.float64
            )
            slices = self._slices(
                graph, n_workers, "pull", ("offsets", "targets", "weights64")
            )
            per_rank: List[Optional[Dict]] = [None] * n_workers
            for rank, (lo, hi) in enumerate(self._ranges(graph, n_workers)):
                placed = slices[rank]
                per_rank[rank] = {
                    "offsets": _shm_ref(placed["offsets"]),
                    "targets": _shm_ref(placed["targets"]),
                    "weights": _shm_ref(placed["weights64"]),
                    "share": share_ref,
                    "incoming": _shm_ref(inc_desc),
                    "lo": lo,
                    "hi": hi,
                }
            self._dispatch(pool, "pagerank_range", per_rank, "pagerank")
            return incoming.copy()

    # -- misc --------------------------------------------------------------------------

    @staticmethod
    def _worker_count(policy) -> int:
        return policy.num_workers or default_proc_workers()

    def shutdown(self) -> None:
        """Release every placement and close the worker pools — the
        explicit cleanup path tests drive; atexit covers normal exit."""
        shutdown_pools()
        with self._lock:
            self._graphs.clear()
            self.arena.close()


_engine: Optional[ProcEngine] = None
_engine_lock = threading.Lock()


def get_engine() -> ProcEngine:
    """The process-wide engine (created on first par_proc superstep)."""
    global _engine
    with _engine_lock:
        if _engine is None:
            _engine = ProcEngine()
        return _engine


def proc_available() -> bool:
    """Whether par_proc may run rounds here (never inside a worker —
    nesting would fork-bomb; the policy falls back to the in-process
    vectorized path)."""
    return not in_worker_process()


def shutdown() -> None:
    """Tear down the engine, its pools, and every shared segment."""
    global _engine
    with _engine_lock:
        engine, _engine = _engine, None
    if engine is not None:
        engine.shutdown()
    else:
        shutdown_pools()
    shm.unlink_all()


# -- operator integration --------------------------------------------------------------


def proc_expand(
    policy, graph, frontier, kernel, output, direction, candidates
):
    """The ``par_proc`` overload of ``neighbors_expand``'s fused route.

    Runs the superstep as one owner-computes round, applies the winners'
    new values to the kernel's state and emits them — the same state and
    the same sorted unique frontier as the in-process kernel.  Returns
    ``None`` when the round cannot run here (inside a worker process),
    letting the dispatch fall back to the in-process vectorized overload.
    """
    if not proc_available():
        return None
    if direction == "push":
        work_ids = (
            frontier.indices_view()
            if isinstance(frontier, SparseFrontier)
            else frontier.to_indices()
        )
        active = None
    else:
        work_ids = candidates
        if candidates is not None:
            work_ids = np.asarray(candidates, dtype=VERTEX_DTYPE).ravel()
        active = active_flags(frontier, graph.n_vertices)
    if work_ids is not None and work_ids.size == 0:
        winners, new_values, scanned = _NO_UPDATES
    else:
        winners, new_values, scanned = get_engine().advance(
            policy, graph, kernel, direction=direction, work_ids=work_ids,
            active=active,
        )
    if kernel.name == "min_relax":
        kernel.values[winners] = new_values
    else:
        kernel.scanned = scanned
        kernel.parents[winners] = new_values
        kernel.stamp_levels(winners)
    return emit(output, winners) if winners.size else output
