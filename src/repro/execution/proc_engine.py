"""Driver-side orchestration of ``par_proc`` supersteps.

The engine is the parent half of the multiprocess policy: it places
graph views and per-superstep state in shared memory
(:class:`~repro.execution.shm.ShmArena`), cuts each round across the
worker pool along the frontier's degree curve, and merges the workers'
proposal buffers back into the real algorithm state through the
**existing** comm substrate — :class:`~repro.comm.mailbox.MailboxRouter`
over a :func:`~repro.partition.chunking.contiguous_partition` owner map,
folding with a :class:`~repro.comm.messages.MinCombiner` — so boundary
updates flow through the same machinery (and the same chaos seams,
retry-backed for at-least-once delivery) as the simulated-distributed
engines.

Why the merge is exact (see :mod:`repro.execution.proc_kernels` for the
worker half): vertex ownership is *contiguous*, so the per-rank combined
inboxes are disjoint, internally sorted, and concatenate in rank order
into a globally sorted unique update set — precisely the deduplicated
emission contract of the in-process fused kernels, with the
``improved = folded < pre_round`` comparison done once, in the parent,
deterministically.

One engine per process (:func:`get_engine`); rounds are serialized by a
lock so concurrent service-layer queries interleave at superstep
granularity rather than corrupting each other's mirror slots.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.comm.mailbox import MailboxRouter
from repro.comm.messages import MinCombiner
from repro.execution import shm
from repro.execution.proc_pool import (
    default_proc_workers,
    get_proc_pool,
    in_worker_process,
    shutdown_pools,
)
from repro.frontier.dense import DenseFrontier
from repro.frontier.sparse import SparseFrontier
from repro.observability.probe import active_probe
from repro.operators.load_balance import make_chunks
from repro.partition.chunking import contiguous_partition
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.retry import RetryPolicy
from repro.types import VERTEX_DTYPE

#: Bounded cache of static-array placements (edge masks): big enough
#: for every live algorithm run in a realistic process, small enough
#: that abandoned arrays get their segments back.
_STATIC_CACHE_LIMIT = 16

_EMPTY_MERGE = (
    np.empty(0, dtype=VERTEX_DTYPE),
    np.empty(0, dtype=np.float64),
)


def _shm_ref(descriptor: shm.Descriptor) -> Tuple[str, shm.Descriptor]:
    """Tag a whole-array descriptor for the worker-side resolver."""
    return ("shm", descriptor)


def _shm_slice(descriptor: shm.Descriptor, lo: int, hi: int):
    """Tag a ``[lo, hi)`` slice of a shared array (a worker's chunk of
    the round's work list — sliced worker-side, shipped once)."""
    return ("shm_slice", descriptor, int(lo), int(hi))


def _is_sorted(arr: np.ndarray) -> bool:
    return arr.size < 2 or bool(np.all(arr[1:] >= arr[:-1]))


class ProcEngine:
    """Shared-memory placement + round orchestration for ``par_proc``."""

    def __init__(self) -> None:
        self.arena = shm.ShmArena()
        self._lock = threading.RLock()
        # Graph placements keyed by id(graph); a weakref.finalize on the
        # facade releases the segments once the graph is collected (the
        # CSR/CSC views carry __slots__ without __weakref__; the facade
        # is a plain class, so it is the referent).
        self._graphs: Dict[int, Dict[str, Dict[str, shm.Descriptor]]] = {}
        self._static: Dict[int, Tuple[np.ndarray, shm.Descriptor]] = {}
        # Owner maps are contiguous partitions — a function of shape
        # only — so routers key by (n_vertices, n_workers).
        self._routers: Dict[Tuple[int, int], MailboxRouter] = {}

    # -- placement ---------------------------------------------------------------------

    def _graph_share(self, graph, view: str) -> Dict[str, shm.Descriptor]:
        """Descriptors of a graph view's arrays, placing them on first use."""
        key = id(graph)
        with self._lock:
            views = self._graphs.get(key)
            if views is None:
                views = {}
                self._graphs[key] = views
                weakref.finalize(graph, self._release_graph, key)
            placed = views.get(view)
            if placed is not None:
                return placed
            mat = graph.csr() if view == "csr" else graph.csc()
            offsets = mat.row_offsets if view == "csr" else mat.col_offsets
            indices = mat.column_indices if view == "csr" else mat.row_indices
            placed = {
                "offsets": self.arena.place(offsets),
                "indices": self.arena.place(indices),
                "weights": self.arena.place(mat.values),
            }
            views[view] = placed
            return placed

    def _release_graph(self, key: int) -> None:
        with self._lock:
            views = self._graphs.pop(key, None)
            if views is None:
                return
            for placed in views.values():
                for descriptor in placed.values():
                    self.arena.release(descriptor)

    def _static_share(self, arr: np.ndarray) -> shm.Descriptor:
        """Immutable placement cached by array identity (edge masks —
        constant across one algorithm's supersteps)."""
        key = id(arr)
        with self._lock:
            hit = self._static.get(key)
            if hit is not None and hit[0] is arr:
                return hit[1]
            if len(self._static) >= _STATIC_CACHE_LIMIT:
                _, descriptor = self._static.pop(next(iter(self._static)))
                self.arena.release(descriptor)
            descriptor = self.arena.place(arr)
            self._static[key] = (arr, descriptor)
            return descriptor

    def _mirror(self, slot: str, arr: np.ndarray) -> shm.Descriptor:
        before = self.arena.bytes_copied
        descriptor = self.arena.mirror(slot, arr)
        probe = active_probe()
        if probe.enabled:
            probe.counter("comm.bytes", self.arena.bytes_copied - before)
        return descriptor

    # -- merge substrate ---------------------------------------------------------------

    def _router(self, graph, n_workers: int) -> MailboxRouter:
        key = (graph.n_vertices, n_workers)
        router = self._routers.get(key)
        if router is None:
            owner_of = contiguous_partition(graph, n_workers).assignment
            # Retry-backed: under chaos injection the mailbox may drop
            # boundary updates; at-least-once redelivery keeps par_proc
            # equivalent (duplicates are free under a min fold).
            router = MailboxRouter(
                owner_of,
                n_workers,
                delivery="superstep",
                resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=8)),
            )
            self._routers[key] = router
        return router

    def _merge(
        self, graph, replies: List[Optional[dict]], n_workers: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold per-worker proposal buffers into one sorted unique
        ``(destinations, folded_values)`` batch via the mailbox."""
        router = self._router(graph, n_workers)
        probe = active_probe()
        combiner = MinCombiner()
        sent = 0
        for rank, reply in enumerate(replies):
            if reply is None or reply["dsts"] is None:
                continue
            dsts = np.asarray(reply["dsts"])
            if not dsts.size:
                continue
            vals = np.asarray(reply["vals"])
            sent += dsts.nbytes + vals.nbytes
            router.send(dsts, vals, from_rank=rank)
        if sent and probe.enabled:
            probe.counter("comm.bytes", sent)
        parts_d: List[np.ndarray] = []
        parts_v: List[np.ndarray] = []
        # Chaos may delay a batch across a barrier; keep flushing until
        # the router drains so a delayed boundary update lands in this
        # superstep's fold rather than leaking into the next.
        rounds = 0
        while True:
            router.flush_barrier()
            for rank in range(n_workers):
                dsts, vals = router.receive(rank, combiner)
                if dsts.size:
                    parts_d.append(dsts)
                    parts_v.append(vals)
            rounds += 1
            if not router.has_messages():
                break
        if not parts_d:
            return _EMPTY_MERGE
        dsts = parts_d[0] if len(parts_d) == 1 else np.concatenate(parts_d)
        vals = parts_v[0] if len(parts_v) == 1 else np.concatenate(parts_v)
        if rounds > 1 or not _is_sorted(dsts):
            # Delayed redelivery appended late batches out of rank
            # order; one more fold restores sorted-unique.
            dsts, vals = combiner.combine_bulk(dsts, vals)
        return dsts, vals

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
                if reply["dsts"] is not None:
                    returned += (
                        np.asarray(reply["dsts"]).nbytes
                        + np.asarray(reply["vals"]).nbytes
                    )
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
        work_ids: np.ndarray,
        active_flags: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One par_proc advance superstep.

        Push: expand ``work_ids``' (the frontier's) out-edges.  Pull:
        scan ``work_ids``' (the candidates') in-edges against
        ``active_flags``.  Returns the merged ``(destinations,
        folded_values)`` proposals — sorted, unique, pre-filtered by the
        workers against the pre-round state mirror; the caller applies
        them and emits the output frontier.
        """
        n_workers = self._worker_count(policy)
        pool = get_proc_pool(n_workers)
        with self._lock:
            is_min_relax = kernel.name == "min_relax"
            fn = ("min_relax_" if is_min_relax else "claim_") + direction
            gdesc = self._graph_share(
                graph, "csr" if direction == "push" else "csc"
            )
            if direction == "push":
                offsets = graph.csr().row_offsets
                args_offsets, args_indices = "row_offsets", "column_indices"
                args_work = "vertices"
            else:
                offsets = graph.csc().col_offsets
                args_offsets, args_indices = "col_offsets", "row_indices"
                args_work = "candidates"
            degrees = offsets[work_ids + 1] - offsets[work_ids]
            chunks = make_chunks(degrees, n_workers, policy.load_balance)
            work_desc = self._mirror("round.work", work_ids)
            base: Dict[str, object] = {
                args_offsets: _shm_ref(gdesc["offsets"]),
                args_indices: _shm_ref(gdesc["indices"]),
            }
            if is_min_relax:
                state = kernel.values
                base["edge_weights"] = _shm_ref(gdesc["weights"])
                base["values"] = _shm_ref(self._mirror("state.values", state))
                base["weighted"] = kernel.weighted
                if direction == "push" and kernel.edge_mask is not None:
                    base["edge_mask"] = _shm_ref(
                        self._static_share(kernel.edge_mask)
                    )
            else:
                state = kernel.levels
                base["levels"] = _shm_ref(self._mirror("state.values", state))
                base["unreached"] = kernel.unreached
            if direction == "pull":
                base["active"] = _shm_ref(
                    self._mirror("round.active", active_flags)
                )
            per_rank: List[Optional[Dict]] = [None] * n_workers
            for rank, (lo, hi) in enumerate(chunks[:n_workers]):
                args = dict(base)
                args[args_work] = _shm_slice(work_desc, lo, hi)
                per_rank[rank] = args
            replies = self._dispatch(pool, fn, per_rank, "advance")
            return self._merge(graph, replies, n_workers)

    # -- pagerank ----------------------------------------------------------------------

    def pagerank_incoming(
        self, policy, graph, share: np.ndarray
    ) -> np.ndarray:
        """One PageRank superstep's incoming-mass vector ``Aᵀ·share``:
        the sum-aggregate kernel over contiguous CSC column ranges in
        parallel (disjoint shared writes; re-running a range after a
        crash is idempotent)."""
        n = graph.n_vertices
        n_workers = self._worker_count(policy)
        pool = get_proc_pool(n_workers)
        with self._lock:
            gdesc = self._graph_share(graph, "csc")
            if "weights64" not in gdesc:
                # The kernel's float64 weights, cast once per graph
                # (released with the graph's other placements).
                gdesc["weights64"] = self.arena.place(
                    graph.csc().values.astype(np.float64)
                )
            share_ref = _shm_ref(self._mirror("pr.share", share))
            inc_desc, incoming = self.arena.slot_array(
                "pr.incoming", n, np.float64
            )
            in_degrees = np.diff(graph.csc().col_offsets)
            chunks = make_chunks(in_degrees, n_workers, policy.load_balance)
            per_rank: List[Optional[Dict]] = [None] * n_workers
            for rank, (lo, hi) in enumerate(chunks[:n_workers]):
                per_rank[rank] = {
                    "col_offsets": _shm_ref(gdesc["offsets"]),
                    "row_indices": _shm_ref(gdesc["indices"]),
                    "edge_weights": _shm_ref(gdesc["weights64"]),
                    "share": share_ref,
                    "incoming": _shm_ref(inc_desc),
                    "lo": int(lo),
                    "hi": int(hi),
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
            self._static.clear()
            self._routers.clear()
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


def engine_started() -> bool:
    """Whether a par_proc engine exists in this process."""
    return _engine is not None


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


def _active_flags_of(frontier, n: int) -> np.ndarray:
    """Dense bool copy of a frontier's active set (mirrored to workers)."""
    if isinstance(frontier, DenseFrontier):
        return frontier.flags_view()
    flags = np.zeros(n, dtype=bool)
    idx = (
        frontier.indices_view()
        if isinstance(frontier, SparseFrontier)
        else frontier.to_indices()
    )
    if idx.size:
        flags[idx] = True
    return flags


def proc_expand(
    policy, graph, frontier, kernel, output, direction, candidates
):
    """The ``par_proc`` overload of ``neighbors_expand``'s fused route.

    Runs the superstep as a sharded round, applies the merged proposals
    to the kernel's state exactly as the single-pass kernel would, and
    emits the (sorted, deduplicated) output frontier.  Returns ``None``
    when the round cannot run here (inside a worker process), letting
    the dispatch fall back to the in-process vectorized overload.
    """
    if not proc_available():
        return None
    engine = get_engine()
    n = graph.n_vertices
    if direction == "push":
        if isinstance(frontier, SparseFrontier):
            work_ids = frontier.indices_view()
        else:
            work_ids = frontier.to_indices()
        active_flags = None
    else:
        if candidates is None:
            work_ids = np.arange(n, dtype=VERTEX_DTYPE)
        else:
            work_ids = np.asarray(candidates, dtype=VERTEX_DTYPE).ravel()
        active_flags = _active_flags_of(frontier, n)
    if work_ids.size == 0:
        return output
    dsts, folded = engine.advance(
        policy,
        graph,
        kernel,
        direction=direction,
        work_ids=work_ids,
        active_flags=active_flags,
    )
    if dsts.size == 0:
        return output
    if kernel.name == "min_relax":
        values = kernel.values
        cand = folded.astype(values.dtype)
        improved = cand < values[dsts]
        winners = dsts[improved]
        if winners.size == 0:
            return output
        values[winners] = cand[improved]
    else:
        levels = kernel.levels
        fresh = levels[dsts] == kernel.unreached
        winners = dsts[fresh]
        if winners.size == 0:
            return output
        srcs = folded[fresh].astype(kernel.parents.dtype)
        # The fold picked the minimum proposing parent per child — one
        # deterministic choice among the equally valid parents the
        # in-process kernel resolves by last write.  Levels agree
        # exactly: every proposer sits in the current frontier.
        levels[winners] = levels[srcs] + 1
        kernel.parents[winners] = srcs
    if isinstance(output, SparseFrontier):
        output.add_many_trusted(winners)
    else:
        output.add_many(winners)
    return output
