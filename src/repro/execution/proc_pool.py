"""Persistent worker-process pool backing the ``par_proc`` policy.

The pool is the process analog of :mod:`repro.execution.thread_pool`:
spawned once per worker count, cached process-wide, reused across
supersteps and algorithms (spawn start-up costs ~1s; a superstep costs
milliseconds).  Each worker runs :func:`_worker_main` — a small command
loop over a duplex pipe that attaches shared-memory views
(:mod:`repro.execution.shm`) and executes the round kernels in
:mod:`repro.execution.proc_kernels` on the destination range it owns.

Protocol (control messages are tiny dicts on the pipe; bulk data always
travels through shared memory or as the range's ``(winners, values)``
the round returns):

* ``{"cmd": "round", "id", "fn", "args", "retire"}`` → ``{"id", "ok",
  "winners", "values", "scanned", "busy"}`` — run one partition round
  (``scanned``: the edges a pull claim read, else ``None``).
  ``retire`` lists shared segments whose cached attachments must drop.
* ``{"cmd": "ping"}`` → liveness probe; ``{"cmd": "exit"}`` → drain and
  leave.

**Start method.**  Workers are started with ``spawn`` (configurable via
``REPRO_PROC_START``): the parent routinely owns live thread pools, and
``fork`` duplicating a locked mutex into the child is a deadlock, not a
performance knob.

**Supervision.**  Rounds are idempotent by design — workers do not
mutate shared algorithm state (they fold in private scratch; PageRank's
disjoint row writes are overwrite-safe), so a worker that dies
mid-round (crash, OOM-kill, SIGKILL) is respawned and its round
re-dispatched, bounded by a respawn budget.  Replies are tagged with round ids so a reply from an abandoned
round (e.g. after cancellation) is discarded instead of being mistaken
for the current one.

**Cancellation.**  While waiting on replies the parent polls the
ambient :class:`~repro.resilience.deadline.CancelToken`; on fire it
abandons the round (workers finish and their stale replies are
drained later) and raises at the cooperative checkpoint — the same
between-superstep discipline the enactors use.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing as mp
import os
import threading
import time
from multiprocessing import connection as mp_connection
from typing import Dict, List, Optional

from repro.execution import proc_kernels, shm
from repro.observability.context import current_trace_id
from repro.observability.probe import active_probe
from repro.resilience.deadline import active_token

#: How often the reply wait polls for cancellation / dead workers.
_POLL_SECONDS = 0.05

#: Respawn budget per dispatch: more dead workers than this in one round
#: means something systemic (not one lost process), so fail loudly.
_MAX_RESPAWNS_PER_ROUND = 8

#: Worker-side kernel registry (names cross the pipe, functions do not).
_KERNELS = {
    "min_relax": proc_kernels.min_relax_range,
    "claim": proc_kernels.claim_range,
    "pagerank_range": proc_kernels.pagerank_range,
}

_in_worker = False


def in_worker_process() -> bool:
    """Whether this process is a ``par_proc`` worker (nested pools are
    refused — a worker resolving ``par_proc`` falls back to the
    vectorized in-process path)."""
    return _in_worker


def default_proc_workers() -> int:
    """Worker-process default: ``REPRO_NUM_WORKERS`` when set, else every
    CPU — processes do not share a GIL, so there is no cap."""
    env = os.environ.get("REPRO_NUM_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def _start_method() -> str:
    method = os.environ.get("REPRO_PROC_START", "spawn")
    return method if method in mp.get_all_start_methods() else "spawn"


# -- worker side ----------------------------------------------------------------------


def _resolve_args(args: Dict) -> Dict:
    """Replace ``("shm", descriptor)`` markers with attached views."""
    out = {}
    for key, value in args.items():
        if isinstance(value, tuple) and len(value) == 2 and value[0] == "shm":
            value = shm.attach(value[1])
        out[key] = value
    return out


def _worker_main(rank: int, conn) -> None:  # pragma: no cover - child process
    """Command loop of one worker (covered by the e2e par_proc tests;
    coverage instrumentation does not follow spawned children)."""
    global _in_worker
    _in_worker = True
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        cmd = msg.get("cmd")
        if cmd == "exit":
            break
        if cmd == "ping":
            conn.send({"cmd": "pong", "rank": rank, "pid": os.getpid()})
            continue
        if cmd == "retire":  # cache invalidation only, no reply
            shm.detach(msg.get("names", ()))
            continue
        if cmd != "round":
            conn.send({"id": msg.get("id"), "ok": False,
                       "error": f"unknown command {cmd!r}"})
            continue
        shm.detach(msg.get("retire", ()))
        t0 = time.perf_counter()
        try:
            fn = _KERNELS[msg["fn"]]
            args = _resolve_args(msg["args"])
            if fn is proc_kernels.pagerank_range:
                fn(**args)  # writes its rows of the shared output
                winners = values = None
                scanned = ()
            else:
                winners, values, *scanned = fn(**args)
            reply = {"id": msg["id"], "ok": True, "winners": winners,
                     "values": values, "scanned": scanned[0] if scanned else None,
                     "busy": time.perf_counter() - t0}
        except Exception as exc:  # surface, don't die: the round failed
            reply = {"id": msg["id"], "ok": False,
                     "error": f"{type(exc).__name__}: {exc}",
                     "busy": time.perf_counter() - t0}
        if "trace" in msg:
            # Echo the distributed-tracing id so the parent's stitched
            # proc:task span is attributable to the originating query.
            reply["trace"] = msg["trace"]
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    shm.detach_all()


# -- parent side ----------------------------------------------------------------------


class WorkerDied(RuntimeError):
    """A worker exceeded the respawn budget or died unrecoverably."""


class _Worker:
    __slots__ = ("rank", "process", "conn")

    def __init__(self, rank, process, conn):
        self.rank = rank
        self.process = process
        self.conn = conn


class ProcPool:
    """A fixed-size pool of persistent spawned workers."""

    def __init__(self, num_workers: int) -> None:
        self.num_workers = max(1, int(num_workers))
        self._ctx = mp.get_context(_start_method())
        self._workers: List[Optional[_Worker]] = [None] * self.num_workers
        self._round_ids = itertools.count(1)
        self._lock = threading.RLock()
        self._closed = False
        #: Worker restarts over the pool's lifetime (supervision metric).
        self.restarts = 0
        for rank in range(self.num_workers):
            self._spawn(rank)

    def _spawn(self, rank: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(rank, child_conn),
            name=f"repro-proc-{rank}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(rank, process, parent_conn)
        self._workers[rank] = worker
        return worker

    def _respawn(self, rank: int, budget: List[int]) -> _Worker:
        budget[0] += 1
        if budget[0] > _MAX_RESPAWNS_PER_ROUND:
            raise WorkerDied(
                f"worker rank {rank} keeps dying "
                f"({budget[0]} respawns this round)"
            )
        old = self._workers[rank]
        if old is not None:
            try:
                old.conn.close()
            except OSError:  # pragma: no cover
                pass
            if old.process.is_alive():  # pragma: no cover - hung worker
                old.process.terminate()
            old.process.join(timeout=5)
        self.restarts += 1
        probe = active_probe()
        probe.counter("proc.worker_restarts")
        # Also mark the respawn on the enclosing span (the proc:round in
        # flight), so a trace of the affected query shows *when* in the
        # round a worker died — not just that a counter moved.
        probe.event(
            "proc:worker_respawn", worker=rank, restarts=self.restarts
        )
        return self._spawn(rank)

    # -- round dispatch ----------------------------------------------------------------

    def run_round(self, fn: str, per_rank_args: List[Optional[Dict]],
                  retire: List[str]) -> List[Optional[Dict]]:
        """Dispatch one bulk-synchronous round; barrier on all replies.

        ``per_rank_args[rank] is None`` skips that worker this round
        (it still receives the retire list with the next real round).
        Returns per-rank reply dicts (None for skipped ranks).  Dead
        workers are respawned and their partition re-dispatched; a
        fired ambient cancel token abandons the round and raises.
        """
        with self._lock:
            if self._closed:
                raise WorkerDied("pool is closed")
            round_id = next(self._round_ids)
            budget = [0]
            trace_id = current_trace_id()
            messages: Dict[int, Dict] = {}
            for rank, args in enumerate(per_rank_args):
                if args is None:
                    continue
                messages[rank] = {
                    "cmd": "round", "id": round_id, "fn": fn,
                    "args": args, "retire": retire,
                }
                if trace_id is not None:
                    # Round frames carry the originating query's trace
                    # id across the process boundary; workers echo it.
                    messages[rank]["trace"] = trace_id
            for rank, msg in messages.items():
                self._send(rank, msg, budget)
            if retire:
                # Idle workers still learn about retired segments, so a
                # stale cached attachment cannot pin unlinked pages
                # until that rank happens to participate again.
                for rank in range(len(per_rank_args)):
                    if rank in messages:
                        continue
                    worker = self._workers[rank]
                    if worker is None or not worker.process.is_alive():
                        continue  # a respawn starts with an empty cache
                    try:
                        worker.conn.send({"cmd": "retire", "names": retire})
                    except (BrokenPipeError, OSError):
                        pass
            replies: List[Optional[Dict]] = [None] * len(per_rank_args)
            pending = set(messages)
            while pending:
                token = active_token()
                if token is not None and token.should_stop():
                    # Abandon: stale replies carry an old round id and
                    # are discarded by the next round's drain.
                    token.check(f"proc_pool:round:{round_id}")
                progressed = False
                for rank in sorted(pending):
                    worker = self._workers[rank]
                    try:
                        ready = worker.conn.poll(0)
                    except (OSError, EOFError):
                        ready = False
                    if ready:
                        try:
                            reply = worker.conn.recv()
                        except (EOFError, OSError):
                            self._resend(rank, messages[rank], budget)
                            continue
                        if reply.get("cmd") == "pong" or reply.get("id") != round_id:
                            continue  # stale: an abandoned round's reply
                        if not reply.get("ok"):
                            raise WorkerDied(
                                f"worker rank {rank} failed: "
                                f"{reply.get('error', 'unknown error')}"
                            )
                        replies[rank] = reply
                        pending.discard(rank)
                        progressed = True
                    elif not worker.process.is_alive():
                        # Crash/SIGKILL mid-round: rounds are idempotent,
                        # so respawn and re-dispatch the same partition.
                        self._resend(rank, messages[rank], budget)
                if not progressed and pending:
                    self._wait_any(pending, _POLL_SECONDS)
            return replies

    def _wait_any(self, pending, timeout: float) -> None:
        conns = []
        for rank in pending:
            worker = self._workers[rank]
            if worker is not None:
                conns.append(worker.conn)
        if conns:
            try:
                mp_connection.wait(conns, timeout)
            except OSError:  # pragma: no cover - racing a dying worker
                time.sleep(timeout)

    def _send(self, rank: int, msg: Dict, budget: List[int]) -> None:
        worker = self._workers[rank]
        if worker is None or not worker.process.is_alive():
            worker = self._respawn(rank, budget)
        try:
            worker.conn.send(msg)
        except (BrokenPipeError, OSError):
            worker = self._respawn(rank, budget)
            worker.conn.send(msg)

    def _resend(self, rank: int, msg: Dict, budget: List[int]) -> None:
        self._respawn(rank, budget)
        self._send(rank, msg, budget)

    # -- lifecycle ---------------------------------------------------------------------

    def ping(self) -> List[int]:
        """Round-trip every worker; returns their pids (tests/debug)."""
        with self._lock:
            pids = []
            for worker in self._workers:
                worker.conn.send({"cmd": "ping"})
            for worker in self._workers:
                while True:
                    reply = worker.conn.recv()
                    if reply.get("cmd") == "pong":
                        pids.append(reply["pid"])
                        break
            return pids

    def worker_pids(self) -> List[int]:
        """Current worker pids without a round-trip."""
        return [w.process.pid for w in self._workers if w is not None]

    def close(self) -> None:
        """Ask workers to exit, then join (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                if worker is None:
                    continue
                try:
                    worker.conn.send({"cmd": "exit"})
                except (BrokenPipeError, OSError):
                    pass
            for worker in self._workers:
                if worker is None:
                    continue
                worker.process.join(timeout=5)
                if worker.process.is_alive():  # pragma: no cover
                    worker.process.terminate()
                    worker.process.join(timeout=5)
                try:
                    worker.conn.close()
                except OSError:  # pragma: no cover
                    pass


_pools: Dict[int, ProcPool] = {}
_pools_lock = threading.Lock()


def get_proc_pool(num_workers: Optional[int] = None) -> ProcPool:
    """Fetch (or lazily spawn) the process-wide pool for a worker count."""
    key = num_workers or default_proc_workers()
    with _pools_lock:
        pool = _pools.get(key)
        if pool is None or pool._closed:
            pool = ProcPool(key)
            _pools[key] = pool
        return pool


def shutdown_pools() -> None:
    """Close every cached pool (tests and interpreter exit)."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.close()


atexit.register(shutdown_pools)
