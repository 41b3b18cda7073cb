"""The asynchronous enactor: the barrier-free counterpart of Listing 4.

Where the BSP enactor alternates whole-frontier supersteps with a
convergence check, the asynchronous enactor has **no iterations at
all**: every active vertex is an independent task on the scheduler's
queue, a task may enqueue new tasks (its activated neighbors — this is
also exactly the message-passing reading: the queue entry *is* the
message), and the "loop" completes at quiescence.

Tasks must be *monotone* — safe under re-execution and stale reads —
which label-correcting algorithms (SSSP relaxation, BFS level-settling
with atomic min, CC label propagation) satisfy; the framework cannot
check this, so the contract is documented here and verified per
algorithm by the equivalence tests.

Monotonicity also powers the failure story: with a
:class:`~repro.resilience.ResiliencePolicy` individual tasks retry in
place, supervision restarts dead workers, and after repeated parallel
failures the enactor **degrades to sequential execution** — the same
tasks drained from a local queue on the calling thread, which by the
paper's policy-independence claim yields the same results, just slower.
"""

from __future__ import annotations

import collections
import threading
from typing import Iterable, List, Optional, Union

from repro.frontier.base import Frontier
from repro.graph.graph import Graph
from repro.execution.scheduler import AsyncScheduler, ProcessFn
from repro.observability.probe import active_probe
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.supervisor import run_with_fallback
from repro.utils.counters import IterationStats, RunStats
from repro.utils.timing import WallClock


class AsyncEnactor:
    """Runs a per-vertex process function to quiescence.

    Parameters
    ----------
    graph:
        Graph being processed.
    num_workers:
        Scheduler worker threads.
    timeout:
        Overall quiescence deadline in seconds (``None`` = unbounded);
        the safety valve replacing the BSP enactor's ``max_iterations``.
    resilience:
        Optional fault tolerance: task retry and worker supervision go
        to the scheduler; when supervision allows degradation, repeated
        parallel failures fall back to a sequential drain.
    collect_stats:
        Account tasks/edges/wall time into :attr:`last_stats` — the same
        :class:`~repro.utils.counters.RunStats` shape (and, under an
        ambient probe, the same ``loop.*`` metric names) the BSP
        enactors report, so profiles are uniform across timing models.
        The whole run is one pseudo-iteration, since asynchrony has no
        supersteps.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        num_workers: int = 4,
        timeout: Optional[float] = 120.0,
        resilience: Optional[ResiliencePolicy] = None,
        collect_stats: bool = True,
    ) -> None:
        self.graph = graph
        self.resilience = resilience
        self.scheduler = AsyncScheduler(num_workers, resilience=resilience)
        self.timeout = timeout
        self.collect_stats = collect_stats
        #: Stats of the most recent :meth:`run` (empty before any run).
        self.last_stats = RunStats()

    def run(
        self,
        initial: Union[Frontier, Iterable[int]],
        process: ProcessFn,
    ) -> int:
        """Process ``initial`` and everything it transitively activates.

        ``process(vertex, push)`` handles one active vertex and calls
        ``push(u)`` for every vertex it re-activates.  Returns the total
        number of tasks processed (≥ the number of distinct vertices
        touched, since re-activation re-processes); per-run accounting
        lands in :attr:`last_stats`.
        """
        if isinstance(initial, Frontier):
            items = [int(v) for v in initial.to_indices()]
        else:
            items = [int(v) for v in initial]

        probe = active_probe()
        counted = process
        edges = [0]
        if self.collect_stats:
            degrees = self.graph.out_degrees()
            edges_lock = threading.Lock()

            def counted(item: int, push) -> None:  # noqa: F811
                process(item, push)
                d = int(degrees[item])
                with edges_lock:
                    edges[0] += d

        def parallel() -> int:
            return self.scheduler.run(
                counted, items, self.graph.n_vertices, timeout=self.timeout
            )

        def execute() -> int:
            resilience = self.resilience
            if resilience is None or resilience.supervision is None:
                return parallel()
            return run_with_fallback(
                parallel,
                lambda: self._run_sequential(items, counted),
                config=resilience.supervision,
                counters=resilience.counters,
            )

        clock = WallClock()
        with probe.span(
            "async:run",
            seed_items=len(items),
            workers=self.scheduler.num_workers,
        ) as span:
            with clock.measure():
                processed = execute()
            span.set("tasks_processed", processed)
            span.set("edges_expanded", edges[0])
        if self.collect_stats:
            stats = RunStats()
            stats.record(
                IterationStats(
                    iteration=0,
                    frontier_size=processed,
                    edges_touched=edges[0],
                    seconds=clock.elapsed,
                )
            )
            stats.converged = True
            self.last_stats = stats
            if probe.enabled:
                probe.metrics.record_run(stats)
        return processed

    def _run_sequential(self, items: List[int], process: ProcessFn) -> int:
        """Degraded mode: drain the task graph on the calling thread.

        Re-executing from the original seed items is safe because tasks
        are monotone — work already done by failed parallel attempts
        only makes the sequential pass faster.  Task retry still
        applies (chaos task faults remain survivable); worker death is
        meaningless without workers and is not consulted.
        """
        from repro.resilience.deadline import active_token

        token = active_token()
        resilience = self.resilience
        queue = collections.deque(items)
        processed = 0
        while queue:
            if token is not None and processed % 64 == 0:
                token.check("async:sequential-drain")
            item = queue.popleft()
            resilience.execute(
                lambda item=item: process(item, queue.append),
                site=f"seq-task:{item}",
            )
            processed += 1
        return processed

