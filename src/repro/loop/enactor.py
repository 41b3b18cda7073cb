"""The bulk-synchronous enactor: Listing 4's while-loop, reified.

An :class:`Enactor` owns the loop scaffolding every BSP graph algorithm
shares — iterate, call the algorithm's per-superstep step function
(itself built from operators), evaluate the convergence condition,
record stats — so algorithm modules contain only their operator
composition and lambdas, exactly as the paper's SSSP listing contains
only the expand call and its condition.

Owning the loop also makes the enactor the recovery seam: with a
:class:`~repro.resilience.ResiliencePolicy` the enactor runs each
superstep under chaos fault points and retry (safe because supersteps
are monotone and faults inject at superstep entry, before any mutation),
and snapshots ``(frontier, value arrays, context)`` every
``checkpoint_every`` supersteps so :meth:`resume_from_checkpoint`
restarts a crashed run from the last completed superstep instead of
superstep 0.  Algorithm step functions never see any of this.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.errors import CheckpointError, ConvergenceError
from repro.frontier.base import Frontier
from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.convergence import (
    ConvergenceCondition,
    EmptyFrontier,
    LoopState,
)
from repro.observability.probe import active_probe
from repro.execution.workspace import Workspace
from repro.resilience.chaos import active_injector
from repro.resilience.deadline import active_token
from repro.resilience.checkpoint import Checkpoint, snapshot_arrays
from repro.resilience.policy import ResiliencePolicy
from repro.utils.counters import IterationStats, RunStats

#: ``step(frontier, state) -> next_frontier`` — one superstep of the
#: algorithm, composed of operator calls.
StepFn = Callable[[Frontier, LoopState], Frontier]

#: Named per-vertex value arrays an algorithm registers for checkpointing.
StateArrays = Dict[str, np.ndarray]


class Enactor:
    """Runs a step function to convergence under the BSP timing model.

    Parameters
    ----------
    graph:
        Graph being processed (used for work accounting).
    convergence:
        Condition checked *after* each superstep; defaults to
        :class:`~repro.loop.convergence.EmptyFrontier`.
    max_iterations:
        Hard safety cap; exceeding it raises
        :class:`~repro.errors.ConvergenceError` (a diverging algorithm
        should fail loudly, not spin).
    collect_stats:
        Record per-iteration frontier sizes / timings (tiny overhead;
        disable for microbenchmarks).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        convergence: Optional[ConvergenceCondition] = None,
        max_iterations: int = 1_000_000,
        collect_stats: bool = True,
    ) -> None:
        if max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {max_iterations}")
        self.graph = graph
        self.convergence = convergence or EmptyFrontier()
        self.max_iterations = max_iterations
        self.collect_stats = collect_stats
        #: Pooled scratch buffers, reused across this enactor's supersteps.
        #: Algorithms thread it into operators via ``workspace=``; sharing
        #: one workspace across concurrently-running enactors is not safe.
        self.workspace = Workspace()

    def run(
        self,
        initial_frontier: Frontier,
        step: StepFn,
        *,
        context: Optional[dict] = None,
        resilience: Optional[ResiliencePolicy] = None,
        state_arrays: Optional[StateArrays] = None,
        _start_iteration: int = 0,
    ) -> RunStats:
        """Drive ``step`` until the convergence condition holds.

        The condition is evaluated once before the first superstep (a
        pre-converged input runs zero steps) and after every superstep.
        Returns the :class:`~repro.utils.counters.RunStats` record.

        ``resilience`` adds superstep retry / chaos / checkpointing;
        ``state_arrays`` names the algorithm's value arrays so
        checkpoints can snapshot and restore them.
        """
        self.convergence.reset()
        state = LoopState(iteration=_start_iteration, frontier=initial_frontier)
        if context:
            state.context.update(context)
        stats = RunStats()
        probe = active_probe()
        degrees = self.graph.out_degrees() if self.collect_stats else None
        checkpointing = (
            resilience is not None
            and resilience.checkpoint_every > 0
            and resilience.store is not None
            and state_arrays is not None
        )

        if self.convergence(state):
            stats.converged = True
            return self._finish(stats, probe)

        # Cooperative cancellation: the ambient token (installed per
        # query thread by the service layer) is polled once per
        # superstep, between mutations, so a timed-out query stops at
        # the next boundary with every pool and workspace reusable.
        token = active_token()
        frontier = initial_frontier
        while True:
            if token is not None:
                token.check(f"superstep:{state.iteration}")
            if state.iteration >= self.max_iterations:
                raise ConvergenceError(
                    f"loop exceeded max_iterations={self.max_iterations} "
                    f"without converging (frontier size "
                    f"{frontier.size() if frontier is not None else 'n/a'})"
                )
            # The per-superstep bookkeeping runs inside the span too, so a
            # traced run books it to the loop layer instead of leaving it
            # unattributed between spans.
            with probe.span("superstep", iteration=state.iteration) as span:
                in_size = frontier.size() if frontier is not None else 0
                edges_touched = 0
                if self.collect_stats:
                    if frontier is not None and in_size:
                        active = (
                            frontier.indices_view()
                            if isinstance(frontier, SparseFrontier)
                            else frontier.to_indices()
                        )
                        edges_touched = int(np.add.reduce(degrees.take(active)))
                    t0 = time.perf_counter()
                frontier = self._run_step(step, frontier, state, resilience)
                if probe.enabled:
                    # Superstep summary: the output frontier size closes
                    # the loop for the analysis engine's frontier
                    # timeline.  Guarded so the disabled path never pays
                    # for frontier.size().
                    span.set("frontier_size", in_size)
                    span.set("edges_expanded", edges_touched)
                    span.set(
                        "output_frontier_size",
                        frontier.size() if frontier is not None else 0,
                    )
                state.iteration += 1
                state.frontier = frontier
                if self.collect_stats:
                    stats.record(
                        IterationStats(
                            iteration=state.iteration - 1,
                            frontier_size=in_size,
                            edges_touched=edges_touched,
                            seconds=time.perf_counter() - t0,
                        )
                    )
                converged = self.convergence(state)
            if converged:
                stats.converged = True
                return self._finish(stats, probe)
            if (
                checkpointing
                and state.iteration % resilience.checkpoint_every == 0
            ):
                self._save_checkpoint(state, frontier, resilience, state_arrays)

    def _finish(self, stats: RunStats, probe) -> RunStats:
        """Fold the finished run into the ambient metrics registry."""
        if probe.enabled:
            probe.metrics.record_run(stats)
        return stats

    def resume_from_checkpoint(
        self,
        step: StepFn,
        *,
        resilience: ResiliencePolicy,
        state_arrays: StateArrays,
        context: Optional[dict] = None,
    ) -> RunStats:
        """Continue a crashed run from its last saved checkpoint.

        Restores the snapshot's value arrays into ``state_arrays`` **in
        place**, rebuilds the frontier, and re-enters the loop at the
        saved superstep.  The returned stats cover the resumed portion
        only.  Raises :class:`~repro.errors.CheckpointError` when no
        checkpoint exists.
        """
        if resilience.store is None:
            raise CheckpointError(
                "resume requested but the resilience policy has no store"
            )
        ckpt = resilience.store.latest()
        if ckpt is None:
            raise CheckpointError("resume requested but no checkpoint saved")
        ckpt.restore_arrays(state_arrays)
        frontier = SparseFrontier.from_indices(
            ckpt.frontier_indices, ckpt.capacity
        )
        resilience.counters.increment("checkpoints_restored")
        merged = dict(ckpt.context)
        if context:
            merged.update(context)
        return self.run(
            frontier,
            step,
            context=merged,
            resilience=resilience,
            state_arrays=state_arrays,
            _start_iteration=ckpt.superstep,
        )

    # -- resilience plumbing -----------------------------------------------------------

    def _run_step(
        self,
        step: StepFn,
        frontier: Frontier,
        state: LoopState,
        resilience: Optional[ResiliencePolicy],
    ) -> Frontier:
        """One superstep, under this run's fault points and retry.

        Chaos injects at superstep *entry* — before the step mutates
        anything — so a retried attempt re-executes from identical
        state; a mid-step crash is the checkpoint/resume path's job.

        Without a policy an *ambient* injector still applies; its faults
        then abort the run — the unprotected baseline behavior.
        """
        if resilience is None:
            ambient = active_injector()
            if ambient is not None:
                ambient.maybe_fail_task(f"superstep:{state.iteration}")
            return step(frontier, state)
        injector = resilience.active_chaos()

        def attempt() -> Frontier:
            if injector is not None:
                injector.maybe_fail_task(f"superstep:{state.iteration}")
            return step(frontier, state)

        return resilience.execute(
            attempt, site=f"superstep:{state.iteration}"
        )

    def _save_checkpoint(
        self,
        state: LoopState,
        frontier: Frontier,
        resilience: ResiliencePolicy,
        state_arrays: StateArrays,
    ) -> None:
        with active_probe().span("checkpoint:save", superstep=state.iteration):
            previous = resilience.store.latest()
            resilience.store.save(
                Checkpoint(
                    superstep=state.iteration,
                    frontier_indices=frontier.to_indices()
                    if frontier is not None
                    else np.empty(0, dtype=np.int64),
                    capacity=frontier.capacity
                    if frontier is not None
                    else self.graph.n_vertices,
                    arrays=snapshot_arrays(state_arrays, previous),
                    context=dict(state.context),
                )
            )
            resilience.counters.increment("checkpoints_saved")
