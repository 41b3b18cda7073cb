"""PageRank under the BSP loop with a fixed-point convergence condition.

PageRank is the canonical "iterate until values settle" workload: the
frontier is all vertices every superstep, so convergence comes from
:class:`~repro.loop.convergence.ValuesConverged` (or an iteration cap)
rather than frontier emptiness — demonstrating that the loop structure's
convergence conditions are pluggable, not hard-wired to traversal.

The rank update is the standard damped power iteration with dangling-
vertex mass redistributed uniformly; the vectorized and multiprocess
policies compute each superstep as one (+, ×) sum-aggregate
(:mod:`repro.operators.sum_aggregate`), the threaded/sequential policies
via per-edge accumulation through the operator layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.errors import CancellationError
from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.convergence import AnyOf, MaxIterations, ValuesConverged
from repro.loop.enactor import Enactor
from repro.execution.policy import (
    ExecutionPolicy,
    ProcPolicy,
    SequencedPolicy,
    VectorPolicy,
    par_vector,
    resolve_policy,
)
from repro.execution.thread_pool import even_chunks, get_pool
from repro.operators.sum_aggregate import graph_aggregate
from repro.utils.counters import RunStats


@dataclass
class PageRankResult:
    """Final ranks (summing to 1), iteration count, convergence delta."""

    ranks: np.ndarray
    iterations: int
    delta: float
    converged: bool
    stats: RunStats = field(default_factory=RunStats)


def pagerank(
    graph: Graph,
    *,
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
    policy: Union[str, ExecutionPolicy] = par_vector,
    initial_ranks: Optional[np.ndarray] = None,
    backend: str = "native",
) -> PageRankResult:
    """Damped PageRank to an L1 fixed point.

    ``tolerance`` is the L1 movement between successive rank vectors at
    which iteration stops; ``max_iterations`` caps it (both conditions
    are composed with :class:`~repro.loop.convergence.AnyOf`).
    ``initial_ranks`` warm-starts the iteration (e.g. from a
    pre-mutation result); the fixed point is unique, so the start only
    affects how many iterations convergence takes.

    The sum-aggregate ``incoming = Aᵀ·share`` is the one (+, ×) kernel
    of :mod:`repro.operators.sum_aggregate` under ``par_vector`` (over
    the CSR, in process) and ``par_proc`` (over CSC slices in shared
    memory) — bit-identical to each other; ``seq``/``par`` keep their
    per-edge loops (the policy axis).  ``backend="linalg"`` names the
    same computation and runs the same code.
    """
    from repro.execution.backend import resolve_backend

    resolve_backend(backend, "pagerank")  # validates; both names run this driver
    policy = resolve_policy(policy)
    if not (0.0 <= damping <= 1.0):
        raise ValueError(f"damping must be in [0, 1], got {damping}")
    n = graph.n_vertices
    if n == 0:
        return PageRankResult(
            ranks=np.empty(0), iterations=0, delta=0.0, converged=True
        )
    csr = graph.csr()
    aggregate = graph_aggregate(graph)
    # Rank mass flows along edges in proportion to edge weight (degrees
    # for unit weights) — the same convention as networkx, so oracles
    # compare directly on weighted graphs.
    out_weight = aggregate.gather(np.ones(n, dtype=np.float64))
    dangling = np.flatnonzero(out_weight == 0)
    # x / inf == 0: dangling vertices share nothing, in one pass.
    out_weight[dangling] = np.inf
    if initial_ranks is not None:
        if initial_ranks.shape != (n,):
            raise ValueError(
                f"initial_ranks must have shape ({n},), "
                f"got {initial_ranks.shape}"
            )
        ranks = initial_ranks.astype(np.float64, copy=True)
        total = float(ranks.sum())
        if total > 0:  # renormalize: a stale vector still sums to ~1
            ranks /= total
    else:
        ranks = np.full(n, 1.0 / n, dtype=np.float64)

    state_box = {"ranks": ranks, "delta": np.inf, "iterations": 0}

    def incoming_vector(r: np.ndarray) -> np.ndarray:
        share = r / out_weight
        if isinstance(policy, ProcPolicy):
            # Sharded superstep: the parent computes ``share`` once and
            # mirrors it; each worker runs the kernel over a contiguous
            # CSC column range.  Inside a worker (no nested pools) the
            # in-process form below stands in.
            from repro.execution.proc_engine import get_engine, proc_available

            if proc_available():
                return get_engine().pagerank_incoming(policy, graph, share)
        return aggregate.scatter(share)

    def incoming_scalar(r: np.ndarray, parallel: bool) -> np.ndarray:
        def accumulate(start: int, stop: int) -> np.ndarray:
            local = np.zeros(n, dtype=np.float64)
            for v in range(start, stop):
                share = r[v] / out_weight[v]
                if share == 0:
                    continue
                for e in csr.get_edges(v):
                    local[csr.get_dest_vertex(e)] += share * float(
                        csr.values[e]
                    )
            return local

        if not parallel:
            return accumulate(0, n)
        pool = get_pool(policy.num_workers)
        partials = pool.run_tasks(
            [
                (lambda s=s, e=e: accumulate(s, e))
                for s, e in even_chunks(n, policy.num_workers or pool.num_workers)
            ]
        )
        incoming = np.zeros(n, dtype=np.float64)
        for p in partials:
            incoming += p
        return incoming

    def step(frontier, state):
        r = state_box["ranks"]
        if isinstance(policy, VectorPolicy):  # par_vector and par_proc
            incoming = incoming_vector(r)
        else:
            incoming = incoming_scalar(
                r, parallel=not isinstance(policy, SequencedPolicy)
            )
        dangling_mass = float(r.take(dangling).sum()) / n
        new_ranks = (1.0 - damping) / n + damping * (incoming + dangling_mass)
        state_box["delta"] = float(np.abs(new_ranks - r).sum())
        state_box["ranks"] = new_ranks
        state.context["delta"] = state_box["delta"]
        state_box["iterations"] += 1
        return frontier  # all-vertices frontier is static

    convergence = AnyOf(
        [
            MaxIterations(max_iterations),
            ValuesConverged(
                lambda s: state_box["ranks"], tolerance=tolerance, norm="l1"
            ),
        ]
    )
    all_vertices = SparseFrontier.from_indices(np.arange(n), n)
    enactor = Enactor(graph, convergence=convergence, max_iterations=max_iterations + 1)
    try:
        stats = enactor.run(all_vertices, step)
    except CancellationError:
        # Deadline/cancel fired between supersteps: every completed
        # superstep left a coherent rank vector in the state box, so the
        # best answer under the budget is the current iterate, surfaced
        # as an explicitly unconverged partial result rather than an
        # error — power iteration's anytime property.
        partial = RunStats()
        partial.converged = False
        return PageRankResult(
            ranks=state_box["ranks"],
            iterations=state_box["iterations"],
            delta=float(state_box["delta"]),
            converged=False,
            stats=partial,
        )

    ranks = state_box["ranks"]
    delta = float(state_box["delta"])
    return PageRankResult(
        ranks=ranks,
        iterations=stats.num_iterations,
        delta=delta,
        converged=delta <= tolerance,
        stats=stats,
    )
