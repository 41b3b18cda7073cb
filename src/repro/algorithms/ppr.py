"""Personalized PageRank — the `ppr` entry of the essentials suite.

Two implementations with complementary regimes:

* :func:`personalized_pagerank` — power iteration with teleport mass
  concentrated on the seed set (a one-line change to global PageRank's
  update, which is the point: same loop, different convergence data).
* :func:`ppr_forward_push` — Andersen-Chung-Lang forward push: a
  *frontier-driven* local algorithm that only touches vertices whose
  residual exceeds the tolerance — the sparse-frontier regime, in
  contrast to power iteration's all-vertices frontiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.algorithms.pagerank import power_iteration
from repro.errors import CancellationError
from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.enactor import Enactor
from repro.execution.policy import ExecutionPolicy, par_vector
from repro.utils.counters import RunStats
from repro.utils.validation import check_probability


@dataclass
class PPRResult:
    """Personalized rank vector plus accounting."""

    ranks: np.ndarray
    seeds: np.ndarray
    iterations: int
    converged: bool
    stats: RunStats = field(default_factory=RunStats)


def personalized_pagerank(
    graph: Graph,
    seeds: Union[int, Sequence[int]],
    *,
    damping: float = 0.85,
    tolerance: float = 1e-8,
    max_iterations: int = 200,
    policy: Union[str, ExecutionPolicy] = par_vector,
    initial_ranks: Optional[np.ndarray] = None,
    backend: str = "native",
) -> PPRResult:
    """PPR by power iteration: teleport returns to ``seeds`` uniformly.

    PageRank's own driver (:func:`~repro.algorithms.pagerank.power_iteration`)
    with the teleport vector on the seeds, so every policy runs its
    PageRank path and a deadline returns the last iterate unconverged.
    ``initial_ranks`` warm-starts the iteration from a previous rank
    vector (the unique fixed point is unchanged; only the iteration
    count to reach it shrinks)."""
    from repro.execution.backend import resolve_backend

    resolve_backend(backend, "ppr")  # validates; both names run this driver
    n = graph.n_vertices
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    if seeds.size == 0:
        raise ValueError("at least one seed vertex is required")
    if int(seeds.min()) < 0 or int(seeds.max()) >= n:
        raise ValueError(f"seed ids must lie in [0, {n})")
    teleport = np.zeros(n, dtype=np.float64)
    teleport[seeds] = 1.0 / seeds.size
    result = power_iteration(
        graph,
        teleport,
        initial_ranks=initial_ranks,
        damping=float(damping),
        tolerance=tolerance,
        max_iterations=max_iterations,
        policy=policy,
    )
    return PPRResult(
        ranks=result.ranks,
        seeds=seeds,
        iterations=result.iterations,
        converged=result.converged,
        stats=result.stats,
    )


def ppr_forward_push(
    graph: Graph,
    seed: int,
    *,
    damping: float = 0.85,
    epsilon: float = 1e-6,
) -> PPRResult:
    """Local PPR by forward push (Andersen–Chung–Lang).

    Maintains estimate ``p`` and residual ``r``; while some vertex v has
    ``r[v] > epsilon * deg(v)``, push: move ``(1-damping)·r[v]`` into
    ``p[v]`` and spread ``damping·r[v]`` across v's out-neighbors.
    Touches only the seed's neighborhood — the frontier stays sparse on
    big graphs, the regime where push-style locality wins.  One
    superstep pushes every violating vertex at once, the bulk-synchronous
    reading of the push loop.

    Convergence: ``p`` approximates PPR with additive error ≤ epsilon·deg
    per vertex (the classic guarantee, checked against power iteration
    in tests at matching tolerance).
    """
    check_probability(damping, "damping")
    n = graph.n_vertices
    if not (0 <= seed < n):
        raise ValueError(f"seed must lie in [0, {n})")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    csr = graph.csr()
    degrees = csr.degrees()
    deg_floor = np.maximum(degrees, 1)
    p = np.zeros(n, dtype=np.float64)
    r = np.zeros(n, dtype=np.float64)
    r[seed] = 1.0

    def violating() -> SparseFrontier:
        return SparseFrontier.from_indices(
            np.nonzero(r > epsilon * deg_floor)[0], n
        )

    pushes = 0

    def step(frontier, state):
        nonlocal pushes
        pushes += 1
        active = frontier.indices_view()
        pushed = r[active].copy()
        p[active] += (1.0 - damping) * pushed
        r[active] = 0.0
        srcs, dsts, _, _ = csr.expand_vertices(active)
        if dsts.size == 0:
            # Only dangling vertices were active: their residual reflects
            # back to self (standard treatment keeps mass conserved), and
            # no further push can move it.
            r[active] += damping * pushed
            return SparseFrontier(n)
        spread = damping * pushed / deg_floor[active]
        np.add.at(r, dsts, np.repeat(spread, degrees[active]))
        return violating()

    try:
        stats = Enactor(graph).run(violating(), step)
    except CancellationError:
        # Push is anytime: p is a valid underestimate whenever the loop
        # stops; only the residual bound is unmet.
        return PPRResult(
            ranks=p, seeds=np.asarray([seed]), iterations=pushes,
            converged=False,
        )
    return PPRResult(
        ranks=p,
        seeds=np.asarray([seed]),
        iterations=stats.num_iterations,
        converged=True,
        stats=stats,
    )
