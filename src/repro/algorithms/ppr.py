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

from repro.graph.graph import Graph
from repro.execution.policy import ExecutionPolicy, par_vector, resolve_policy
from repro.resilience.deadline import active_token
from repro.utils.counters import IterationStats, RunStats
from repro.utils.validation import check_probability
from repro.operators.sum_aggregate import graph_aggregate


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

    ``initial_ranks`` warm-starts the iteration from a previous rank
    vector (the unique fixed point is unchanged; only the iteration
    count to reach it shrinks).  ``incoming = Aᵀ·share`` is the shared
    (+, ×) kernel (:mod:`repro.operators.sum_aggregate`) under either
    ``backend`` name."""
    from repro.execution.backend import resolve_backend

    resolve_backend(backend, "ppr")  # validates; both names run this driver
    resolve_policy(policy)
    damping = float(damping)
    if not (0.0 <= damping <= 1.0):
        raise ValueError(f"damping must be in [0, 1], got {damping}")
    n = graph.n_vertices
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    if seeds.size == 0:
        raise ValueError("at least one seed vertex is required")
    if int(seeds.min()) < 0 or int(seeds.max()) >= n:
        raise ValueError(f"seed ids must lie in [0, {n})")
    aggregate = graph_aggregate(graph)
    out_weight = aggregate.gather(np.ones(n, dtype=np.float64))
    dangling = np.flatnonzero(out_weight == 0)
    # x / inf == 0: dangling vertices share nothing, in one pass.
    out_weight[dangling] = np.inf

    teleport = np.zeros(n, dtype=np.float64)
    teleport[seeds] = 1.0 / seeds.size
    if initial_ranks is not None:
        if initial_ranks.shape != (n,):
            raise ValueError(
                f"initial_ranks must have shape ({n},), "
                f"got {initial_ranks.shape}"
            )
        ranks = initial_ranks.astype(np.float64, copy=True)
        total = float(ranks.sum())
        if total > 0:
            ranks /= total
    else:
        ranks = teleport.copy()
    converged = False
    iterations = 0
    token = active_token()
    for iterations in range(1, max_iterations + 1):
        if token is not None and token.should_stop():
            # Anytime semantics: stop at the last completed iterate and
            # report it unconverged instead of erroring out.
            iterations -= 1
            break
        incoming = aggregate.scatter(ranks / out_weight)
        dangling_mass = float(ranks.take(dangling).sum())
        new_ranks = (
            (1.0 - damping) * teleport
            + damping * (incoming + dangling_mass * teleport)
        )
        delta = float(np.abs(new_ranks - ranks).sum())
        ranks = new_ranks
        if delta <= tolerance:
            converged = True
            break
    stats = RunStats()
    stats.converged = converged
    return PPRResult(
        ranks=ranks,
        seeds=seeds,
        iterations=iterations,
        converged=converged,
        stats=stats,
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
    big graphs, the regime where push-style locality wins.

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
    p = np.zeros(n, dtype=np.float64)
    r = np.zeros(n, dtype=np.float64)
    r[seed] = 1.0
    stats = RunStats()
    import time as _time

    converged = True
    token = active_token()
    iteration = 0
    while True:
        if token is not None and token.should_stop():
            # Push is anytime too: p is a valid underestimate whenever
            # the loop stops; only the residual bound is unmet.
            converged = False
            break
        t0 = _time.perf_counter()
        # All vertices currently violating the residual bound, at once —
        # the bulk-synchronous reading of the push loop.
        deg_floor = np.maximum(degrees, 1)
        active = np.nonzero(r > epsilon * deg_floor)[0]
        if active.size == 0:
            break
        pushed = r[active].copy()
        p[active] += (1.0 - damping) * pushed
        r[active] = 0.0
        srcs, dsts, _, _ = csr.expand_vertices(active.astype(np.int32))
        if dsts.size:
            spread = damping * pushed / deg_floor[active]
            per_edge = np.repeat(spread, degrees[active])
            np.add.at(r, dsts, per_edge)
        else:
            # Dangling active vertices: residual reflects back to self
            # (standard treatment keeps mass conserved).
            r[active] += damping * pushed
            if np.all(degrees[active] == 0):
                break
        stats.record(
            IterationStats(
                iteration=iteration,
                frontier_size=int(active.size),
                edges_touched=int(dsts.size),
                seconds=_time.perf_counter() - t0,
            )
        )
        iteration += 1
    stats.converged = converged
    return PPRResult(
        ranks=p,
        seeds=np.asarray([seed]),
        iterations=iteration,
        converged=converged,
        stats=stats,
    )
