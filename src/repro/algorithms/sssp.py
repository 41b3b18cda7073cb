"""Single-source shortest paths — the paper's worked example (§IV-D).

:func:`sssp` is Listing 4 transliterated: initialize distances to
infinity, seed the frontier with the source, and iterate
``neighbors_expand`` with the relaxation condition

    ``new_d = dist[src] + weight;  return atomic_min(dist[dst], new_d) > new_d``

under the chosen execution policy until the frontier empties — the
Bellman–Ford-style *label-correcting* parallel SSSP.  The same function
therefore demonstrates all four policies and both output frontier
representations.

A near/far filter then splits each superstep's emitted set (Gunrock's
near-far, an operator-level change §IV-C says the loop admits): labels
below a threshold are the next frontier, the rest wait until the
threshold advances — ~10x fewer edge relaxations on a weighted grid.
By default the step is sized by work: it starts at Δ (the mean edge
weight) and doubles, up to 8Δ, while a refill's near set carries too
few edges to pay for a superstep, so high-diameter graphs run fewer,
fuller supersteps.  ``delta=inf`` gives back the plain listing;
distances are bit-identical under every schedule, since the final
label is the minimum float32 path sum whichever order relaxes it.

:func:`sssp_async` maps the other timing model: the asynchronous
(Atos-style) version, where each active vertex is a scheduler task
relaxing its out-edges, with no supersteps at all.  Monotone relaxation
makes stale reads safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.frontier.base import Frontier
from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.convergence import LoopState
from repro.loop.enactor import Enactor
from repro.loop.async_enactor import AsyncEnactor
from repro.observability.probe import active_probe
from repro.operators.advance import neighbors_expand
from repro.operators.fused import (
    dedup_ids,
    fused_kernel_of,
    min_relax_condition,
)
from repro.operators.uniquify import uniquify
from repro.operators.conditions import scalar_condition
from repro.execution.atomics import AtomicArray
from repro.execution.policy import (
    ExecutionPolicy,
    SequencedPolicy,
    VectorPolicy,
    par_vector,
    resolve_policy,
)
from repro.types import INF, VALUE_DTYPE, VERTEX_DTYPE
from repro.utils.counters import RunStats
from repro.utils.validation import check_vertex_in_range


@dataclass
class SSSPResult:
    """Distances plus run accounting.

    ``distances[v]`` is ``INF`` (float32 max) for unreachable vertices,
    matching Listing 4's initializer.
    """

    distances: np.ndarray
    source: int
    stats: RunStats = field(default_factory=RunStats)

    def reached(self) -> np.ndarray:
        """Boolean mask of vertices with a finite distance."""
        return self.distances < INF


#: Work-sized near-far width, in edges: a refill whose near set has
#: fewer out-edges than this doubles the width for the next refill; one
#: with more than ``4 *`` this is re-split at half the width, down to
#: Δ.  A superstep's fixed cost (~60 us) is the cost of ~2.7k edges at
#: ~22 ns each on rmat-16.
NEAR_WORK_EDGES = 2048

#: Bounds of the work-sized width, in multiples of Δ.
WIDTH_FLOOR = 1
WIDTH_CAP = 8


def _split_attrs(near, far, threshold, width) -> dict:
    """What a traced near/far split records."""
    return {
        "near": int(near.size),
        "far": sum(map(len, far)),
        "threshold": threshold,
        "width": width,
    }


class _NearFar:
    """Gunrock's near/far split of each superstep's emitted set.

    Ids labelled below ``state.context["threshold"]`` are the next
    frontier; the rest are parked in the far pile.  When the near part
    comes back empty the threshold moves to ``min(dist[far]) + width``
    and the pile is re-split.  With ``degrees`` the width
    (``state.context["width"]``) is sized by work within
    ``[WIDTH_FLOOR, WIDTH_CAP] * delta``: a refill's near set too heavy
    for its width is re-split at half of it, and a light one doubles
    the next refill's (see :data:`NEAR_WORK_EDGES`); without, it stays
    ``delta``.  At a superstep boundary the pile is
    exactly ``{v : threshold <= dist[v] < INF}`` (a label at or above the
    threshold was parked when set and never expanded), so checkpoints
    carry only the threshold and width and a resumed run rebuilds the
    pile from ``dist``; parked ids whose label has since dropped below
    the threshold were expanded as near ids and are dropped on re-split.
    """

    def __init__(
        self, dist: np.ndarray, delta: float, workspace,
        degrees: Optional[np.ndarray] = None,
    ) -> None:
        self.dist, self.delta, self.workspace = dist, delta, workspace
        self.degrees = degrees
        self._run: Optional[LoopState] = None  # the run the pile belongs to
        self._far: list = []  # parked id arrays; may repeat or be stale

    def _refill(self, far: list, threshold: float, width: float):
        """Re-split the far pile once the near part came back empty;
        returns the next ``(near, far, threshold, width)``."""
        dist = self.dist
        pile = np.concatenate(far)
        labels = dist.take(pile)
        live = labels >= np.float64(threshold)
        pile, labels = pile.compress(live), labels.compress(live)
        if not pile.size:
            return pile, [], threshold, width
        low = float(labels.min())
        floor = WIDTH_FLOOR * self.delta
        while True:
            # nextafter: a width below the label's ulp still promotes the
            # minimum.
            threshold = max(low + width, math.nextafter(low, math.inf))
            is_near = labels < np.float64(threshold)
            near = dedup_ids(
                pile.compress(is_near), dist.shape[0], self.workspace
            )
            if self.degrees is None:
                break
            work = int(self.degrees.take(near).sum())
            if work <= 4 * NEAR_WORK_EDGES or width <= floor:
                if work < NEAR_WORK_EDGES:
                    width = min(width * 2, WIDTH_CAP * self.delta)
                break
            # Too heavy for a widened step: re-split at half the width,
            # so edge-heavy refills run the schedule of width delta.
            width = max(width / 2, floor)
        return near, [pile.compress(~is_near)], threshold, width

    def __call__(self, out: Frontier, state: LoopState) -> Frontier:
        dist = self.dist
        context = state.context
        # float64 compares throughout: float32 ones round the threshold.
        threshold = context.get("threshold", self.delta)
        width = context.get("width", self.delta)
        far = self._far
        if state is not self._run:  # a fresh run, or a resumed one
            far = [] if state.iteration == 0 else [
                np.flatnonzero(
                    (dist >= np.float64(threshold)) & (dist < INF)
                ).astype(VERTEX_DTYPE)
            ]
        ids = (
            out.indices_view()
            if isinstance(out, SparseFrontier)
            else out.to_indices()
        )
        is_far = dist.take(ids) >= np.float64(threshold)
        near = ids
        if is_far.any():
            far, near = far + [ids.compress(is_far)], ids.compress(~is_far)
        probe = active_probe()
        if near.size == 0 and far:
            # The refill is the split's one heavy step: a frontier-layer
            # span times it.
            with probe.span("frontier:split"):
                near, far, threshold, width = self._refill(far, threshold, width)
        if probe.trace:
            probe.event(
                "frontier:split", **_split_attrs(near, far, threshold, width)
            )
        # Committed only after the expand returned: a retried superstep
        # re-runs from the same pile, threshold and width.
        self._run, self._far = state, far
        context["threshold"], context["width"] = threshold, width
        if near is ids:
            return out
        frontier = SparseFrontier(dist.shape[0])
        frontier.adopt(near)
        return frontier


def sssp(
    graph: Graph,
    source: int,
    *,
    policy: Union[str, ExecutionPolicy] = par_vector,
    direction: str = "push",
    output_representation: str = "sparse",
    deduplicate_frontier: bool = True,
    delta: Optional[float] = None,
    resilience=None,
    backend: str = "native",
) -> SSSPResult:
    """Bulk-synchronous SSSP via the native-graph abstraction (Listing 4).

    Parameters
    ----------
    graph:
        Weighted graph (unit weights degrade this to BFS distances).
    source:
        Source vertex id.
    policy:
        Execution policy for the advance operator; the algorithm text is
        identical for all of them.
    direction:
        ``"push"``, ``"pull"``, or ``"auto"`` (Beamer heuristic per
        superstep) — forwarded to the advance; results are identical in
        every mode because min-relaxation is direction-agnostic.
    output_representation:
        Frontier representation produced by the advance each superstep
        (``"auto"`` switches sparse↔dense on frontier density).
    deduplicate_frontier:
        Uniquify between supersteps (saves re-relaxations; disable to
        observe the raw Listing 4 behavior, which is still correct).
    delta:
        Width Δ of the near/far threshold step.  ``None`` sizes the
        width by work: it starts at the mean edge weight Δ and moves
        within [Δ, 8Δ] so each refill's near set carries about
        :data:`NEAR_WORK_EDGES` out-edges — wider on grids and roads,
        Δ on edge-heavy refills (Listing 4 verbatim when the mean
        weight is zero).  An explicit value is a fixed width;
        ``math.inf`` runs Listing 4 verbatim.  Changes the schedule,
        never the distances.
    resilience:
        Optional :class:`~repro.resilience.ResiliencePolicy` — superstep
        retry under chaos plus checkpointing of the distance array (the
        threshold and width ride in the checkpoint's loop context).
    backend:
        Validated and recorded; SSSP has no matrix driver, so
        ``"linalg"`` runs native with a ``backend:fallback`` event.
    """
    from repro.execution.backend import resolve_backend

    resolve_backend(backend, "sssp")
    policy = resolve_policy(policy)
    n = graph.n_vertices
    source = check_vertex_in_range(source, n)
    degrees = None  # a fixed width unless sized by work
    if delta is None:
        degrees = graph.out_degrees()
        values = graph.csr().values
        delta = graph.derived(
            "sssp.mean_weight",
            lambda: float(values.mean()) if values.size else math.inf,
        )
        if not 0 < delta < math.inf:  # the threshold could never advance
            delta = math.inf
    elif not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")

    # Initialize data (Listing 4).
    dist = np.full(n, INF, dtype=VALUE_DTYPE)
    dist[source] = 0.0

    frontier = SparseFrontier.from_indices([source], n)

    if isinstance(policy, (SequencedPolicy,)) or (
        not isinstance(policy, VectorPolicy) and policy.parallel
    ):
        # Scalar-condition path: threaded/sequential policies relax via
        # the striped-lock atomic, Listing 4's atomic::min verbatim.
        atomic_dist = AtomicArray(dist)

        @scalar_condition
        def condition(src, dst, edge, weight):
            new_d = dist[src] + weight
            curr_d = atomic_dist.min_at(dst, new_d)
            return new_d < curr_d

    else:
        # Bulk + fused: same relaxation, with the single-pass kernel
        # attached so the vectorized policy skips the generic pipeline.
        condition = min_relax_condition(dist)

    enactor = Enactor(graph)

    # The fused kernel emits deduplicated frontiers; the explicit
    # uniquify pass is only needed on the unfused routes.
    emits_sets = (
        isinstance(policy, VectorPolicy)
        and fused_kernel_of(condition) is not None
    )
    near_far = (
        None
        if delta == math.inf
        else _NearFar(dist, delta, enactor.workspace, degrees)
    )

    def step(f, state):
        out = neighbors_expand(
            policy,
            graph,
            f,
            condition,
            direction=direction,
            output_representation=output_representation,
            workspace=enactor.workspace,
        )
        if deduplicate_frontier and not emits_sets:
            out = uniquify(policy, out, workspace=enactor.workspace)
        return out if near_far is None else near_far(out, state)

    stats = enactor.run(
        frontier, step, resilience=resilience, state_arrays={"dist": dist}
    )
    return SSSPResult(distances=dist, source=source, stats=stats)


def sssp_async(
    graph: Graph,
    source: int,
    *,
    num_workers: int = 4,
    timeout: Optional[float] = 120.0,
    resilience=None,
) -> SSSPResult:
    """Asynchronous SSSP: per-vertex relaxation tasks to quiescence.

    Each task relaxes every out-edge of its vertex against the shared
    atomic distance array and re-activates improved neighbors by pushing
    them back on the queue — message-passing semantics where the queue
    entry "vertex v" is the message "your distance may have improved".
    """
    n = graph.n_vertices
    source = check_vertex_in_range(source, n)
    dist = np.full(n, INF, dtype=VALUE_DTYPE)
    dist[source] = 0.0
    atomic_dist = AtomicArray(dist)
    csr = graph.csr()

    def process(v: int, push) -> None:
        base = atomic_dist.load(v)
        if base >= INF:
            return
        nbrs = csr.get_neighbors(v)
        wts = csr.get_neighbor_weights(v)
        for k in range(nbrs.shape[0]):
            u = int(nbrs[k])
            new_d = base + float(wts[k])
            if new_d < atomic_dist.min_at(u, new_d):
                push(u)

    enactor = AsyncEnactor(
        graph, num_workers=num_workers, timeout=timeout, resilience=resilience
    )
    enactor.run([source], process)
    # Async has no supersteps; the enactor records the whole run as one
    # pseudo-iteration (tasks processed, edges expanded, wall seconds) in
    # the same RunStats shape the BSP enactors produce.
    return SSSPResult(distances=dist, source=source, stats=enactor.last_stats)

