"""Connected components on the one loop: pruned hook + shortcut (the
default) and frontier-driven label propagation.

Hooking (``method="hooking"``) is Gunrock's CC after Soman et al.  Each
superstep hooks the larger root of every crossing arc onto the smallest
root it touches, pointer-jumps every tree to a star, and keeps only the
arcs still crossing, as root pairs.  The crossing roots are the
frontier, so the empty frontier is convergence, reached in O(log n)
supersteps at any diameter.  It is the default under ``par_vector``.

Label propagation (``method="label_propagation"``) stays as the
frontier-native form and the default under every other policy: active
vertices push their label over "my label is smaller than yours", and
the vertices whose labels dropped form the next frontier — a superstep
per step of the diameter.

Both label each vertex with its component's minimum id (identical
arrays) and, on directed graphs, compute *weakly* connected components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.enactor import Enactor
from repro.observability.probe import active_probe
from repro.operators.advance import neighbors_expand
from repro.operators.fused import dedup_ids, min_relax_condition
from repro.execution.policy import (
    ExecutionPolicy,
    par_vector,
    resolve_policy,
)
from repro.types import VERTEX_DTYPE
from repro.utils.counters import RunStats


@dataclass
class CCResult:
    """Component labels (root vertex id per component) and counts."""

    labels: np.ndarray
    n_components: int
    stats: RunStats = field(default_factory=RunStats)

    @classmethod
    def from_labels(cls, labels: np.ndarray, stats: RunStats) -> "CCResult":
        """Wrap component-minimum labels: exactly the roots have
        ``labels[v] == v``, so counting them counts the components."""
        roots = labels == np.arange(labels.shape[0], dtype=labels.dtype)
        return cls(
            labels=labels.astype(np.int64, copy=False),
            n_components=int(np.count_nonzero(roots)),
            stats=stats,
        )

    def component_sizes(self) -> np.ndarray:
        """Size of each component, indexed by compacted component id."""
        _, counts = np.unique(self.labels, return_counts=True)
        return counts


def connected_components(
    graph: Graph,
    *,
    method: Optional[str] = None,
    policy: Union[str, ExecutionPolicy] = par_vector,
    resilience=None,
    backend: str = "native",
) -> CCResult:
    """Weakly connected components.

    ``method`` is ``"hooking"`` (pruned hook + shortcut, vector executor
    only) or ``"label_propagation"`` (frontier/operator formulation, every
    policy); ``None`` picks hooking under ``par_vector`` and label
    propagation under every other policy.  ``resilience`` adds superstep
    retry under chaos and label-array checkpointing.  ``backend`` is
    validated and recorded; CC has no matrix driver, so ``"linalg"``
    runs native with a ``backend:fallback`` event.
    """
    from repro.execution.backend import resolve_backend

    resolve_backend(backend, "cc")
    policy = resolve_policy(policy)
    vector = policy.name == par_vector.name
    if method is None:
        method = "hooking" if vector else "label_propagation"
    if method == "label_propagation":
        return _cc_label_propagation(graph, policy, resilience=resilience)
    if method == "hooking":
        if not vector:
            raise ValueError(
                f"method='hooking' runs only under par_vector, got "
                f"policy {policy.name!r}; use method='label_propagation'"
            )
        return _cc_hooking(graph, resilience=resilience)
    raise ValueError(
        f"method must be 'label_propagation' or 'hooking', got {method!r}"
    )


def _cc_label_propagation(graph: Graph, policy, *, resilience=None) -> CCResult:
    n = graph.n_vertices
    labels = np.arange(n, dtype=np.int64)
    # Weak connectivity on directed graphs needs reverse edges too; the
    # reverse graph shares the same labels array.
    reverse = graph.reverse() if graph.properties.directed else None

    # Unweighted min-relax on the label array — the CC propagation is the
    # same condition shape as SSSP's, so it rides the same fused kernel.
    propagate = min_relax_condition(labels, weighted=False)

    enactor = Enactor(graph)

    def step(frontier, state):
        out = neighbors_expand(
            policy, graph, frontier, propagate, workspace=enactor.workspace
        )
        merged = out.to_indices()
        if reverse is not None:
            out_r = neighbors_expand(
                policy, reverse, frontier, propagate, workspace=enactor.workspace
            )
            merged = np.concatenate([merged, out_r.to_indices()])
        nxt = SparseFrontier(n)
        nxt.add_many_trusted(dedup_ids(merged, n, enactor.workspace))
        return nxt

    frontier = SparseFrontier.from_indices(np.arange(n, dtype=VERTEX_DTYPE), n)
    stats = enactor.run(
        frontier, step, resilience=resilience, state_arrays={"labels": labels}
    )
    return CCResult.from_labels(labels, stats)


def _crossing(a: np.ndarray, b: np.ndarray):
    """``(lower, higher)`` label pairs of the arcs whose labels differ."""
    keep = a != b
    a, b = a[keep], b[keep]
    return np.minimum(a, b), np.maximum(a, b)


def _hook_round(labels: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Hook, shortcut, filter: one round over crossing root pairs.

    Graft each root ``hi`` onto the smallest ``lo`` aimed at it, pointer-
    jump every tree to a star, and return the pairs whose roots still
    differ.  An arc settled after a shortcut stays settled: both ends
    share a root, and later hooks move whole stars.
    """
    probe = active_probe()
    with probe.span("operator:hook", arcs=int(lo.shape[0])):
        np.minimum.at(labels, hi, lo)
    with probe.span("operator:shortcut"):
        while True:
            jumped = labels.take(labels)
            if np.array_equal(jumped, labels):
                break
            labels[:] = jumped
    with probe.span("operator:filter"):
        return _crossing(labels.take(lo), labels.take(hi))


def merge_components(labels: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the components of ``labels`` that arcs ``(a, b)`` join.

    ``labels`` must be stars whose roots are their members' minimum —
    the identity or any finished CC labelling — and stays so, in place.
    This is the hook loop off the enactor, for merges too small to
    need one (Borůvka rounds, incremental CC repairs).
    """
    lo, hi = _crossing(labels.take(a), labels.take(b))
    while lo.shape[0]:
        lo, hi = _hook_round(labels, lo, hi)


def _cc_hooking(graph: Graph, *, resilience=None) -> CCResult:
    n = graph.n_vertices
    coo = graph.coo()
    rows, cols = coo.rows, coo.cols
    # Labels share the arcs' dtype: ``np.minimum.at`` with mixed dtypes
    # leaves its fast path (≈15× slower on 1M arcs).
    labels = np.arange(n, dtype=rows.dtype)
    enactor = Enactor(graph)
    # Root pairs of the still-crossing arcs, keyed by the superstep they
    # feed.  One direction per arc suffices: the hook takes min/max, so
    # it is symmetric.
    crossing = {}

    def step(frontier, state):
        if state.iteration in crossing:
            lo, hi = crossing[state.iteration]
        elif state.iteration == 0:
            # Labels are the identity: hook the raw endpoints.
            lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
        else:
            # Resumed from a checkpoint: re-derive from its labels.
            lo, hi = _crossing(labels.take(rows), labels.take(cols))
        lo, hi = _hook_round(labels, lo, hi)
        crossing.clear()
        crossing[state.iteration + 1] = (lo, hi)
        nxt = SparseFrontier(n)
        nxt.add_many_trusted(
            dedup_ids(np.concatenate([lo, hi]), n, enactor.workspace)
        )
        return nxt

    frontier = SparseFrontier.from_indices(np.arange(n, dtype=VERTEX_DTYPE), n)
    stats = enactor.run(
        frontier, step, resilience=resilience, state_arrays={"labels": labels}
    )
    return CCResult.from_labels(labels, stats)
