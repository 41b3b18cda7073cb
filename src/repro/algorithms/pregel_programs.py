"""Vertex-program (Pregel-model) ports of the core algorithms.

These run on :class:`~repro.comm.pregel.PregelEngine` — the
message-passing, bulk-synchronous corner of the TLAV space — and are
validated against the shared-memory implementations by the equivalence
tests: same graph, same answers, different communication model, which is
precisely the claim of §III-B.  Each is a vectorised (send, merge,
apply) triple; see :class:`~repro.comm.pregel.VertexProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.comm.pregel import PregelEngine, VertexProgram
from repro.graph.graph import Graph
from repro.types import INF
from repro.utils.counters import RunStats


def _take_better(values, inbox, active, better):
    """Active vertices whose merged message is ``better`` than their value
    adopt it; returns those vertices (the ones that changed)."""
    won = active[better(inbox[active], values[active])]
    values[won] = inbox[won]
    return won


class MaxValueProgram(VertexProgram):
    """The Pregel paper's introductory example: flood the maximum value."""

    merge = np.maximum

    def apply(self, superstep, values, inbox, has_msg, active, aggregated):
        if superstep == 0:
            return values, active, None
        return values, _take_better(values, inbox, active, np.greater), None


class SSSPProgram(VertexProgram):
    """Pregel SSSP: distances as values, relaxations as messages."""

    merge = np.minimum

    def __init__(self, source: int) -> None:
        self.source = source

    def send(self, values, src, dst, weight):
        return values.take(src) + weight

    def apply(self, superstep, values, inbox, has_msg, active, aggregated):
        if superstep == 0:
            values[active] = float(INF)
            senders = active[active == self.source]
            values[senders] = 0.0
            return values, senders, None
        return values, _take_better(values, inbox, active, np.less), None


class PageRankProgram(VertexProgram):
    """Pregel PageRank with a fixed superstep budget (the Pregel paper's
    formulation: run a fixed number of rounds, then halt).

    Dangling-vertex mass is pooled through the aggregator (the Pregel
    paper's mechanism) and redistributed uniformly next superstep, which
    makes the recurrence identical to the shared-memory implementation —
    asserted by the equivalence tests.
    """

    merge = np.add

    def __init__(self, n_vertices: int, *, damping: float = 0.85, rounds: int = 30):
        self.n = n_vertices
        self.damping = damping
        self.rounds = rounds

    def bind(self, graph):
        self._degree = graph.out_degrees()
        self._divisor = np.maximum(self._degree, 1)

    def send(self, values, src, dst, weight):
        return np.divide(values, self._divisor).take(src)

    def apply(self, superstep, values, inbox, has_msg, active, aggregated):
        if superstep == 0:
            values[active] = 1.0 / self.n
        else:
            dangling_mass = (aggregated or 0.0) / self.n
            values[active] = (1.0 - self.damping) / self.n + self.damping * (
                inbox[active] + dangling_mass
            )
        if superstep >= self.rounds:
            return values, None, None
        return values, active, active

    def aggregate(self, values, senders, stay_active):
        return float(values[senders[self._degree[senders] == 0]].sum())


class ComponentsProgram(VertexProgram):
    """Min-label flooding: converges to per-component minimum vertex id."""

    merge = np.minimum

    def apply(self, superstep, values, inbox, has_msg, active, aggregated):
        if superstep == 0:
            values[active] = active
            return values, active, None
        return values, _take_better(values, inbox, active, np.less), None


def pregel_sssp(
    graph: Graph,
    source: int,
    *,
    owner_of: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run Pregel SSSP; returns the distance vector."""
    engine = PregelEngine(graph, owner_of=owner_of)
    return engine.run(SSSPProgram(source), np.full(graph.n_vertices, float(INF)))


@dataclass
class PregelPageRankResult:
    """Final ranks and the Enactor's per-superstep stats."""

    ranks: np.ndarray
    stats: RunStats


def pregel_pagerank(
    graph: Graph,
    *,
    damping: float = 0.85,
    rounds: int = 30,
    owner_of: Optional[np.ndarray] = None,
) -> PregelPageRankResult:
    """Run Pregel PageRank for a fixed round budget."""
    engine = PregelEngine(graph, owner_of=owner_of)
    n = graph.n_vertices
    ranks = engine.run(
        PageRankProgram(n, damping=damping, rounds=rounds),
        np.full(n, 1.0 / max(n, 1)),
    )
    return PregelPageRankResult(ranks, engine.run_stats)


def pregel_components(
    graph: Graph,
    *,
    owner_of: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run min-label component flooding; returns integer labels.

    Directed inputs yield *forward-reachability* labels, so callers
    wanting weak components should symmetrize first (the equivalence
    tests do).
    """
    engine = PregelEngine(graph, owner_of=owner_of)
    vals = engine.run(
        ComponentsProgram(),
        np.arange(graph.n_vertices, dtype=np.float64),
    )
    return vals.astype(np.int64)
