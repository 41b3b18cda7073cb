"""Greedy parallel graph coloring (Jones–Plassmann with random priorities).

Each round, the frontier of uncolored vertices is *filtered* for local
priority maxima among uncolored neighbors; those winners are an
independent set, colored simultaneously with their smallest feasible
color, and removed.  The loop converges when every vertex is colored —
a filter-driven algorithm complementing the advance-driven traversals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.graph.builder import as_undirected_simple
from repro.loop.enactor import Enactor
from repro.utils.counters import RunStats
from repro.utils.rng import SeedLike, resolve_rng

#: Color value for not-yet-colored vertices.
UNCOLORED = -1


@dataclass
class ColoringResult:
    """Colors (0-based), color count, validity accounting."""

    colors: np.ndarray
    n_colors: int
    rounds: int
    stats: RunStats = field(default_factory=RunStats)


def graph_coloring(graph: Graph, *, seed: SeedLike = 0) -> ColoringResult:
    """Color vertices so no edge is monochromatic (undirected semantics).

    Returns a proper coloring (tests verify) using, empirically,
    Δ+1 or fewer colors.  Deterministic given ``seed``.  One superstep
    is one Jones–Plassmann round over the uncolored frontier.
    """
    rng = resolve_rng(seed)
    n = graph.n_vertices
    # A proper coloring constrains both endpoints of every edge, so a
    # directed (or self-looped) input must be symmetrized first — CSR
    # alone would hide in-neighbors and produce monochromatic arcs.
    undirected = as_undirected_simple(graph)
    csr = undirected.csr()
    priorities = rng.permutation(n).astype(np.int64)
    colors = np.full(n, UNCOLORED, dtype=np.int64)

    def step(frontier, state):
        uncolored = frontier.indices_view()
        # Independent set: vertices whose priority beats every uncolored
        # neighbor's.
        srcs, dsts, _, _ = csr.expand_vertices(uncolored)
        contested = colors[dsts] == UNCOLORED
        # Max uncolored-neighbor priority per source.
        best_rival = np.full(n, -1, dtype=np.int64)
        if np.any(contested):
            np.maximum.at(
                best_rival, srcs[contested], priorities[dsts[contested]]
            )
        winners = uncolored[priorities[uncolored] > best_rival[uncolored]]
        if winners.size == 0:
            # Cannot happen with distinct priorities; guard regardless.
            raise RuntimeError("coloring made no progress")
        # Color each winner with its smallest feasible color.  Winners are
        # independent (no two adjacent), so no intra-round conflicts.
        for v in winners:
            v = int(v)
            nbr_colors = colors[csr.get_neighbors(v)]
            used = np.unique(nbr_colors[nbr_colors >= 0])
            c = 0
            for u in used:
                if u == c:
                    c += 1
                elif u > c:
                    break
            colors[v] = c
        return SparseFrontier.from_indices(
            uncolored[colors[uncolored] == UNCOLORED], n
        )

    stats = Enactor(undirected).run(
        SparseFrontier.from_indices(np.arange(n), n), step
    )
    n_colors = int(colors.max(initial=-1)) + 1
    return ColoringResult(
        colors=colors, n_colors=n_colors, rounds=stats.num_iterations,
        stats=stats,
    )


def verify_coloring(graph: Graph, colors: np.ndarray) -> bool:
    """Whether no edge joins two equal colors (ignoring self-loops)."""
    coo = graph.coo()
    off_diagonal = coo.rows != coo.cols
    return not bool(
        np.any(colors[coo.rows[off_diagonal]] == colors[coo.cols[off_diagonal]])
    )
