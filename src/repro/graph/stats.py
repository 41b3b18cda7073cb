"""Structural graph statistics: the workload-characterization toolkit.

The design-space choices the paper catalogs (push vs pull, load-balance
schedule, frontier representation, partitioning difficulty) are all
driven by measurable graph structure — degree skew, diameter, clustering.
This module computes those drivers so examples and benchmarks can
*explain* their results, and so users can predict which configuration
suits their graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.graph.graph import Graph
from repro.utils.rng import SeedLike, resolve_rng


@dataclass
class DegreeStats:
    """Summary of the out-degree distribution."""

    minimum: int
    maximum: int
    mean: float
    median: float
    std: float
    #: max/mean — >~10 signals hub-dominated (edge-balanced chunking,
    #: pull traversal, and vertex-cut partitioning territory).
    skew: float
    #: Gini coefficient of the degree distribution (0 = uniform).
    gini: float


def degree_statistics(graph: Graph) -> DegreeStats:
    """Compute the out-degree summary."""
    degrees = graph.out_degrees().astype(np.float64)
    if degrees.size == 0:
        return DegreeStats(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    mean = float(degrees.mean())
    sorted_deg = np.sort(degrees)
    n = degrees.shape[0]
    # Gini via the sorted-rank identity.
    if sorted_deg.sum() > 0:
        ranks = np.arange(1, n + 1)
        gini = float(
            (2 * (ranks * sorted_deg).sum() / (n * sorted_deg.sum()))
            - (n + 1) / n
        )
    else:
        gini = 0.0
    return DegreeStats(
        minimum=int(degrees.min()),
        maximum=int(degrees.max()),
        mean=mean,
        median=float(np.median(degrees)),
        std=float(degrees.std()),
        skew=float(degrees.max() / mean) if mean > 0 else 0.0,
        gini=gini,
    )


def degree_histogram(graph: Graph, *, log_bins: bool = False) -> Dict[int, int]:
    """Degree -> vertex count map (log2-binned when ``log_bins``)."""
    degrees = graph.out_degrees()
    if log_bins:
        safe = np.maximum(degrees, 1)  # avoid log2(0); zeros masked below
        binned = np.where(
            degrees > 0, np.floor(np.log2(safe)) + 1, 0
        ).astype(int)
        uniq, counts = np.unique(binned, return_counts=True)
        return {int(1 << max(b - 1, 0)) if b else 0: int(c) for b, c in zip(uniq, counts)}
    uniq, counts = np.unique(degrees, return_counts=True)
    return {int(d): int(c) for d, c in zip(uniq, counts)}


def estimate_diameter(
    graph: Graph,
    *,
    n_probes: int = 8,
    seed: SeedLike = 0,
) -> int:
    """Lower-bound the diameter by double-sweep BFS from random probes.

    The classic heuristic: BFS from a random vertex, then BFS again from
    the farthest vertex found; the largest eccentricity seen across
    probes lower-bounds (and usually equals) the true diameter on
    real-world graphs.  Works per connected component reached.
    """
    from repro.baselines import sequential_bfs

    n = graph.n_vertices
    if n == 0:
        return 0
    rng = resolve_rng(seed)
    best = 0
    for _ in range(n_probes):
        start = int(rng.integers(0, n))
        levels = sequential_bfs(graph, start)
        reached = levels >= 0
        if not np.any(reached):
            continue
        far = int(np.argmax(np.where(reached, levels, -1)))
        levels2 = sequential_bfs(graph, far)
        ecc = int(levels2.max(initial=0))
        best = max(best, ecc)
    return best


def global_clustering_coefficient(graph: Graph) -> float:
    """Transitivity: 3·triangles / open-and-closed wedges.

    Undirected semantics; 0.0 for graphs with no wedge.
    """
    from repro.algorithms.tc import triangle_count

    degrees = graph.out_degrees().astype(np.float64)
    wedges = float((degrees * (degrees - 1) / 2).sum())
    if wedges == 0:
        return 0.0
    triangles = triangle_count(graph).total
    return 3.0 * triangles / wedges


def summarize(graph: Graph, *, diameter_probes: int = 4, seed: SeedLike = 0) -> Dict:
    """One-call workload characterization (what `repro info` could grow
    into): degree stats, diameter estimate, clustering, and the
    configuration hints they imply."""
    deg = degree_statistics(graph)
    diameter = estimate_diameter(graph, n_probes=diameter_probes, seed=seed)
    hints = []
    if deg.skew > 10:
        hints.append("hub-skewed: prefer edge-balanced chunking / pull on wide frontiers")
    if diameter > 50:
        hints.append("high diameter: many supersteps; consider async, or tune sssp's near-far delta")
    if deg.skew <= 10 and diameter <= 50:
        hints.append("well-conditioned: defaults (push, vertex chunks, sparse frontier) suffice")
    return {
        "n_vertices": graph.n_vertices,
        "n_edges": graph.n_edges,
        "degree": deg,
        "diameter_lower_bound": diameter,
        "hints": hints,
    }
