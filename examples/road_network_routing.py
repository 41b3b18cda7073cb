#!/usr/bin/env python
"""Road-network routing: SSSP design-space tour on a high-diameter graph.

Road networks (here: a weighted 2-D lattice, the standard synthetic
stand-in) are the worst case for bulk-synchronous traversal — thousands
of narrow supersteps.  This example runs the same SSSP query through
every timing model the framework provides and reports iteration counts
and timings:

* BSP with each execution policy (Listing 4's loop with the near-far
  schedule, Δ = mean edge weight),
* the same loop with Listing 4's plain schedule (``delta=inf``) and
  pulling over in-edges (``direction="pull"``),
* fully asynchronous (Atos-style task queue),
* Dijkstra / Bellman–Ford textbook baselines.

Run:  python examples/road_network_routing.py [side]
"""

import math
import sys
import time

import numpy as np

from repro import par, par_vector, seq, sssp, sssp_async
from repro.baselines import bellman_ford, dijkstra
from repro.graph.generators import grid_2d


def timed(label, fn):
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    return label, out, dt


def main() -> None:
    side = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    graph = grid_2d(side, side, weighted=True, seed=7)
    source = 0
    target = graph.n_vertices - 1  # opposite corner
    print(
        f"road-like lattice: {side}x{side} = {graph.n_vertices} vertices, "
        f"{graph.n_edges} edges, diameter ~{2 * side}"
    )

    reference = dijkstra(graph, source)
    print(f"Dijkstra distance corner->corner: {reference[target]:.2f}\n")

    rows = [
        timed("sssp bsp/seq", lambda: sssp(graph, source, policy=seq)),
        timed("sssp bsp/par", lambda: sssp(graph, source, policy=par)),
        timed("sssp bsp/par_vector", lambda: sssp(graph, source, policy=par_vector)),
        timed(
            "sssp listing 4 (inf)",
            lambda: sssp(graph, source, delta=math.inf),
        ),
        timed("sssp pull", lambda: sssp(graph, source, direction="pull")),
        timed(
            "sssp async (4 workers)",
            lambda: sssp_async(graph, source, num_workers=4, timeout=300),
        ),
    ]

    print(
        f"{'variant':<24} {'sec':>8} {'supersteps':>11} {'edges':>9} "
        f"{'corner dist':>12}"
    )
    for label, result, dt in rows:
        iters = result.stats.num_iterations
        edges = result.stats.total_edges_touched
        d = result.distances[target]
        assert np.isclose(d, reference[target], atol=1e-2), label
        print(f"{label:<24} {dt:>8.3f} {iters:>11} {edges:>9} {d:>12.2f}")

    for label, fn in (
        ("dijkstra (baseline)", lambda: dijkstra(graph, source)),
        ("bellman-ford (baseline)", lambda: bellman_ford(graph, source)),
    ):
        label, out, dt = timed(label, fn)
        print(f"{label:<24} {dt:>8.3f} {'-':>11} {'-':>9} {out[target]:>12.2f}")

    # Single-pair routing: A* with the grid's Manhattan bound settles a
    # corridor instead of the whole Dijkstra ball.
    from repro.algorithms import astar, grid_heuristic

    min_w = float(graph.csr().values.min())
    near_target = side - 1  # far end of the source's row
    plain = astar(graph, source, near_target)
    guided = astar(
        graph,
        source,
        near_target,
        heuristic=grid_heuristic(side, near_target, min_edge_weight=min_w),
    )
    print(
        f"\nsingle-pair 0 -> {near_target}: dijkstra settles "
        f"{plain.settled} vertices, A* settles {guided.settled} "
        f"(same distance {guided.distance:.2f})"
    )

    print(
        "\nNote supersteps against edges: Listing 4 takes ~2x the lattice "
        "side in supersteps but visits edges more than once; near-far runs "
        "more, narrower supersteps for close to one visit per edge — the "
        "iteration-structure story the timing pillar tells (DESIGN.md exp P1)."
    )


if __name__ == "__main__":
    main()
