#!/usr/bin/env python
"""A guided tour of all four TLAV pillars through one BFS query.

For each pillar the tour runs the same traversal with the pillar's knob
flipped and prints what changed — the executable version of the paper's
Table I.  Ends by printing the capability matrix itself.

Run:  python examples/design_space_tour.py
"""

import time

import numpy as np

from repro.algorithms import bfs, sssp, sssp_async
from repro.algorithms.pregel_programs import pregel_sssp
from repro.capability import format_table, verify_capabilities
from repro.execution import par, par_nosync, par_vector, seq
from repro.frontier import DenseFrontier, SparseFrontier, convert
from repro.graph.generators import rmat, with_random_weights
from repro.types import INF


def main() -> None:
    graph = with_random_weights(rmat(11, 12, seed=9, directed=False), seed=9)
    print(f"workload: {graph}\n")
    reference = sssp(graph, 0).distances
    finite = reference < INF

    print("=" * 72)
    print("Pillar 1 — TIMING: execution policies select the engine")
    print("=" * 72)
    for policy in (seq, par, par_vector):
        t0 = time.perf_counter()
        r = sssp(graph, 0, policy=policy)
        assert np.allclose(r.distances[finite], reference[finite], atol=1e-3)
        print(
            f"  {policy.name:<12} {time.perf_counter() - t0:7.3f}s  "
            f"{r.stats.num_iterations} barriered supersteps"
        )
    t0 = time.perf_counter()
    r = sssp_async(graph, 0, num_workers=4, timeout=300)
    assert np.allclose(r.distances[finite], reference[finite], atol=1e-3)
    print(
        f"  {'async':<12} {time.perf_counter() - t0:7.3f}s  "
        f"no supersteps at all (quiescence detection)"
    )

    print()
    print("=" * 72)
    print("Pillar 2 — COMMUNICATION: same frontier, three representations")
    print("=" * 72)
    f = SparseFrontier.from_indices(range(0, graph.n_vertices, 3), graph.n_vertices)
    dense = convert(f, "dense")
    queue = convert(f, "queue")
    print(f"  sparse vector : {f.size()} ids, duplicates allowed")
    print(f"  dense bitmap  : {dense.size()} bits set (shared memory)")
    print(f"  async queue   : {queue.size()} queued messages")
    messaged = pregel_sssp(graph, 0)
    assert np.allclose(messaged[finite], reference[finite], atol=1e-3)
    print("  pregel (message passing, on the same loop) reproduces the SSSP answer")

    print()
    print("=" * 72)
    print("Pillar 3 — EXECUTION MODEL: push vs pull vs direction-optimized")
    print("=" * 72)
    for direction in ("push", "pull", "auto"):
        t0 = time.perf_counter()
        r = bfs(graph, 0, direction=direction)
        extra = f" switches: {r.directions}" if direction == "auto" else ""
        print(
            f"  {direction:<5} {time.perf_counter() - t0:7.3f}s  "
            f"levels max {r.levels.max()}{extra}"
        )

    print()
    print("=" * 72)
    print("Pillar 4 — PARTITIONING: edge cut by heuristic (4 parts)")
    print("=" * 72)
    from repro.partition import (
        edge_cut,
        load_balance,
        metis_like_partition,
        random_partition,
        ldg_partition,
    )

    for name, fn in (
        ("random", lambda: random_partition(graph, 4, seed=0)),
        ("ldg (stream)", lambda: ldg_partition(graph, 4, seed=0)),
        ("metis-like", lambda: metis_like_partition(graph, 4, seed=0)),
    ):
        p = fn()
        print(
            f"  {name:<13} cut {edge_cut(graph, p):>7}   "
            f"balance {load_balance(p):.3f}"
        )

    print()
    print("=" * 72)
    print("Table I — capability matrix (generated from the registry)")
    print("=" * 72)
    print(format_table())
    failures = verify_capabilities()
    print(
        f"\nregistry-backed implementations verified: "
        f"{'all OK' if not failures else failures}"
    )


if __name__ == "__main__":
    main()
