#!/usr/bin/env python
"""Vertex programs over message passing (the Pregel corner).

The same SSSP answered two ways:

1. shared-memory BSP operators (Listing 4), and
2. a "think like a vertex" program whose only communication is messages
   between vertices owned by partition ranks —

then the partition count is swept to show what changes (message traffic)
and what must not (the answer).  The partitioner quality shows up as
remote-traffic reduction: METIS-like placement cuts cross-rank messages
vs random placement.  Finally a five-line vertex program of our own —
BFS levels as a (send, merge, apply) triple — runs on the same engine.

Run:  python examples/pregel_vertex_programs.py
"""

import numpy as np

from repro.algorithms import bfs, sssp
from repro.algorithms.pregel_programs import SSSPProgram
from repro.comm.pregel import PregelEngine, VertexProgram
from repro.graph.generators import watts_strogatz, with_random_weights
from repro.partition import metis_like_partition, random_partition
from repro.types import INF


class HopCount(VertexProgram):
    """BFS levels: every message carries the sender's level plus one."""

    merge = np.minimum  # a vertex keeps the smallest level it hears

    def send(self, values, src, dst, weight):
        return values[src] + 1.0

    def apply(self, superstep, values, inbox, has_msg, active, aggregated):
        if superstep == 0:  # only the source starts active
            return values, active, None
        closer = active[inbox[active] < values[active]]
        values[closer] = inbox[closer]
        return values, closer, None  # improved vertices send, all halt


def run_partitioned(graph, n_ranks, partitioner, seed=0):
    if n_ranks == 1:
        owner = np.zeros(graph.n_vertices, dtype=np.int64)
    else:
        owner = partitioner(graph, n_ranks, seed=seed).assignment
    engine = PregelEngine(graph, owner_of=owner)
    distances = engine.run(
        SSSPProgram(0), np.full(graph.n_vertices, float(INF))
    )
    return distances, engine.stats


def main() -> None:
    graph = with_random_weights(
        watts_strogatz(400, 6, 0.05, seed=5), seed=6
    )
    print(f"graph: {graph}\n")

    shared = sssp(graph, 0).distances
    print("shared-memory BSP SSSP done "
          f"(reaches {int((shared < INF).sum())} vertices)")

    print(f"\n{'ranks':>5} {'partitioner':<12} {'supersteps':>10} "
          f"{'remote msgs':>11} {'local msgs':>10} {'match':>6}")
    for n_ranks in (1, 2, 4, 8):
        for name, partitioner in (
            ("random", random_partition),
            ("metis-like", metis_like_partition),
        ):
            if n_ranks == 1 and name == "metis-like":
                continue
            distances, stats = run_partitioned(graph, n_ranks, partitioner)
            finite = shared < INF
            match = np.allclose(distances[finite], shared[finite], atol=1e-3)
            print(
                f"{n_ranks:>5} {name:<12} {stats.supersteps:>10} "
                f"{stats.remote_messages:>11} {stats.local_messages:>10} "
                f"{'yes' if match else 'NO'}"
            )
            assert match

    print(
        "\nSame distances at every rank count — the communication model is "
        "a configuration choice, not an algorithm change (§III-B).  And "
        "metis-like placement sends far fewer remote messages than random: "
        "the partitioning pillar's payoff."
    )

    n = graph.n_vertices
    start = np.full(n, np.inf)
    start[0] = 0.0
    engine = PregelEngine(graph)
    hops = engine.run(HopCount(), start, initially_active=[0])
    levels = bfs(graph, 0).levels
    reached = levels >= 0
    assert np.array_equal(hops[reached], levels[reached])
    print(
        f"\ncustom HopCount program: {engine.stats.supersteps} supersteps, "
        f"{engine.stats.total_messages} messages, levels equal bfs()"
    )


if __name__ == "__main__":
    main()
