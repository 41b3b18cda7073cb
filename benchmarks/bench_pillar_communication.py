"""Experiment P2 — Communication pillar: shared memory vs message passing.

§III-B: a frontier backed by shared memory exposes elements to everyone;
backed by a queue, elements travel as messages.  Rows: SSSP through (a)
shared-memory operators, (b) the Pregel engine at k ∈ {1, 2, 4, 8}
ranks with random and METIS-like placement.  Messages are always folded
at the receiver by the program's ufunc merge, so there is no combiner
arm to ablate.

Shape expectations (EXPERIMENTS.md): answers identical everywhere;
remote-message volume grows with k under random placement and drops
2-5x under METIS-like.
"""

import numpy as np
import pytest

from repro.algorithms.pregel_programs import SSSPProgram, pregel_sssp
from repro.algorithms.sssp import sssp
from repro.comm.pregel import PregelEngine
from repro.partition import metis_like_partition, random_partition
from repro.types import INF


@pytest.fixture(scope="module")
def comm_graph(bench_ws):
    from repro.graph.generators import with_random_weights

    return with_random_weights(bench_ws, seed=11)


@pytest.mark.benchmark(group="P2-sssp-models")
class TestCommunicationModels:
    def test_shared_memory_operators(self, benchmark, comm_graph):
        r = benchmark(sssp, comm_graph, 0)
        assert r.stats.converged

    def test_message_passing_single_rank(self, benchmark, comm_graph):
        out = benchmark(pregel_sssp, comm_graph, 0)
        assert out[0] == 0.0

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_message_passing_partitioned(self, benchmark, comm_graph, k):
        owner = random_partition(comm_graph, k, seed=k).assignment
        out = benchmark(pregel_sssp, comm_graph, 0, owner_of=owner)
        assert out[0] == 0.0


class TestCommunicationShapes:
    def test_answers_identical_across_models(self, comm_graph):
        shared = sssp(comm_graph, 0).distances
        finite = shared < INF
        for k in (1, 4):
            owner = (
                None
                if k == 1
                else random_partition(comm_graph, k, seed=1).assignment
            )
            messaged = pregel_sssp(comm_graph, 0, owner_of=owner)
            assert np.allclose(shared[finite], messaged[finite], atol=1e-3)

    def test_remote_traffic_grows_with_k_under_random(self, comm_graph):
        volumes = []
        for k in (2, 4, 8):
            owner = random_partition(comm_graph, k, seed=2).assignment
            engine = PregelEngine(comm_graph, owner_of=owner)
            engine.run(
                SSSPProgram(0), np.full(comm_graph.n_vertices, float(INF))
            )
            volumes.append(engine.stats.remote_messages)
        assert volumes[0] < volumes[-1]

    def test_metis_placement_cuts_remote_traffic(self, comm_graph):
        traffic = {}
        for name, part in (
            ("random", random_partition(comm_graph, 4, seed=3)),
            ("metis", metis_like_partition(comm_graph, 4, seed=3)),
        ):
            engine = PregelEngine(comm_graph, owner_of=part.assignment)
            engine.run(
                SSSPProgram(0), np.full(comm_graph.n_vertices, float(INF))
            )
            traffic[name] = engine.stats.remote_messages
        assert traffic["metis"] < traffic["random"] / 2
