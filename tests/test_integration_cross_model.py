"""Cross-model equivalence: the paper's thesis, end to end.

One abstraction, many TLAV configurations — so the *same problem* solved
under different timing models (BSP vs async), communication models
(shared-memory vs message-passing/Pregel), traversal directions
(push vs pull), and partition counts must produce the same answers.
These tests run each axis against the shared-memory BSP reference.
"""

import numpy as np
import pytest

from repro.algorithms import bfs, connected_components, pagerank, sssp, sssp_async
from repro.algorithms.pregel_programs import (
    pregel_components,
    pregel_pagerank,
    pregel_sssp,
)
from repro.graph.generators import erdos_renyi_gnp, grid_2d, rmat, watts_strogatz
from repro.partition import metis_like_partition, random_partition
from repro.types import INF


@pytest.fixture(scope="module")
def road_like():
    return grid_2d(10, 10, weighted=True, seed=21)


@pytest.fixture(scope="module")
def scale_free():
    return rmat(8, 8, weighted=True, seed=22)


class TestTimingAxis:
    """BSP vs asynchronous — same distances."""

    def test_sssp_bsp_vs_async(self, road_like, scale_free):
        for g in (road_like, scale_free):
            bsp = sssp(g, 0).distances
            asynchronous = sssp_async(g, 0, num_workers=4, timeout=60).distances
            assert np.allclose(bsp, asynchronous, atol=1e-3)


class TestCommunicationAxis:
    """Shared-memory operators vs Pregel message passing — same answers."""

    def test_sssp_shared_vs_pregel(self, road_like):
        shared = sssp(road_like, 0).distances
        messaged = pregel_sssp(road_like, 0)
        finite = shared < INF
        assert np.allclose(shared[finite], messaged[finite], atol=1e-3)
        assert np.all(messaged[~finite] >= INF)

    def test_pagerank_shared_vs_pregel(self):
        g = erdos_renyi_gnp(80, 0.06, seed=23)  # unweighted: same update rule
        shared = pagerank(g, tolerance=0.0, max_iterations=40).ranks
        messaged = pregel_pagerank(g, rounds=40)
        assert np.allclose(shared, messaged, atol=1e-6)

    def test_components_shared_vs_pregel(self):
        g = watts_strogatz(120, 4, 0.02, seed=24)
        shared = connected_components(g).labels
        messaged = pregel_components(g)
        assert np.array_equal(shared, messaged)


class TestPartitioningAxis:
    """Message-passing results are partition-invariant; only traffic
    (remote vs local) changes."""

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_pregel_sssp_partition_invariant(self, road_like, k):
        reference = pregel_sssp(road_like, 0)
        owner = random_partition(road_like, k, seed=k).assignment
        partitioned = pregel_sssp(road_like, 0, owner_of=owner)
        assert np.allclose(reference, partitioned, atol=1e-6)

    def test_metis_partition_reduces_remote_traffic(self, road_like):
        from repro.comm.pregel import PregelEngine
        from repro.algorithms.pregel_programs import SSSPProgram

        n = road_like.n_vertices
        runs = {}
        for name, p in (
            ("random", random_partition(road_like, 4, seed=1)),
            ("metis", metis_like_partition(road_like, 4, seed=1)),
        ):
            engine = PregelEngine(road_like, owner_of=p.assignment)
            engine.run(SSSPProgram(0), np.full(n, float(INF)))
            runs[name] = engine.stats.remote_messages
        assert runs["metis"] < runs["random"]


class TestDirectionAxis:
    """Push, pull, and direction-optimized traversal — same levels."""

    def test_bfs_directions_agree(self, scale_free):
        push = bfs(scale_free, 0, direction="push").levels
        pull = bfs(scale_free, 0, direction="pull").levels
        auto = bfs(scale_free, 0, direction="auto").levels
        assert np.array_equal(push, pull)
        assert np.array_equal(push, auto)


class TestPipelineEndToEnd:
    """Generate → save → load → partition → analyze, through the public
    API only (what a downstream user actually does)."""

    def test_full_pipeline(self, tmp_path):
        from repro.graph.io import load_graph_npz, save_graph_npz

        g = watts_strogatz(200, 6, 0.1, seed=31)
        path = tmp_path / "graph.npz"
        save_graph_npz(g, path)
        loaded = load_graph_npz(path)

        partition = metis_like_partition(loaded, 4, seed=0)
        assert partition.n_parts == 4

        cc = connected_components(loaded)
        pr = pagerank(loaded)
        r = bfs(loaded, 0)
        assert cc.n_components >= 1
        assert pr.ranks.sum() == pytest.approx(1.0, abs=1e-6)
        # Every vertex reachable from 0 got a level within one component.
        assert np.all(r.levels[cc.labels == cc.labels[0]] >= 0)
