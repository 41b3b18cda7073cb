"""At-scale integration: the vectorized pipeline on 100k+ edge graphs.

The unit suite runs on small graphs; this file pushes the
vectorized-policy algorithms through scale-13 workloads to catch O(n²)
regressions and int32 overflow-type bugs that tiny graphs never see.
Kept under ~30s by using only the bulk code paths.
"""

import math

import numpy as np
import pytest

from repro.algorithms import (
    bfs,
    connected_components,
    kcore_decomposition,
    pagerank,
    sssp,
)
from repro.graph.generators import grid_2d, rmat


@pytest.fixture(scope="module")
def big_rmat():
    return rmat(13, 16, weighted=True, seed=99, directed=False)


@pytest.fixture(scope="module")
def big_grid():
    return grid_2d(128, 128, weighted=True, seed=99)


class TestAtScale:
    def test_sizes(self, big_rmat, big_grid):
        assert big_rmat.n_vertices == 8192
        assert big_rmat.n_edges > 100_000
        assert big_grid.n_vertices == 16384

    def test_sssp_internal_consistency(self, big_rmat):
        r = sssp(big_rmat, 0)
        assert r.stats.converged
        # Fixed-point check on a sample of edges (full check is O(E) python).
        csr = big_rmat.csr()
        rng = np.random.default_rng(0)
        for v in rng.integers(0, big_rmat.n_vertices, 200):
            v = int(v)
            if r.distances[v] >= 1e37:
                continue
            nbrs = csr.get_neighbors(v)
            wts = csr.get_neighbor_weights(v)
            assert np.all(r.distances[nbrs] <= r.distances[v] + wts + 1e-3)

    def test_sssp_grid_diameter_supersteps(self, big_grid):
        # Listing 4's single frontier (delta=inf): one superstep per hop
        # of the weighted shortest-path tree's depth, give or take.
        r = sssp(big_grid, 0, delta=math.inf)
        assert 128 <= r.stats.num_iterations <= 2 * 128 + 2

    def test_bfs_direction_optimized(self, big_rmat):
        push = bfs(big_rmat, 0, direction="push")
        auto = bfs(big_rmat, 0, direction="auto")
        assert np.array_equal(push.levels, auto.levels)
        assert "pull" in auto.directions

    def test_pagerank_mass_conserved(self, big_rmat):
        r = pagerank(big_rmat, tolerance=1e-8)
        assert r.converged
        assert r.ranks.sum() == pytest.approx(1.0, abs=1e-6)

    def test_cc_methods_agree(self, big_rmat):
        a = connected_components(big_rmat, method="label_propagation")
        b = connected_components(big_rmat, method="hooking")
        assert np.array_equal(a.labels, b.labels)

    def test_kcore_invariant_sampled(self, big_rmat):
        r = kcore_decomposition(big_rmat)
        csr = big_rmat.csr()
        rng = np.random.default_rng(1)
        for v in rng.integers(0, big_rmat.n_vertices, 100):
            v = int(v)
            k = r.core_numbers[v]
            if k > 0:
                nbrs = csr.get_neighbors(v)
                assert np.count_nonzero(r.core_numbers[nbrs] >= k) >= k

    def test_partitioning_at_scale(self, big_grid):
        from repro.partition import edge_cut, metis_like_partition, random_partition

        cut_rand = edge_cut(big_grid, random_partition(big_grid, 8, seed=0))
        cut_metis = edge_cut(
            big_grid, metis_like_partition(big_grid, 8, seed=0)
        )
        assert cut_metis < cut_rand / 4
