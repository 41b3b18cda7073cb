"""Tests for SSSP: Listing 4 parity, every policy/variant vs oracles."""

import math

import numpy as np
import pytest

from repro.algorithms.sssp import sssp, sssp_async
from repro.baselines import bellman_ford, dijkstra, nx_shortest_paths
from repro.errors import FrontierError
from repro.execution import par_vector
from repro.graph import from_edge_list
from repro.graph.generators import chain, erdos_renyi_gnp, grid_2d, rmat, star
from repro.types import INF


def assert_distances_match(result_dist, ref, atol=1e-2):
    ref = np.asarray(ref)
    finite = ref < 1e37
    assert np.allclose(
        np.asarray(result_dist)[finite], ref[finite], atol=atol
    ), "finite distances diverge"
    assert np.all(np.asarray(result_dist)[~finite] >= 1e37), (
        "unreachable vertices must stay at INF"
    )


class TestListing4Parity:
    """The exact worked example behavior from the paper."""

    def test_diamond_shortest_path(self, diamond_graph, policy):
        r = sssp(diamond_graph, 0, policy=policy)
        assert r.distances.tolist() == [0.0, 1.0, 4.0, 3.0]

    def test_initialization_contract(self, diamond_graph):
        """dist = FLT_MAX everywhere, 0 at source (Listing 4 init)."""
        r = sssp(diamond_graph, 3)  # vertex 3 has no out-edges
        assert r.distances[3] == 0.0
        assert np.all(r.distances[:3] == INF)

    def test_loop_converges_on_empty_frontier(self, diamond_graph):
        r = sssp(diamond_graph, 0)
        assert r.stats.converged
        # diamond: frontier {0} -> {1,2} -> {3} -> {} = 3 supersteps.
        assert r.stats.num_iterations == 3

    def test_source_out_of_range(self, diamond_graph):
        with pytest.raises(FrontierError):
            sssp(diamond_graph, 99)


class TestPolicyInvariance:
    """One algorithm text, four execution policies, identical answers."""

    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: grid_2d(10, 10, weighted=True, seed=1),
            lambda: rmat(8, 8, weighted=True, seed=2),
            lambda: erdos_renyi_gnp(150, 0.04, weighted=True, seed=3),
        ],
        ids=["grid", "rmat", "er"],
    )
    def test_matches_dijkstra(self, make_graph, policy):
        g = make_graph()
        r = sssp(g, 0, policy=policy)
        assert_distances_match(r.distances, dijkstra(g, 0))

    def test_without_frontier_dedup_still_correct(self, weighted_grid):
        r = sssp(weighted_grid, 0, deduplicate_frontier=False)
        assert_distances_match(r.distances, dijkstra(weighted_grid, 0))

    def test_dense_output_representation(self, weighted_grid):
        r = sssp(weighted_grid, 0, output_representation="dense")
        assert_distances_match(r.distances, dijkstra(weighted_grid, 0))


class TestVariantShapes:
    """The formulation choices the abstraction admits (output
    representation, near band, Listing 4 verbatim, async messages,
    frontier dedup) change supersteps and work, never the answer."""

    def test_all_variants_same_answer(self, grid48):
        base = sssp(grid48, 0).distances
        for dist in (
            sssp(grid48, 0, output_representation="dense").distances,
            sssp(grid48, 0, delta=float(grid48.csr().values.mean()) / 4).distances,
            sssp(grid48, 0, delta=math.inf).distances,
            sssp_async(grid48, 0, timeout=600).distances,
        ):
            assert np.allclose(base, dist, atol=1e-2)

    def test_all_variants_agree_with_dijkstra(self, grid48):
        ref = dijkstra(grid48, 0)
        for dist in (
            sssp(grid48, 0, policy=par_vector).distances,
            sssp(grid48, 0, delta=math.inf).distances,
            bellman_ford(grid48, 0),
        ):
            assert np.allclose(dist, ref, atol=1e-2)

    def test_dedup_reduces_edge_work_on_dense_graphs(self, rmat10_directed):
        on = sssp(rmat10_directed, 0, deduplicate_frontier=True)
        off = sssp(rmat10_directed, 0, deduplicate_frontier=False)
        assert on.stats.total_edges_touched <= off.stats.total_edges_touched


class TestTimingShapes:
    """Table I's timing pillar: superstep count tracks diameter, and the
    asynchronous engine reaches BSP's answer."""

    def test_superstep_count_tracks_diameter(self, grid48, rmat10_directed):
        grid_iters = sssp(grid48, 0, policy=par_vector).stats.num_iterations
        rmat_iters = sssp(rmat10_directed, 0, policy=par_vector).stats.num_iterations
        # Grid diameter ~ 2*side; RMAT diameter ~ log(n).
        assert grid_iters > 10 * rmat_iters

    def test_async_and_bsp_agree(self, grid48):
        bsp = sssp(grid48, 0, policy=par_vector).distances
        asy = sssp_async(grid48, 0, num_workers=4, timeout=600).distances
        assert np.allclose(bsp, asy, atol=1e-3)

    def test_grid_frontiers_narrow_rmat_frontiers_wide(self, grid48, rmat10_directed):
        grid_stats = sssp(grid48, 0, policy=par_vector).stats
        rmat_stats = sssp(rmat10_directed, 0, policy=par_vector).stats
        grid_peak = max(s.frontier_size for s in grid_stats.iterations)
        rmat_peak = max(s.frontier_size for s in rmat_stats.iterations)
        # Peak active fraction: tiny on the grid, large on RMAT.
        assert grid_peak / grid48.n_vertices < 0.25
        assert rmat_peak / rmat10_directed.n_vertices > 0.25


class TestAsyncSSSP:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_matches_dijkstra(self, weighted_grid, workers):
        r = sssp_async(weighted_grid, 0, num_workers=workers, timeout=60)
        assert_distances_match(r.distances, dijkstra(weighted_grid, 0))

    def test_rmat(self, small_rmat):
        r = sssp_async(small_rmat, 0, num_workers=3, timeout=60)
        assert_distances_match(r.distances, dijkstra(small_rmat, 0))

    def test_isolated_source(self):
        g = from_edge_list([(1, 2, 1.0)], n_vertices=3)
        r = sssp_async(g, 0, timeout=10)
        assert r.distances[0] == 0.0
        assert r.distances[1] == INF


class TestDeltaStepping:
    """``sssp(delta=…)``: near-far is delta-stepping with two buckets."""

    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: grid_2d(12, 12, weighted=True, seed=4),
            lambda: rmat(8, 8, weighted=True, seed=5),
        ],
        ids=["grid", "rmat"],
    )
    def test_matches_dijkstra(self, make_graph):
        g = make_graph()
        r = sssp(g, 0, delta=float(g.csr().values.mean()) / 4)
        assert_distances_match(r.distances, dijkstra(g, 0))

    @pytest.mark.parametrize("delta", [0.5, 2.0, 100.0])
    def test_any_delta_is_correct(self, weighted_grid, delta):
        """delta trades supersteps for work but never correctness.
        Huge delta degenerates to Bellman-Ford, tiny to Dijkstra."""
        r = sssp(weighted_grid, 0, delta=delta)
        assert_distances_match(r.distances, dijkstra(weighted_grid, 0))

    def test_bucket_count_decreases_with_delta(self, weighted_grid):
        small = sssp(weighted_grid, 0, delta=1.0)
        large = sssp(weighted_grid, 0, delta=50.0)
        assert large.stats.num_iterations <= small.stats.num_iterations


class TestEdgeCases:
    def test_single_vertex(self):
        g = from_edge_list([], n_vertices=1)
        r = sssp(g, 0)
        assert r.distances.tolist() == [0.0]
        # Listing 4: `while (f.size() != 0)` runs one (empty) expand.
        assert r.stats.num_iterations == 1

    def test_disconnected(self, two_component_graph):
        r = sssp(two_component_graph, 0)
        assert r.distances[2] == 2.0  # unit weights
        assert r.distances[3] == INF
        assert r.reached().tolist() == [True, True, True, False, False]

    def test_star_single_superstep(self):
        g = star(50)
        r = sssp(g, 0)
        assert r.stats.num_iterations <= 2
        assert np.all(r.distances[1:] == 1.0)

    def test_chain_iteration_count_equals_length(self):
        g = chain(30, directed=True)
        r = sssp(g, 0)
        assert r.stats.num_iterations == 30  # 29 hops + final empty expand

    def test_unweighted_equals_bfs_hops(self, small_grid):
        from repro.baselines import sequential_bfs

        r = sssp(small_grid, 0)
        hops = sequential_bfs(small_grid, 0)
        assert np.array_equal(r.distances.astype(int), hops)

    def test_matches_bellman_ford(self, small_er):
        assert_distances_match(
            sssp(small_er, 0).distances, bellman_ford(small_er, 0)
        )

    def test_matches_networkx(self, weighted_grid):
        assert_distances_match(
            sssp(weighted_grid, 5).distances, nx_shortest_paths(weighted_grid, 5)
        )

    def test_stats_edges_touched_positive(self, weighted_grid):
        r = sssp(weighted_grid, 0)
        assert r.stats.total_edges_touched > 0
        assert r.stats.frontier_profile()[0] == 1  # starts with the source
