"""Tests for BFS: push, pull, direction-optimized; parents; profiles."""

import numpy as np
import pytest

from repro.algorithms.bfs import UNREACHED, bfs, bfs_levels_by_superstep
from repro.baselines import nx_bfs_levels, sequential_bfs
from repro.graph import from_edge_list
from repro.graph.generators import binary_tree, chain, grid_2d, rmat, star
from repro.types import INVALID_VERTEX

DIRECTIONS = ["push", "pull", "auto"]


class TestCorrectness:
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: binary_tree(5),
            lambda: grid_2d(12, 12),
            lambda: rmat(8, 8, seed=1),
        ],
        ids=["tree", "grid", "rmat"],
    )
    def test_levels_match_reference(self, make_graph, direction):
        g = make_graph()
        r = bfs(g, 0, direction=direction)
        assert np.array_equal(r.levels, sequential_bfs(g, 0))

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_levels_match_networkx(self, small_ws, direction):
        r = bfs(small_ws, 3, direction=direction)
        assert np.array_equal(r.levels, nx_bfs_levels(small_ws, 3))

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_policy_invariance(self, small_rmat, direction, policy):
        r = bfs(small_rmat, 0, direction=direction, policy=policy)
        assert np.array_equal(r.levels, sequential_bfs(small_rmat, 0))


class TestParents:
    def test_parent_tree_is_consistent(self, small_grid):
        r = bfs(small_grid, 0)
        for v in range(small_grid.n_vertices):
            if r.levels[v] > 0:
                p = int(r.parents[v])
                assert p != INVALID_VERTEX
                assert r.levels[p] == r.levels[v] - 1
                assert small_grid.has_edge(p, v)

    def test_source_is_own_parent(self, small_grid):
        r = bfs(small_grid, 0)
        assert r.parents[0] == 0

    def test_unreached_have_no_parent(self, two_component_graph):
        r = bfs(two_component_graph, 0)
        assert r.parents[3] == INVALID_VERTEX
        assert r.levels[3] == UNREACHED


class TestDirectionOptimized:
    def test_switches_to_pull_on_wide_frontier(self):
        g = binary_tree(9)  # frontier doubles per level -> crosses 5%
        r = bfs(g, 0, direction="auto")
        assert "pull" in r.directions
        assert r.directions[0] == "push"  # single-source start is narrow

    def test_stays_push_on_narrow_frontier(self):
        g = chain(60)
        r = bfs(g, 0, direction="auto")
        assert all(d == "push" for d in r.directions)

    def test_thresholds_configurable(self):
        g = binary_tree(6)
        eager = bfs(g, 0, direction="auto", pull_threshold=0.01)
        lazy = bfs(g, 0, direction="auto", pull_threshold=0.99)
        assert eager.directions.count("pull") >= lazy.directions.count("pull")
        assert np.array_equal(eager.levels, lazy.levels)

    def test_auto_switches_on_rmat(self, rmat10):
        r = bfs(rmat10, 0, direction="auto")
        assert "pull" in r.directions and "push" in r.directions

    def test_auto_stays_push_on_grid(self, grid48):
        r = bfs(grid48, 0, direction="auto")
        assert all(d == "push" for d in r.directions)

    def test_all_directions_same_levels(self, rmat10):
        levels = [bfs(rmat10, 0, direction=d).levels for d in DIRECTIONS]
        assert np.array_equal(levels[0], levels[1])
        assert np.array_equal(levels[0], levels[2])

    def test_fixed_direction_records_nothing(self, small_grid):
        assert bfs(small_grid, 0, direction="push").directions == []

    def test_bad_direction_rejected(self, small_grid):
        with pytest.raises(ValueError):
            bfs(small_grid, 0, direction="both")


class TestShapes:
    def test_binary_tree_one_level_per_superstep(self):
        depth = 6
        g = binary_tree(depth)
        r = bfs(g, 0)
        assert r.stats.num_iterations == depth + 1  # +1 empty-terminator
        profile = bfs_levels_by_superstep(r)
        assert profile == {k: 2**k for k in range(depth + 1)}

    def test_star_two_supersteps(self):
        r = bfs(star(100), 0)
        assert r.stats.num_iterations <= 2
        assert np.all(r.levels[1:] == 1)

    def test_chain_diameter_supersteps(self):
        n = 40
        r = bfs(chain(n), 0)
        assert r.stats.num_iterations == n  # n-1 hops + empty expand
        assert r.levels[n - 1] == n - 1

    def test_frontier_profile_is_bell_curve_on_grid(self):
        r = bfs(grid_2d(20, 20), 0)
        sizes = [s.frontier_size for s in r.stats.iterations]
        peak = int(np.argmax(sizes))
        assert 0 < peak < len(sizes) - 1  # grows then shrinks


class TestEdgeCases:
    def test_isolated_source(self):
        g = from_edge_list([(1, 2)], n_vertices=3)
        r = bfs(g, 0)
        assert r.levels.tolist() == [0, -1, -1]

    def test_self_loop_harmless(self):
        g = from_edge_list([(0, 0), (0, 1)], n_vertices=2)
        r = bfs(g, 0)
        assert r.levels.tolist() == [0, 1]

    def test_directed_unreachability(self):
        g = from_edge_list([(1, 0)], n_vertices=2)
        r = bfs(g, 0)
        assert r.levels.tolist() == [0, -1]
