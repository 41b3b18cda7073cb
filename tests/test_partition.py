"""Tests for partitioning: assignment container, metrics, heuristics."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.generators import grid_2d, rmat, watts_strogatz
from repro.partition import (
    PartitionAssignment,
    communication_volume,
    contiguous_partition,
    edge_cut,
    fennel_partition,
    ldg_partition,
    load_balance,
    metis_like_partition,
    random_partition,
    round_robin_partition,
)

ALL_PARTITIONERS = [
    ("random", lambda g, k: random_partition(g, k, seed=0)),
    ("contiguous", contiguous_partition),
    ("round_robin", round_robin_partition),
    ("ldg", lambda g, k: ldg_partition(g, k, seed=0)),
    ("fennel", lambda g, k: fennel_partition(g, k, seed=0)),
    ("metis_like", lambda g, k: metis_like_partition(g, k, seed=0)),
]
# The Table I heuristics: random, then the informed ones.
HEURISTICS = [p for p in ALL_PARTITIONERS if p[0] not in ("contiguous", "round_robin")]


class TestAssignment:
    def test_basic_queries(self):
        p = PartitionAssignment(np.array([0, 1, 0, 1, 2]), 3)
        assert p.n_vertices == 5
        assert p.part_of(3) == 1
        assert p.vertices_of(0).tolist() == [0, 2]
        assert p.part_sizes().tolist() == [2, 2, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(PartitionError):
            PartitionAssignment(np.array([0, 3]), 2)
        with pytest.raises(PartitionError):
            PartitionAssignment(np.array([-1]), 2)
        with pytest.raises(PartitionError):
            PartitionAssignment(np.array([0]), 0)

    def test_vertices_of_bad_part(self):
        p = PartitionAssignment(np.array([0]), 1)
        with pytest.raises(PartitionError):
            p.vertices_of(1)

    def test_subgraphs(self, small_grid):
        p = contiguous_partition(small_grid, 4)
        subs = p.subgraphs(small_grid)
        assert len(subs) == 4
        assert sum(sub.n_vertices for sub, _ in subs) == small_grid.n_vertices


class TestMetrics:
    def test_edge_cut_extremes(self, small_grid):
        n = small_grid.n_vertices
        all_one = PartitionAssignment(np.zeros(n, dtype=int), 1)
        assert edge_cut(small_grid, all_one) == 0
        each_own = PartitionAssignment(np.arange(n), n)
        assert edge_cut(small_grid, each_own) == small_grid.n_edges

    def test_load_balance_perfect(self):
        p = PartitionAssignment(np.array([0, 0, 1, 1]), 2)
        assert load_balance(p) == 1.0

    def test_load_balance_skewed(self):
        p = PartitionAssignment(np.array([0, 0, 0, 1]), 2)
        assert load_balance(p) == pytest.approx(1.5)

    def test_communication_volume_counts_distinct_parts(self):
        # Star: hub 0 with 4 leaves split across 2 remote parts.
        from repro.graph.generators import star

        g = star(4)
        assignment = np.array([0, 1, 1, 2, 2])
        p = PartitionAssignment(assignment, 3)
        # Hub sends to parts {1, 2} -> volume 2 from the hub, plus each
        # leaf sends to part 0 -> 4, total 6.
        assert communication_volume(g, p) == 6

    def test_communication_volume_zero_single_part(self, small_grid):
        p = PartitionAssignment(np.zeros(small_grid.n_vertices, dtype=int), 1)
        assert communication_volume(small_grid, p) == 0


class TestPartitioners:
    @pytest.mark.parametrize("name,fn", ALL_PARTITIONERS)
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_valid_assignment(self, name, fn, k, small_grid):
        p = fn(small_grid, k)
        assert p.n_vertices == small_grid.n_vertices
        assert p.assignment.min() >= 0
        assert p.assignment.max() < k

    @pytest.mark.parametrize("name,fn", ALL_PARTITIONERS)
    def test_reasonable_balance(self, name, fn, small_grid):
        p = fn(small_grid, 4)
        assert load_balance(p) <= 1.5, f"{name} badly unbalanced"

    def test_random_balanced_exact(self, small_grid):
        p = random_partition(small_grid, 4, seed=1)
        sizes = p.part_sizes()
        assert sizes.max() - sizes.min() <= 1

    def test_random_unbalanced_mode(self, small_grid):
        p = random_partition(small_grid, 4, balanced=False, seed=1)
        assert p.n_parts == 4  # still valid, only statistically balanced

    def test_random_deterministic(self, small_grid):
        a = random_partition(small_grid, 4, seed=5)
        b = random_partition(small_grid, 4, seed=5)
        assert np.array_equal(a.assignment, b.assignment)

    def test_contiguous_ranges(self, small_grid):
        p = contiguous_partition(small_grid, 4)
        diffs = np.diff(p.assignment)
        assert np.all(diffs >= 0)  # monotone part ids

    def test_round_robin_pattern(self, small_grid):
        p = round_robin_partition(small_grid, 3)
        assert np.array_equal(
            p.assignment, np.arange(small_grid.n_vertices) % 3
        )


class TestQualityOrdering:
    """The Table I claim in measurable form: informed heuristics beat
    random on structured graphs."""

    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: grid_2d(24, 24),
            lambda: watts_strogatz(800, 8, 0.05, seed=3),
        ],
        ids=["grid", "smallworld"],
    )
    def test_metis_like_beats_random(self, make_graph):
        g = make_graph()
        cut_random = edge_cut(g, random_partition(g, 4, seed=0))
        cut_metis = edge_cut(g, metis_like_partition(g, 4, seed=0))
        assert cut_metis < cut_random / 2

    def test_streaming_between_random_and_metis(self):
        g = grid_2d(24, 24)
        cut_random = edge_cut(g, random_partition(g, 4, seed=0))
        cut_ldg = edge_cut(g, ldg_partition(g, 4, seed=0))
        assert cut_ldg < cut_random

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_metis_beats_random_on_grid(self, grid48, k):
        cut_rand = edge_cut(grid48, random_partition(grid48, k, seed=1))
        cut_metis = edge_cut(grid48, metis_like_partition(grid48, k, seed=1))
        assert cut_metis < cut_rand / 4

    def test_streaming_lands_between(self, ws10):
        cut_rand = edge_cut(ws10, random_partition(ws10, 4, seed=2))
        cut_ldg = edge_cut(ws10, ldg_partition(ws10, 4, seed=2))
        cut_metis = edge_cut(ws10, metis_like_partition(ws10, 4, seed=2))
        assert cut_metis < cut_ldg < cut_rand

    def test_random_cut_fraction_matches_theory(self, grid48):
        """Random k-way cuts ~ (k-1)/k of edges."""
        k = 4
        cut = edge_cut(grid48, random_partition(grid48, k, seed=3))
        expected = grid48.n_edges * (k - 1) / k
        assert abs(cut - expected) / expected < 0.1

    def test_rmat_resists_partitioning(self, rmat10, grid48):
        """Power-law graphs partition far worse than lattices: the best
        heuristic's relative cut on RMAT stays a large fraction of the
        random cut, while on the grid it is a small fraction."""

        def best_rel_cut(g):
            rand = edge_cut(g, random_partition(g, 4, seed=4))
            best = min(edge_cut(g, fn(g, 4)) for _, fn in HEURISTICS[1:])
            return best / max(rand, 1)

        assert best_rel_cut(rmat10) > 3 * best_rel_cut(grid48)

    @pytest.mark.parametrize("name,fn", HEURISTICS, ids=[h[0] for h in HEURISTICS])
    @pytest.mark.parametrize("graph", ["grid48", "ws10"])
    def test_heuristics_balanced_at_k4(self, request, graph, name, fn):
        assert load_balance(fn(request.getfixturevalue(graph), 4)) < 1.6

    def test_metis_like_respects_balance_cap(self):
        g = rmat(9, 8, seed=1, directed=False)
        p = metis_like_partition(g, 4, balance_factor=1.1, seed=0)
        assert load_balance(p) <= 1.1 + 1e-9


class TestMetisInternals:
    def test_single_part_trivial(self, small_grid):
        p = metis_like_partition(small_grid, 1)
        assert np.all(p.assignment == 0)

    def test_deterministic_given_seed(self, small_grid):
        a = metis_like_partition(small_grid, 4, seed=2)
        b = metis_like_partition(small_grid, 4, seed=2)
        assert np.array_equal(a.assignment, b.assignment)

    def test_zero_parts_rejected(self, small_grid):
        with pytest.raises(ValueError):
            metis_like_partition(small_grid, 0)

    def test_more_parts_than_vertices_is_valid(self):
        g = grid_2d(2, 2)
        p = metis_like_partition(g, 4, seed=0)
        assert p.n_parts == 4


class TestStreamingInternals:
    def test_natural_vs_random_order(self, small_grid):
        a = ldg_partition(small_grid, 4, order="natural", seed=0)
        b = ldg_partition(small_grid, 4, order="random", seed=0)
        assert a.n_parts == b.n_parts == 4

    def test_bad_order_rejected(self, small_grid):
        with pytest.raises(ValueError):
            ldg_partition(small_grid, 2, order="sorted")

    def test_fennel_custom_alpha(self, small_grid):
        p = fennel_partition(small_grid, 4, alpha=0.5, seed=0)
        assert p.n_parts == 4
