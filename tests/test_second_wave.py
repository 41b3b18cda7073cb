"""Tests for the second extension wave: SBM generator, Luby MIS,
k-truss decomposition, and the shared-queue async scheduler."""

import threading

import numpy as np
import pytest

from repro.algorithms import (
    ktruss_decomposition,
    label_propagation_communities,
    maximal_independent_set,
    verify_mis,
)
from repro.execution import AsyncScheduler
from repro.graph import from_edge_list
from repro.graph.generators import (
    chain,
    complete,
    grid_2d,
    stochastic_block_model,
    watts_strogatz,
)
from repro.partition import PartitionAssignment, edge_cut


class TestStochasticBlockModel:
    def test_ground_truth_shape(self):
        g, blocks = stochastic_block_model([40, 60], 0.3, 0.01, seed=1)
        assert g.n_vertices == 100
        assert blocks.tolist() == [0] * 40 + [1] * 60

    def test_assortativity(self):
        """Intra-block edges must dominate at p_in >> p_out."""
        g, blocks = stochastic_block_model([80, 80], 0.2, 0.005, seed=2)
        coo = g.coo()
        intra = int(np.count_nonzero(blocks[coo.rows] == blocks[coo.cols]))
        assert intra > 0.8 * g.n_edges

    def test_edge_density_near_expectation(self):
        g, _ = stochastic_block_model([100, 100], 0.1, 0.02, seed=3)
        # E[undirected edges] = 2*C(100,2)*0.1 + 100*100*0.02
        expected = 2 * (2 * 4950 * 0.1 + 10000 * 0.02)  # both arcs
        assert abs(g.n_edges - expected) < 0.15 * expected

    def test_lpa_recovers_planted_blocks(self):
        g, blocks = stochastic_block_model([60, 60, 60], 0.5, 0.005, seed=4)
        r = label_propagation_communities(g, seed=0)
        # Majority label within each block covers most of the block (LPA
        # fragments sparse blocks, so recovery is strong, not perfect).
        recovered = sum(
            int(np.bincount(r.labels[blocks == b]).max()) for b in range(3)
        )
        assert recovered > 0.8 * g.n_vertices

    def test_planted_partition_is_good_cut(self):
        g, blocks = stochastic_block_model([70, 70], 0.25, 0.01, seed=5)
        planted = PartitionAssignment(blocks, 2)
        from repro.partition import random_partition

        assert edge_cut(g, planted) < edge_cut(
            g, random_partition(g, 2, seed=0)
        ) / 3

    def test_zero_probabilities(self):
        g, _ = stochastic_block_model([10, 10], 0.0, 0.0, seed=6)
        assert g.n_edges == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            stochastic_block_model([10], 1.5, 0.1)
        with pytest.raises(ValueError):
            stochastic_block_model([-1], 0.1, 0.1)

    def test_deterministic(self):
        a, _ = stochastic_block_model([30, 30], 0.2, 0.02, seed=7)
        b, _ = stochastic_block_model([30, 30], 0.2, 0.02, seed=7)
        assert np.array_equal(a.csr().column_indices, b.csr().column_indices)


class TestMaximalIndependentSet:
    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: complete(12),
            lambda: chain(25),
            lambda: grid_2d(9, 9),
            lambda: watts_strogatz(200, 6, 0.1, seed=1),
        ],
        ids=["complete", "chain", "grid", "smallworld"],
    )
    def test_valid_mis(self, make_graph):
        g = make_graph()
        r = maximal_independent_set(g, seed=0)
        assert verify_mis(g, r.in_set)
        assert r.size == int(r.in_set.sum())

    def test_complete_graph_picks_one(self):
        assert maximal_independent_set(complete(15), seed=0).size == 1

    def test_chain_at_least_half_rounded(self):
        # A path of n vertices has MIS size >= ceil(n/3) for any maximal
        # set; Luby typically gets close to n/2.
        r = maximal_independent_set(chain(30), seed=0)
        assert r.size >= 10

    def test_isolated_vertices_always_in(self):
        g = from_edge_list([(0, 1)], n_vertices=4, directed=False)
        r = maximal_independent_set(g, seed=0)
        assert r.in_set[2] and r.in_set[3]

    def test_log_rounds(self):
        g = watts_strogatz(500, 8, 0.1, seed=2)
        r = maximal_independent_set(g, seed=0)
        assert r.rounds <= 12  # ~O(log n) w.h.p.

    def test_deterministic(self):
        g = watts_strogatz(100, 4, 0.1, seed=3)
        a = maximal_independent_set(g, seed=5)
        b = maximal_independent_set(g, seed=5)
        assert np.array_equal(a.in_set, b.in_set)


class TestKTruss:
    def test_complete_graph(self):
        r = ktruss_decomposition(complete(6))
        assert np.all(r.truss_numbers == 6)

    def test_triangle_free_graph(self):
        r = ktruss_decomposition(grid_2d(5, 5))
        assert np.all(r.truss_numbers == 2)

    def test_matches_networkx(self):
        import networkx as nx

        from repro.baselines import nx_graph_of

        g = watts_strogatz(120, 6, 0.05, seed=4)
        r = ktruss_decomposition(g)
        G = nx_graph_of(g)
        for k in range(3, r.max_truss + 1):
            ref = {
                (min(u, v), max(u, v)) for u, v in nx.k_truss(G, k).edges()
            }
            ours = set(zip(*[a.tolist() for a in r.truss_subgraph_edges(k)]))
            assert ours == ref, f"k={k} mismatch"

    def test_directed_input_uses_underlying(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)], n_vertices=3)
        r = ktruss_decomposition(g)
        assert np.all(r.truss_numbers == 3)

    def test_nested_trusses(self):
        """A K5 glued to a path: the clique is a 5-truss, the tail is 2."""
        edges = [
            (i, j) for i in range(5) for j in range(i + 1, 5)
        ] + [(4, 5), (5, 6)]
        g = from_edge_list(edges, directed=False)
        r = ktruss_decomposition(g)
        by_pair = {
            (int(u), int(v)): int(t)
            for u, v, t in zip(r.edge_u, r.edge_v, r.truss_numbers)
        }
        assert by_pair[(0, 1)] == 5
        assert by_pair[(4, 5)] == 2
        assert by_pair[(5, 6)] == 2


class TestAsyncScheduler:
    def test_processes_every_spawned_item(self):
        def make_process(store, lock):
            def process(item, push):
                with lock:
                    store.append(item)
                if item % 3 == 0 and item < 300:
                    push(item + 7)

            return process

        seeds = list(range(0, 60, 2))
        store: list = []
        lock = threading.Lock()
        AsyncScheduler(3).run(make_process(store, lock), seeds, 1000, timeout=15)
        # Each seed divisible by 3 spawns one odd item, which spawns none.
        assert sorted(store) == sorted(seeds + [s + 7 for s in seeds if s % 3 == 0])
