"""Tests for the extension features: near-far SSSP schedule, PPR (power + push),
SpGEMM, random walks, asynchronous message-passing SSSP.

These cover the paper's "look ahead" direction — more of TLAV's design
space under the same abstraction — and the extra algorithms of the
companion essentials library (ppr, spgemm).
"""

import math

import numpy as np
import pytest

from repro.algorithms import (
    count_two_hop_paths,
    personalized_pagerank,
    ppr_forward_push,
    random_walks,
    spgemm,
    sssp,
    sssp_async,
    visit_frequencies,
)
from repro.algorithms.random_walk import INVALID
from repro.baselines import dijkstra
from repro.errors import GraphFormatError
from repro.graph import from_edge_list
from repro.graph.generators import chain, grid_2d, rmat, star, watts_strogatz
from repro.types import INF


class TestNearFarSSSP:
    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: grid_2d(10, 10, weighted=True, seed=1),
            lambda: rmat(8, 8, weighted=True, seed=2),
            lambda: watts_strogatz(150, 6, 0.1, seed=3),
        ],
        ids=["grid", "rmat", "ws"],
    )
    def test_matches_dijkstra(self, make_graph):
        g = make_graph()
        r = sssp(g, 0)
        ref = dijkstra(g, 0)
        finite = ref < 1e37
        assert np.allclose(r.distances[finite], ref[finite], atol=1e-2)
        assert np.all(r.distances[~finite] >= 1e37)

    @pytest.mark.parametrize("delta", [0.5, 5.0, 1000.0])
    def test_any_delta_correct(self, weighted_grid, delta):
        r = sssp(weighted_grid, 0, delta=delta)
        assert np.allclose(
            r.distances, dijkstra(weighted_grid, 0), atol=1e-2
        )

    def test_fewer_rounds_than_plain_bsp_on_grid(self, weighted_grid):
        # Near-far trades supersteps for work: far vertices are no longer
        # re-relaxed every round, so fewer edges are touched — a gap that
        # widens with the diameter (2x on a 64x64 grid at Δ = the mean
        # weight; the work-sized default spends some of it on fewer
        # supersteps and touches ~0.66x).
        plain = sssp(weighted_grid, 0, delta=math.inf).stats
        nf = sssp(weighted_grid, 0).stats
        assert nf.total_edges_touched < plain.total_edges_touched
        g = grid_2d(64, 64, weighted=True, seed=42)
        plain = sssp(g, 0, delta=math.inf).stats
        fixed = sssp(g, 0, delta=float(g.csr().values.mean())).stats
        assert 2 * fixed.total_edges_touched <= plain.total_edges_touched
        sized = sssp(g, 0).stats
        assert 10 * sized.total_edges_touched <= 7 * plain.total_edges_touched

    def test_invalid_delta(self, weighted_grid):
        with pytest.raises(ValueError):
            sssp(weighted_grid, 0, delta=-1)

    def test_disconnected(self, two_component_graph):
        r = sssp(two_component_graph, 0)
        assert r.distances[3] == INF


class TestPersonalizedPageRank:
    def test_power_matches_networkx(self, small_ws):
        import networkx as nx

        from repro.baselines import nx_graph_of

        r = personalized_pagerank(small_ws, 5, tolerance=1e-12)
        ref = nx.pagerank(
            nx_graph_of(small_ws),
            alpha=0.85,
            personalization={5: 1.0},
            tol=1e-12,
            max_iter=1000,
        )
        refv = np.array([ref[v] for v in range(small_ws.n_vertices)])
        assert np.allclose(r.ranks, refv, atol=1e-8)

    def test_push_matches_power(self, small_ws):
        power = personalized_pagerank(small_ws, 3, tolerance=1e-12)
        push = ppr_forward_push(small_ws, 3, epsilon=1e-10)
        assert np.allclose(power.ranks, push.ranks, atol=1e-6)

    def test_multi_seed(self, small_ws):
        r = personalized_pagerank(small_ws, [0, 1, 2])
        assert r.ranks.sum() == pytest.approx(1.0, abs=1e-6)
        # Mass concentrates near the seeds.
        assert r.ranks[[0, 1, 2]].sum() > 3.0 / small_ws.n_vertices

    def test_push_is_local(self, small_ws):
        """Coarse epsilon must leave most of a big graph untouched."""
        r = ppr_forward_push(small_ws, 0, epsilon=1e-3)
        assert np.count_nonzero(r.ranks) < small_ws.n_vertices

    def test_bad_seeds_rejected(self, small_ws):
        with pytest.raises(ValueError):
            personalized_pagerank(small_ws, [])
        with pytest.raises(ValueError):
            personalized_pagerank(small_ws, small_ws.n_vertices)
        with pytest.raises(ValueError):
            ppr_forward_push(small_ws, 0, epsilon=0)


class TestSpGEMM:
    def test_square_matches_scipy(self, small_ws):
        product = spgemm(small_ws, small_ws)
        ref = (
            small_ws.csr().to_scipy().astype(np.float64)
            @ small_ws.csr().to_scipy().astype(np.float64)
        ).toarray()
        assert np.allclose(
            product.csr().to_scipy().toarray(), ref, atol=1e-3
        )

    def test_rectangular_chain_power(self):
        """A path's adjacency squared connects vertices 2 hops apart."""
        g = chain(6, directed=True)
        sq = spgemm(g, g)
        pairs = set(
            zip(sq.coo().rows.tolist(), sq.coo().cols.tolist())
        )
        assert pairs == {(i, i + 2) for i in range(4)}

    def test_mismatched_sizes_rejected(self):
        a = chain(4, directed=True)
        b = chain(5, directed=True)
        with pytest.raises(GraphFormatError):
            spgemm(a, b)

    def test_empty_product(self):
        # star leaves have no out-edges (directed): A@A of a directed star
        # is empty.
        g = star(4, directed=True)
        sq = spgemm(g, g)
        assert sq.n_edges == 0

    def test_row_blocking_invariant(self, small_ws):
        a = spgemm(small_ws, small_ws, row_block=7)
        b = spgemm(small_ws, small_ws, row_block=4096)
        assert np.allclose(
            a.csr().to_scipy().toarray(),
            b.csr().to_scipy().toarray(),
            atol=1e-3,
        )

    def test_two_hop_count(self):
        g = chain(5, directed=True)
        assert count_two_hop_paths(g) == 3  # 0->2, 1->3, 2->4


class TestRandomWalks:
    def test_walks_follow_edges(self, small_ws):
        r = random_walks(small_ws, [0, 7, 12], 15, seed=1)
        for row in r.walks:
            for a, b in zip(row, row[1:]):
                if b == INVALID:
                    break
                assert small_ws.has_edge(int(a), int(b))

    def test_deterministic(self, small_ws):
        a = random_walks(small_ws, [0], 20, seed=5)
        b = random_walks(small_ws, [0], 20, seed=5)
        assert np.array_equal(a.walks, b.walks)

    def test_sink_terminates_walk(self):
        g = chain(4, directed=True)
        r = random_walks(g, [0], 10, seed=0)
        assert r.walks[0].tolist()[:4] == [0, 1, 2, 3]
        assert np.all(r.walks[0][4:] == INVALID)
        assert r.terminated_early[0]

    def test_weighted_bias(self):
        """A 2-out-neighbor vertex with weights 100:1 should step to the
        heavy neighbor most of the time."""
        g = from_edge_list(
            [(0, 1, 100.0), (0, 2, 1.0)], n_vertices=3, directed=True
        )
        r = random_walks(g, [0] * 500, 1, seed=2, weighted=True)
        heavy = int((r.walks[:, 1] == 1).sum())
        assert heavy > 450

    def test_visit_frequencies(self):
        g = chain(3, directed=True)
        r = random_walks(g, [0, 0], 2, seed=3)
        freq = visit_frequencies(r, 3)
        assert freq.tolist() == [2, 2, 2]

    def test_bad_starts_rejected(self, small_ws):
        with pytest.raises(ValueError):
            random_walks(small_ws, [small_ws.n_vertices], 3)


class TestAsyncMessageEngines:
    def test_async_sssp_matches_bsp(self, weighted_grid):
        bsp = sssp(weighted_grid, 0).distances
        result = sssp_async(weighted_grid, 0, timeout=120)
        assert np.allclose(bsp, result.distances, atol=1e-3)
        # The async run records its tasks processed as one pseudo-iteration.
        tasks = result.stats.iterations[0].frontier_size
        assert tasks >= np.count_nonzero(bsp < INF) - 1
