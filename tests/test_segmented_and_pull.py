"""Tests for segmented neighborhood reduce, pull-direction SSSP, and LPA
community detection."""

import numpy as np
import pytest

from repro.algorithms import (
    label_propagation_communities,
    modularity,
    sssp,
)
from repro.baselines import dijkstra
from repro.graph import from_edge_list
from repro.graph.generators import chain, complete, grid_2d, rmat, watts_strogatz
from repro.operators import segmented_neighbor_reduce
from repro.execution import par, par_vector, seq


class TestSegmentedReduce:
    @pytest.fixture
    def reference(self, small_rmat, rng):
        vals = rng.random(small_rmat.n_vertices)
        csr = small_rmat.csr()
        ref = {
            "sum": np.zeros(small_rmat.n_vertices),
            "min": np.full(small_rmat.n_vertices, np.inf),
            "max": np.full(small_rmat.n_vertices, -np.inf),
        }
        for v in range(small_rmat.n_vertices):
            nbrs = csr.get_neighbors(v)
            if nbrs.size:
                ref["sum"][v] = vals[nbrs].sum()
                ref["min"][v] = vals[nbrs].min()
                ref["max"][v] = vals[nbrs].max()
        return vals, ref

    @pytest.mark.parametrize("op", ["sum", "min", "max"])
    @pytest.mark.parametrize("pol", [seq, par, par_vector], ids=lambda p: p.name)
    def test_out_direction_all_policies(self, small_rmat, reference, op, pol):
        vals, ref = reference
        out = segmented_neighbor_reduce(pol, small_rmat, vals, op=op)
        assert np.allclose(out, ref[op], atol=1e-9)

    def test_in_direction_is_transpose(self, diamond_graph):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        out = segmented_neighbor_reduce(
            par_vector, diamond_graph, vals, op="sum", direction="in"
        )
        # in-neighbors: 0:{} 1:{0} 2:{0} 3:{1,2}
        assert out.tolist() == [0.0, 1.0, 1.0, 5.0]

    def test_edge_transform(self, diamond_graph):
        vals = np.zeros(4)
        out = segmented_neighbor_reduce(
            par_vector,
            diamond_graph,
            vals,
            op="min",
            direction="in",
            edge_transform=lambda v, w: v + w,
        )
        # min over in-edges of (0 + weight): vertex 3 gets min(2, 1) = 1.
        assert out[3] == 1.0
        assert out[0] == np.inf  # no in-edges

    def test_isolated_vertices_hold_identity(self):
        g = from_edge_list([(0, 1)], n_vertices=3)
        out = segmented_neighbor_reduce(seq, g, np.ones(3), op="sum")
        assert out.tolist() == [1.0, 0.0, 0.0]

    def test_validation(self, diamond_graph):
        with pytest.raises(ValueError, match="op"):
            segmented_neighbor_reduce(seq, diamond_graph, np.zeros(4), op="avg")
        with pytest.raises(ValueError, match="direction"):
            segmented_neighbor_reduce(
                seq, diamond_graph, np.zeros(4), direction="up"
            )
        with pytest.raises(ValueError, match="one entry"):
            segmented_neighbor_reduce(seq, diamond_graph, np.zeros(3))


class TestPullSSSP:
    """``sssp(direction="pull")``: candidates gather over the CSC."""

    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: grid_2d(10, 10, weighted=True, seed=1),
            lambda: rmat(8, 8, weighted=True, seed=2),
        ],
        ids=["grid", "rmat"],
    )
    def test_matches_dijkstra(self, make_graph):
        g = make_graph()
        r = sssp(g, 0, direction="pull")
        ref = dijkstra(g, 0)
        finite = ref < 1e37
        assert np.allclose(r.distances[finite], ref[finite], atol=1e-2)
        assert np.all(r.distances[~finite] >= 1e37)

    def test_matches_push(self, weighted_grid):
        push = sssp(weighted_grid, 0).distances
        pull = sssp(weighted_grid, 0, direction="pull").distances
        assert np.array_equal(push, pull)

    def test_rounds_bounded_by_diameter_plus_one(self):
        g = chain(20, directed=True, weighted=True)
        r = sssp(g, 0, direction="pull")
        assert r.stats.num_iterations <= 21


class TestLabelPropagation:
    def test_two_cliques_with_bridge(self):
        edges = (
            [(i, j) for i in range(6) for j in range(i + 1, 6)]
            + [(i, j) for i in range(6, 12) for j in range(i + 1, 12)]
            + [(0, 6)]
        )
        g = from_edge_list(edges, directed=False)
        r = label_propagation_communities(g)
        assert r.n_communities == 2
        # Each clique is one community.
        assert len(set(r.labels[:6].tolist())) == 1
        assert len(set(r.labels[6:].tolist())) == 1

    def test_complete_graph_single_community(self):
        r = label_propagation_communities(complete(8))
        assert r.n_communities == 1

    def test_disconnected_components_separate(self, two_component_graph):
        r = label_propagation_communities(two_component_graph)
        assert r.labels[0] == r.labels[1] == r.labels[2]
        assert r.labels[3] == r.labels[4]
        assert r.labels[0] != r.labels[3]

    def test_modularity_positive_on_community_structure(self):
        g = watts_strogatz(300, 8, 0.02, seed=3)
        r = label_propagation_communities(g)
        assert modularity(g, r.labels) > 0.3

    def test_community_quality_positive(self, ws10):
        r = label_propagation_communities(ws10, seed=0)
        assert modularity(ws10, r.labels) > 0.2

    def test_modularity_extremes(self):
        g = complete(6)
        # All one community: Q = 0 for complete graph partitioned trivially
        # minus degree term -> Q = 1 - 1 = 0 when single community.
        assert modularity(g, np.zeros(6, dtype=int)) == pytest.approx(0.0)
        # Every vertex its own community: strictly negative.
        assert modularity(g, np.arange(6)) < 0

    def test_deterministic(self):
        g = watts_strogatz(120, 6, 0.05, seed=4)
        a = label_propagation_communities(g, seed=7)
        b = label_propagation_communities(g, seed=7)
        assert np.array_equal(a.labels, b.labels)

    def test_community_sizes_sum(self):
        g = watts_strogatz(90, 4, 0.1, seed=5)
        r = label_propagation_communities(g)
        assert r.community_sizes().sum() == 90
