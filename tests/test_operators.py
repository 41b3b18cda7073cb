"""Tests for operators: advance, filter, reduce, uniquify,
intersection, conditions, load balancing.

The central property — an operator's semantics are identical under every
execution policy (Listing 3's overloads) — is asserted for each
operator directly.
"""

import numpy as np
import pytest

from repro.errors import ExecutionPolicyError, FrontierError, GraphFormatError
from repro.frontier import DenseFrontier, EdgeFrontier, SparseFrontier
from repro.graph import from_edge_list
from repro.operators import (
    filter_frontier,
    neighbors_expand,
    reduce_values,
    segmented_intersection_counts,
    uniquify,
)
from repro.operators.advance import expand_to_edges
from repro.operators.conditions import (
    apply_edge_condition,
    apply_vertex_predicate,
    bulk_condition,
    bulk_predicate,
    scalar_condition,
)
from repro.operators.load_balance import (
    chunk_imbalance,
    edge_balanced_chunks,
    make_chunks,
    vertex_balanced_chunks,
)
from repro.operators.reduce import argreduce
from repro.execution import par, par_vector, seq


class TestNeighborsExpand:
    def test_listing3_semantics(self, diamond_graph, policy):
        """Expand with a weight threshold matches the hand-computed set."""
        f = SparseFrontier.from_indices([0], 4)
        out = neighbors_expand(policy, diamond_graph, f, lambda s, d, e, w: w < 2.0)
        assert sorted(out.to_indices().tolist()) == [1]

    def test_all_pass_condition(self, diamond_graph, policy):
        f = SparseFrontier.from_indices([0, 1, 2], 4)
        out = neighbors_expand(
            policy, diamond_graph, f, lambda s, d, e, w: True
        )
        assert sorted(out.to_indices().tolist()) == [1, 2, 3, 3]

    def test_policy_equivalence_on_random_graph(self, small_rmat):
        f = SparseFrontier.from_indices(
            np.arange(0, small_rmat.n_vertices, 17), small_rmat.n_vertices
        )
        cond = lambda s, d, e, w: w < 5.0
        results = {}
        from repro.execution import par_nosync

        for pol in (seq, par, par_nosync, par_vector):
            out = neighbors_expand(pol, small_rmat, f, cond)
            results[pol.name] = np.sort(out.to_indices())
        base = results["seq"]
        for name, arr in results.items():
            assert np.array_equal(arr, base), f"{name} diverged from seq"

    def test_empty_frontier(self, diamond_graph, policy):
        out = neighbors_expand(
            policy, diamond_graph, SparseFrontier(4), lambda *a: True
        )
        assert out.is_empty()

    def test_dense_output(self, diamond_graph):
        f = SparseFrontier.from_indices([0, 1, 2], 4)
        out = neighbors_expand(
            par_vector,
            diamond_graph,
            f,
            lambda s, d, e, w: True,
            output_representation="dense",
        )
        assert isinstance(out, DenseFrontier)
        assert out.to_indices().tolist() == [1, 2, 3]  # bitmap dedups

    def test_queue_output(self, diamond_graph):
        f = SparseFrontier.from_indices([0], 4)
        out = neighbors_expand(
            par_vector,
            diamond_graph,
            f,
            lambda s, d, e, w: True,
            output_representation="queue",
        )
        assert sorted(out.drain().tolist()) == [1, 2]

    def test_nosync_defaults_to_queue(self, diamond_graph):
        from repro.execution import par_nosync
        from repro.frontier import AsyncQueueFrontier

        f = SparseFrontier.from_indices([0], 4)
        out = neighbors_expand(
            par_nosync, diamond_graph, f, lambda s, d, e, w: True
        )
        assert isinstance(out, AsyncQueueFrontier)

    def test_condition_receives_edge_tuple(self, diamond_graph):
        """The lambda gets the full {src, dst, edge, weight} tuple (§III-C)."""
        seen = []

        def cond(s, d, e, w):
            seen.append((s, d, e, w))
            return False

        f = SparseFrontier.from_indices([0], 4)
        neighbors_expand(seq, diamond_graph, f, cond)
        assert seen == [(0, 1, 0, 1.0), (0, 2, 1, 4.0)]

    def test_pull_direction(self, diamond_graph, policy):
        f = DenseFrontier.from_indices([1, 2], 4)
        out = neighbors_expand(
            policy, diamond_graph, f, lambda s, d, e, w: True, direction="pull"
        )
        # 3 has in-edges from active 1 and 2; 1/2's in-edges come from
        # inactive 0.
        assert sorted(set(out.to_indices().tolist())) == [3]

    def test_pull_with_candidates(self, diamond_graph):
        f = DenseFrontier.from_indices([0], 4)
        out = neighbors_expand(
            par_vector,
            diamond_graph,
            f,
            lambda s, d, e, w: True,
            direction="pull",
            candidates=np.array([1]),
        )
        assert out.to_indices().tolist() == [1]

    def test_pull_condition_filters(self, diamond_graph):
        f = DenseFrontier.from_indices([0], 4)
        out = neighbors_expand(
            par_vector,
            diamond_graph,
            f,
            lambda s, d, e, w: w > 2.0,
            direction="pull",
        )
        assert out.to_indices().tolist() == [2]  # only the weight-4 edge

    def test_bad_direction_rejected(self, diamond_graph):
        with pytest.raises(ValueError, match="direction"):
            neighbors_expand(
                seq, diamond_graph, SparseFrontier(4), lambda *a: True,
                direction="sideways",
            )

    def test_edge_frontier_input_rejected(self, diamond_graph):
        f = EdgeFrontier.from_indices([0], 4)
        with pytest.raises(FrontierError):
            neighbors_expand(seq, diamond_graph, f, lambda *a: True)

    def test_edge_balanced_par_matches(self, small_rmat):
        f = SparseFrontier.from_indices(
            np.arange(small_rmat.n_vertices), small_rmat.n_vertices
        )
        cond = lambda s, d, e, w: w < 5.0
        a = neighbors_expand(par.with_load_balance("edge"), small_rmat, f, cond)
        b = neighbors_expand(seq, small_rmat, f, cond)
        assert np.array_equal(np.sort(a.to_indices()), np.sort(b.to_indices()))


class TestExpandToEdges:
    def test_edge_ids_out(self, diamond_graph, policy):
        f = SparseFrontier.from_indices([0], 4)
        out = expand_to_edges(policy, diamond_graph, f, lambda s, d, e, w: w >= 2.0)
        assert out.to_indices().tolist() == [1]  # edge 0->2 has id 1

    def test_resolves_back(self, diamond_graph):
        f = SparseFrontier.from_indices([0, 1, 2], 4)
        out = expand_to_edges(par_vector, diamond_graph, f, lambda *a: True)
        srcs, dsts, _ = out.resolve(diamond_graph)
        assert sorted(zip(srcs.tolist(), dsts.tolist())) == [
            (0, 1), (0, 2), (1, 3), (2, 3),
        ]


class TestFilter:
    def test_scalar_predicate(self, policy):
        f = SparseFrontier.from_indices([1, 2, 3, 4], 10)
        out = filter_frontier(policy, f, lambda v: v % 2 == 0)
        assert sorted(out.to_indices().tolist()) == [2, 4]

    def test_bulk_predicate(self):
        f = SparseFrontier.from_indices([1, 2, 3, 4], 10)
        out = filter_frontier(
            par_vector, f, bulk_predicate(lambda vs: vs > 2)
        )
        assert sorted(out.to_indices().tolist()) == [3, 4]

    def test_multiplicity_preserved(self):
        f = SparseFrontier.from_indices([2, 2, 3], 10)
        out = filter_frontier(seq, f, lambda v: v == 2)
        assert out.to_indices().tolist() == [2, 2]

    def test_dense_output(self):
        f = SparseFrontier.from_indices([2, 2, 3], 10)
        out = filter_frontier(
            par_vector, f, lambda v: True, output_representation="dense"
        )
        assert isinstance(out, DenseFrontier)
        assert out.size() == 2

    def test_empty(self, policy):
        out = filter_frontier(policy, SparseFrontier(5), lambda v: True)
        assert out.is_empty()

    def test_edge_frontier_rejected(self):
        with pytest.raises(FrontierError):
            filter_frontier(seq, EdgeFrontier(5), lambda v: True)


class TestReduce:
    @pytest.mark.parametrize("op,expected", [("sum", 45.0), ("min", 0.0), ("max", 9.0)])
    def test_ops_all_policies(self, policy, op, expected):
        assert reduce_values(policy, np.arange(10.0), op=op) == expected

    def test_frontier_restriction(self):
        f = SparseFrontier.from_indices([1, 3], 10)
        assert reduce_values(seq, np.arange(10.0), frontier=f, op="sum") == 4.0

    def test_empty_returns_identity(self, policy):
        f = SparseFrontier(10)
        assert reduce_values(policy, np.arange(10.0), frontier=f, op="sum") == 0.0
        assert reduce_values(policy, np.arange(10.0), frontier=f, op="min") == np.inf

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            reduce_values(seq, np.arange(3.0), op="median")

    def test_argreduce(self):
        vals = np.array([5.0, 1.0, 3.0])
        assert argreduce(seq, vals, op="min") == (1, 1.0)
        assert argreduce(seq, vals, op="max") == (0, 5.0)

    def test_argreduce_frontier_returns_vertex_id(self):
        vals = np.array([5.0, 1.0, 3.0, 0.5])
        f = SparseFrontier.from_indices([0, 2], 4)
        assert argreduce(seq, vals, frontier=f, op="min") == (2, 3.0)

    def test_argreduce_empty_rejected(self):
        with pytest.raises(ValueError):
            argreduce(seq, np.array([]))


class TestUniquify:
    @pytest.mark.parametrize("strategy", ["sort", "bitmap", "auto"])
    def test_strategies_agree(self, strategy):
        f = SparseFrontier.from_indices([5, 1, 5, 3, 1], 10)
        out = uniquify(seq, f, strategy=strategy)
        assert out.to_indices().tolist() == [1, 3, 5]

    def test_dense_passthrough(self):
        f = DenseFrontier.from_indices([1, 2], 5)
        assert uniquify(seq, f) is f

    def test_unknown_strategy_rejected(self):
        f = SparseFrontier.from_indices([1], 5)
        with pytest.raises(ValueError):
            uniquify(seq, f, strategy="hash")

    def test_empty(self):
        assert uniquify(seq, SparseFrontier(5)).is_empty()


class TestIntersection:
    def test_triangle(self, triangle_graph, policy):
        g = triangle_graph.with_sorted_neighbors()
        counts = segmented_intersection_counts(
            policy, g, np.array([0]), np.array([1])
        )
        assert counts.tolist() == [1]  # common neighbor: 2

    def test_requires_sorted(self, triangle_graph):
        with pytest.raises(GraphFormatError, match="sorted"):
            segmented_intersection_counts(
                seq, triangle_graph, np.array([0]), np.array([1])
            )

    def test_disjoint_neighborhoods(self):
        g = from_edge_list(
            [(0, 1), (2, 3)], n_vertices=4, directed=True
        ).with_sorted_neighbors()
        counts = segmented_intersection_counts(
            seq, g, np.array([0]), np.array([2])
        )
        assert counts.tolist() == [0]

    def test_mismatched_pairs_rejected(self, triangle_graph):
        g = triangle_graph.with_sorted_neighbors()
        with pytest.raises(ValueError):
            segmented_intersection_counts(seq, g, np.array([0, 1]), np.array([0]))


class TestConditionDispatch:
    def test_bulk_marked_never_looped(self):
        calls = []

        @bulk_condition
        def cond(s, d, e, w):
            calls.append(len(np.atleast_1d(s)))
            return np.ones(len(s), dtype=bool)

        mask = apply_edge_condition(
            cond, np.arange(5), np.arange(5), np.arange(5), np.ones(5)
        )
        assert mask.all() and calls == [5]

    def test_scalar_marked_always_looped(self):
        @scalar_condition
        def cond(s, d, e, w):
            return s == 2

        mask = apply_edge_condition(
            cond, np.arange(5), np.arange(5), np.arange(5), np.ones(5)
        )
        assert mask.tolist() == [False, False, True, False, False]

    def test_probe_detects_broadcastable(self):
        mask = apply_edge_condition(
            lambda s, d, e, w: w > 0.5,
            np.arange(3),
            np.arange(3),
            np.arange(3),
            np.array([0.1, 0.9, 0.6]),
        )
        assert mask.tolist() == [False, True, True]

    def test_probe_falls_back_on_scalar_only(self):
        def cond(s, d, e, w):
            if s > 1:  # `if` on an array raises -> fallback loop
                return True
            return False

        mask = apply_edge_condition(
            cond, np.arange(3), np.arange(3), np.arange(3), np.ones(3)
        )
        assert mask.tolist() == [False, False, True]

    def test_bulk_marked_bad_shape_raises(self):
        @bulk_condition
        def cond(s, d, e, w):
            return np.ones(1, dtype=bool)

        with pytest.raises(ValueError, match="shape"):
            apply_edge_condition(
                cond, np.arange(3), np.arange(3), np.arange(3), np.ones(3)
            )

    def test_vertex_predicate_probe(self):
        mask = apply_vertex_predicate(lambda vs: vs % 2 == 0, np.arange(4))
        assert mask.tolist() == [True, False, True, False]

    def test_empty_batch(self):
        out = apply_edge_condition(
            lambda *a: True,
            np.empty(0),
            np.empty(0),
            np.empty(0),
            np.empty(0),
        )
        assert out.size == 0


class TestLoadBalance:
    def test_vertex_chunks(self):
        assert vertex_balanced_chunks(10, 2) == [(0, 5), (5, 10)]

    def test_edge_chunks_equalize_work(self):
        # One hub of degree 1000 then 999 degree-1 vertices.
        degrees = np.concatenate([[1000], np.ones(999, dtype=int)])
        chunks = edge_balanced_chunks(degrees, 4)
        imb_edge = chunk_imbalance(degrees, chunks)
        imb_vertex = chunk_imbalance(degrees, vertex_balanced_chunks(1000, 4))
        assert imb_edge < imb_vertex
        assert imb_edge < 2.1  # hub alone is ~half the work -> bounded

    def test_edge_chunks_cover_everything(self):
        degrees = np.random.default_rng(0).integers(0, 50, size=137)
        chunks = edge_balanced_chunks(degrees, 8)
        covered = sorted((s, e) for s, e in chunks)
        assert covered[0][0] == 0 and covered[-1][1] == 137
        for (s1, e1), (s2, e2) in zip(covered, covered[1:]):
            assert e1 == s2

    def test_all_zero_degrees_fall_back(self):
        chunks = edge_balanced_chunks(np.zeros(10, dtype=int), 3)
        assert chunks[0][0] == 0 and chunks[-1][1] == 10

    def test_make_chunks_dispatch(self):
        degrees = np.ones(10, dtype=int)
        assert make_chunks(degrees, 2, "vertex") == [(0, 5), (5, 10)]
        assert make_chunks(degrees, 2, "edge")
        with pytest.raises(ValueError):
            make_chunks(degrees, 2, "magic")

    def test_empty_input(self):
        assert edge_balanced_chunks(np.empty(0, dtype=int), 4) == []
        assert chunk_imbalance(np.empty(0), []) == 1.0
