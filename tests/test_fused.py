"""Fused kernels, frontier-adaptive dispatch, and workspace pooling.

The contract under test: routing an eligible condition through the
single-pass fused path (or flipping traversal direction, or switching
output representation, or pooling buffers) never changes any result —
only how fast it is produced.  Equality here is exact (``array_equal``),
not approximate: the fused kernels replicate the unfused arithmetic
operation-for-operation.
"""

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.cc import connected_components
from repro.algorithms.sssp import sssp
from repro.frontier.dense import DenseFrontier
from repro.frontier.sparse import SparseFrontier
from repro.graph import from_edge_list
from repro.graph.generators import grid_2d, rmat
from repro.observability.probe import Probe
from repro.operators.advance import neighbors_expand
from repro.operators.fused import (
    choose_direction,
    choose_representation,
    claim_levels_condition,
    fused_kernel_of,
    min_relax_condition,
    segmented_sum,
)
from repro.execution.workspace import Workspace
from repro.types import INF


GRAPHS = {
    "grid": lambda: grid_2d(16, 16, weighted=True, seed=11),
    "rmat": lambda: rmat(8, 8, weighted=True, seed=12),
    "disconnected": lambda: from_edge_list(
        [(0, 1, 1.0), (1, 2, 2.0), (4, 5, 1.5), (5, 6, 0.5)],
        n_vertices=8,
        directed=False,
    ),
}


@pytest.fixture(params=list(GRAPHS), ids=list(GRAPHS))
def any_graph(request):
    return GRAPHS[request.param]()


class TestFusedEqualsUnfused:
    """par_vector (fused) must agree exactly with seq (scalar, unfused)."""

    def test_sssp_distances_identical(self, any_graph):
        fused = sssp(any_graph, 0, policy="par_vector")
        plain = sssp(any_graph, 0, policy="seq")
        assert np.array_equal(fused.distances, plain.distances)

    def test_bfs_levels_identical(self, any_graph):
        fused = bfs(any_graph, 0, policy="par_vector")
        plain = bfs(any_graph, 0, policy="seq")
        assert np.array_equal(fused.levels, plain.levels)
        # Parents may legitimately differ (any discovering parent is
        # valid) but must always be one level above the child.
        reached = fused.levels > 0
        assert np.array_equal(
            fused.levels[reached],
            fused.levels[fused.parents[reached]] + 1,
        )

    def test_cc_labels_identical(self, any_graph):
        fused = connected_components(
            any_graph, policy="par_vector", method="label_propagation"
        )
        plain = connected_components(any_graph, policy="seq")
        assert np.array_equal(fused.labels, plain.labels)
        assert fused.n_components == plain.n_components

    def test_narrow_delta_distances_identical(self, any_graph):
        delta = float(any_graph.csr().values.mean()) / 4
        fused = sssp(any_graph, 0, policy="par_vector", delta=delta)
        plain = sssp(any_graph, 0, policy="seq", delta=delta)
        assert np.array_equal(fused.distances, plain.distances)

    def test_condition_alone_is_policy_neutral(self, any_graph):
        """The factory condition without fused routing (par policy)
        matches the fused vectorized run."""
        threaded = sssp(any_graph, 0, policy="par")
        fused = sssp(any_graph, 0, policy="par_vector")
        assert np.allclose(threaded.distances, fused.distances)


class TestDirectionProperty:
    """Push-only vs pull-only vs adaptive never changes results."""

    @pytest.mark.parametrize("make_graph", list(GRAPHS.values()), ids=list(GRAPHS))
    def test_sssp_direction_invariance(self, make_graph):
        g = make_graph()
        push = sssp(g, 0, direction="push")
        pull = sssp(g, 0, direction="pull")
        auto = sssp(g, 0, direction="auto")
        assert np.array_equal(push.distances, pull.distances)
        assert np.array_equal(push.distances, auto.distances)

    @pytest.mark.parametrize("make_graph", list(GRAPHS.values()), ids=list(GRAPHS))
    def test_bfs_direction_invariance(self, make_graph):
        g = make_graph()
        push = bfs(g, 0, direction="push")
        pull = bfs(g, 0, direction="pull")
        auto = bfs(g, 0, direction="auto")
        assert np.array_equal(push.levels, pull.levels)
        assert np.array_equal(push.levels, auto.levels)

    def test_sources_randomized(self):
        g = grid_2d(12, 12, weighted=True, seed=3)
        for source in np.random.default_rng(0).integers(0, 144, size=5):
            source = int(source)
            push = sssp(g, source, direction="push")
            auto = sssp(g, source, direction="auto")
            assert np.array_equal(push.distances, auto.distances)


class TestFusedRouting:
    def test_factory_attaches_kernel(self):
        values = np.full(4, INF, dtype=np.float32)
        cond = min_relax_condition(values)
        kernel = fused_kernel_of(cond)
        assert kernel is not None and kernel.supports_pull

    def test_plain_condition_not_fused(self):
        assert fused_kernel_of(lambda s, d, e, w: True) is None

    def test_fused_output_matches_generic(self, weighted_grid):
        """One advance, fused vs generic, same output set and values."""
        n = weighted_grid.n_vertices
        frontier = SparseFrontier.from_indices([0, 1, 5], n)
        dist_a = np.full(n, INF, dtype=np.float32)
        dist_a[[0, 1, 5]] = 0.0
        dist_b = dist_a.copy()
        fused_out = neighbors_expand(
            "par_vector", weighted_grid, frontier,
            min_relax_condition(dist_a), workspace=Workspace(),
        )
        plain_out = neighbors_expand(
            "par", weighted_grid, frontier.copy(), min_relax_condition(dist_b)
        )
        assert np.array_equal(dist_a, dist_b)
        assert np.array_equal(
            np.unique(fused_out.to_indices()), np.unique(plain_out.to_indices())
        )

    def test_claim_condition_scalar_call(self):
        """Seq policy calls the claim condition with scalars."""
        levels = np.array([0, -1, -1], dtype=np.int64)
        parents = np.array([0, -1, -1], dtype=np.int32)
        cond = claim_levels_condition(levels, parents)
        assert cond(0, 1, 0, 1.0) is True
        assert levels[1] == 1 and parents[1] == 0
        assert cond(0, 1, 0, 1.0) is False  # already claimed


class TestAdaptiveHeuristics:
    def test_small_frontier_pushes(self):
        g = grid_2d(32, 32)
        f = SparseFrontier.from_indices([0], g.n_vertices)
        assert choose_direction(g, f) == "push"

    def test_huge_frontier_pulls(self):
        g = grid_2d(32, 32)
        f = SparseFrontier.from_indices(
            np.arange(g.n_vertices, dtype=np.int32), g.n_vertices
        )
        assert choose_direction(g, f) == "pull"

    def test_hysteresis(self):
        """Once pulled, stay pulled until the frontier re-narrows below
        n/beta (not merely below the push→pull threshold)."""
        g = grid_2d(32, 32)
        n = g.n_vertices
        mid = SparseFrontier.from_indices(
            np.arange(n // 4, dtype=np.int32), n
        )
        assert choose_direction(g, mid, last_direction="pull") == "pull"
        tiny = SparseFrontier.from_indices([0], n)
        assert choose_direction(g, tiny, last_direction="pull") == "push"

    def test_empty_graph_and_frontier_push(self):
        g = from_edge_list([], n_vertices=3)
        assert choose_direction(g, SparseFrontier(3)) == "push"

    def test_representation_threshold(self):
        f_sparse = SparseFrontier.from_indices([0], 1000)
        f_dense = SparseFrontier.from_indices(
            np.arange(500, dtype=np.int32), 1000
        )
        assert choose_representation(f_sparse) == "sparse"
        assert choose_representation(f_dense) == "dense"

    def test_auto_representation_advance(self, weighted_grid):
        """output_representation='auto' produces a valid frontier whose
        active set matches the fixed-representation run."""
        n = weighted_grid.n_vertices
        dist_a = np.full(n, INF, dtype=np.float32)
        dist_a[0] = 0.0
        dist_b = dist_a.copy()
        f = SparseFrontier.from_indices([0], n)
        out_auto = neighbors_expand(
            "par_vector", weighted_grid, f,
            min_relax_condition(dist_a), output_representation="auto",
        )
        out_sparse = neighbors_expand(
            "par_vector", weighted_grid, f.copy(),
            min_relax_condition(dist_b), output_representation="sparse",
        )
        assert np.array_equal(
            np.unique(out_auto.to_indices()),
            np.unique(out_sparse.to_indices()),
        )


class TestWorkspace:
    def test_reuse_hits(self):
        ws = Workspace()
        a = ws.array("x", 100, np.int64)
        b = ws.array("x", 50, np.int64)
        assert ws.hits == 1 and ws.misses == 1
        assert a.base is b.base or a.base is not None

    def test_dtype_change_reallocates(self):
        ws = Workspace()
        ws.array("x", 10, np.int64)
        ws.array("x", 10, np.float32)
        assert ws.misses == 2

    def test_geometric_growth(self):
        ws = Workspace()
        ws.array("x", 100, np.int64)
        grown = ws.array("x", 101, np.int64)
        assert grown.shape[0] == 101
        ws.array("x", 150, np.int64)  # within doubled room: a hit
        assert ws.hits == 1

    def test_cleared_is_zeroed(self):
        ws = Workspace()
        buf = ws.array("m", 8, bool)
        buf[:] = True
        assert not ws.cleared("m", 8, bool).any()

    def test_take_gathers(self):
        ws = Workspace()
        src = np.array([10.0, 20.0, 30.0], dtype=np.float32)
        out = ws.take("g", src, np.array([2, 0]))
        assert out.tolist() == [30.0, 10.0]

    def test_arange_cached(self):
        ws = Workspace()
        r1 = ws.arange(10)
        r2 = ws.arange(5)
        assert r1[:5].tolist() == r2.tolist()
        assert ws.hits == 1

    def test_nbytes_and_clear(self):
        ws = Workspace()
        ws.array("x", 64, np.int64)
        assert ws.nbytes >= 64 * 8
        ws.clear()
        assert ws.nbytes == 0

    def test_workspace_reuse_across_supersteps_safe(self):
        """Same workspace through a whole run: results identical to a
        workspace-free run (buffers never leak stale state)."""
        g = grid_2d(16, 16, weighted=True, seed=5)
        a = sssp(g, 0)  # enactor-owned workspace, fused path
        n = g.n_vertices
        dist = np.full(n, INF, dtype=np.float32)
        dist[0] = 0.0
        cond = min_relax_condition(dist)
        frontier = SparseFrontier.from_indices([0], n)
        while frontier.size():
            out = neighbors_expand("par_vector", g, frontier, cond)
            frontier = SparseFrontier.from_indices(
                np.unique(out.to_indices()), n
            )
        assert np.array_equal(a.distances, dist)


class TestSegmentedSum:
    def test_matches_add_at(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 50, size=500)
        w = rng.random(500)
        expect = np.zeros(50)
        np.add.at(expect, idx, w)
        assert np.allclose(segmented_sum(idx, w, 50), expect)

    def test_empty(self):
        out = segmented_sum(np.empty(0, np.int64), np.empty(0), 4)
        assert out.shape == (4,) and not out.any()


class TestSpanAttributes:
    def test_advance_span_carries_dispatch_attrs(self, weighted_grid):
        probe = Probe()
        with probe:
            sssp(weighted_grid, 0, direction="auto")
        spans = [
            s for s in probe.tracer.spans() if s.name == "operator:advance"
        ]
        assert spans
        for s in spans:
            assert s.attrs["direction"] in ("push", "pull")
            assert s.attrs["fused"] is True
            assert s.attrs["representation"] in ("sparse", "dense", "queue")
            assert "output_size" in s.attrs

    def test_unfused_span_says_so(self, weighted_grid):
        probe = Probe()
        with probe:
            f = SparseFrontier.from_indices([0], weighted_grid.n_vertices)
            neighbors_expand(
                "par_vector", weighted_grid, f, lambda s, d, e, w: True
            )
        (span,) = [
            s for s in probe.tracer.spans() if s.name == "operator:advance"
        ]
        assert span.attrs["fused"] is False


class TestTrustedFrontierAdd:
    def test_add_many_trusted_matches_add_many(self):
        a = SparseFrontier(100)
        b = SparseFrontier(100)
        ids = np.array([3, 7, 7, 99], dtype=np.int32)
        a.add_many(ids)
        b.add_many_trusted(ids)
        assert np.array_equal(a.to_indices(), b.to_indices())

    def test_dense_frontier_unaffected(self):
        f = DenseFrontier(10)
        f.add_many(np.array([1, 1, 2], dtype=np.int32))
        assert f.size() == 2
