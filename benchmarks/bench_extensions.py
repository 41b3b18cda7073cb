"""Experiment E1 — the §V "look ahead" extensions, measured.

The paper closes by wanting "many of TLAV's design decisions under a
single framework".  These benches cover the features we implemented
beyond the paper's worked example: pull SSSP vs push, the segmented
neighborhood reduce, local (forward-push) vs global
(power-iteration) personalized PageRank, SpGEMM, batched random walks,
and LPA community detection.
"""

import numpy as np
import pytest

from repro.algorithms import (
    label_propagation_communities,
    personalized_pagerank,
    ppr_forward_push,
    random_walks,
    spgemm,
    sssp,
)
from repro.operators import segmented_neighbor_reduce
from repro.execution import par, par_vector, seq


@pytest.mark.benchmark(group="E1-sssp-direction")
class TestPushVsPullSSSP:
    def test_push_grid(self, benchmark, bench_grid):
        r = benchmark(sssp, bench_grid, 0)
        assert r.stats.converged

    def test_pull_grid(self, benchmark, bench_grid):
        bench_grid.csc()
        r = benchmark(sssp, bench_grid, 0, direction="pull")
        assert r.stats.converged

    def test_push_rmat(self, benchmark, bench_rmat):
        r = benchmark(sssp, bench_rmat, 0)
        assert r.stats.converged

    def test_pull_rmat(self, benchmark, bench_rmat):
        bench_rmat.csc()
        r = benchmark(sssp, bench_rmat, 0, direction="pull")
        assert r.stats.converged


@pytest.mark.parametrize("pol", [seq, par, par_vector], ids=lambda p: p.name)
@pytest.mark.benchmark(group="E1-segmented-reduce")
def test_segmented_reduce_policies(benchmark, bench_rmat, pol):
    vals = np.random.default_rng(0).random(bench_rmat.n_vertices)
    out = benchmark(
        segmented_neighbor_reduce, pol, bench_rmat, vals, op="sum"
    )
    assert out.shape[0] == bench_rmat.n_vertices


@pytest.mark.benchmark(group="E1-ppr")
class TestPPR:
    def test_power_iteration_global(self, benchmark, bench_ws):
        r = benchmark(personalized_pagerank, bench_ws, 0, tolerance=1e-8)
        assert r.converged

    def test_forward_push_local(self, benchmark, bench_ws):
        r = benchmark(ppr_forward_push, bench_ws, 0, epsilon=1e-6)
        assert r.converged

    def test_forward_push_coarse(self, benchmark, bench_ws):
        r = benchmark(ppr_forward_push, bench_ws, 0, epsilon=1e-3)
        assert r.converged


@pytest.mark.benchmark(group="E1-spgemm")
def test_spgemm_square(benchmark, bench_ws):
    out = benchmark(spgemm, bench_ws, bench_ws)
    assert out.n_edges > 0


@pytest.mark.benchmark(group="E1-random-walks")
@pytest.mark.parametrize("n_walks", [64, 512])
def test_random_walks(benchmark, bench_rmat, n_walks):
    starts = np.arange(n_walks) % bench_rmat.n_vertices
    r = benchmark(random_walks, bench_rmat, starts, 16, seed=1)
    assert r.n_walks == n_walks


@pytest.mark.benchmark(group="E1-community")
def test_label_propagation(benchmark, bench_ws):
    r = benchmark(label_propagation_communities, bench_ws, seed=0)
    assert r.n_communities >= 1


class TestExtensionShapes:
    def test_pull_matches_push_at_linear_work(self, bench_grid):
        """Pull gathers only from the active set, so it does the same
        near-linear edge work as push and the same distances, bit for
        bit."""
        push = sssp(bench_grid, 0)
        pull = sssp(bench_grid, 0, direction="pull")
        assert np.array_equal(push.distances, pull.distances)
        assert pull.stats.total_edges_touched <= 2 * bench_grid.n_edges

    def test_coarse_push_ppr_touches_fraction_of_graph(self, bench_ws):
        r = ppr_forward_push(bench_ws, 0, epsilon=1e-3)
        touched = int(np.count_nonzero(r.ranks))
        assert touched < bench_ws.n_vertices / 2

    def test_ppr_variants_agree_at_tight_tolerance(self, bench_ws):
        power = personalized_pagerank(bench_ws, 0, tolerance=1e-12)
        push = ppr_forward_push(bench_ws, 0, epsilon=1e-10)
        assert np.allclose(power.ranks, push.ranks, atol=1e-6)

    def test_community_quality_positive(self, bench_ws):
        from repro.algorithms import modularity

        r = label_propagation_communities(bench_ws, seed=0)
        assert modularity(bench_ws, r.labels) > 0.2


@pytest.mark.benchmark(group="E1-cohesion")
class TestCohesion:
    def test_mis(self, benchmark, bench_ws):
        from repro.algorithms import maximal_independent_set

        r = benchmark(maximal_independent_set, bench_ws, seed=0)
        assert r.size > 0

    def test_ktruss(self, benchmark, bench_ws):
        from repro.algorithms import ktruss_decomposition

        r = benchmark(ktruss_decomposition, bench_ws)
        assert r.max_truss >= 2


@pytest.mark.benchmark(group="E1-schedulers")
class TestSchedulerComparison:
    """The shared-queue async engine on an SSSP task body."""

    @staticmethod
    def _run_with(scheduler_cls, graph, **kwargs):
        import numpy as np

        from repro.execution.atomics import AtomicArray
        from repro.types import INF, VALUE_DTYPE

        n = graph.n_vertices
        dist = np.full(n, INF, dtype=VALUE_DTYPE)
        dist[0] = 0.0
        atomic = AtomicArray(dist)
        csr = graph.csr()

        def process(v, push):
            base = atomic.load(v)
            nbrs = csr.get_neighbors(v)
            wts = csr.get_neighbor_weights(v)
            for k in range(nbrs.shape[0]):
                u = int(nbrs[k])
                nd = base + float(wts[k])
                if nd < atomic.min_at(u, nd):
                    push(u)

        scheduler_cls(4, **kwargs).run(process, [0], n, timeout=600)
        return dist

    def test_shared_queue_sssp(self, benchmark, bench_rmat):
        from repro.execution import AsyncScheduler

        dist = benchmark(self._run_with, AsyncScheduler, bench_rmat)
        assert dist[0] == 0.0
