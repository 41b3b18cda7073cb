"""Experiment L4 — Listing 4: complete SSSP vs textbook baselines.

Rows: the packaged SSSP (near-far schedule), Listing 4 verbatim
(``delta=inf``), Dijkstra and Bellman–Ford, on both the scale-free and
the road-like workloads.  Shape expectations (EXPERIMENTS.md):
par_vector within a small factor of Dijkstra; Listing 4's superstep
count ~ graph diameter; near-far relaxes far fewer edges than Listing 4
on the grid, in more supersteps.
"""

import math

import numpy as np
import pytest

from repro.algorithms.sssp import sssp
from repro.baselines import bellman_ford, dijkstra
from repro.execution import par_vector, seq


@pytest.mark.benchmark(group="L4-sssp-rmat")
class TestSSSPRmat:
    def test_framework_par_vector(self, benchmark, bench_rmat_directed):
        r = benchmark(sssp, bench_rmat_directed, 0, policy=par_vector)
        assert r.stats.converged

    def test_framework_listing4(self, benchmark, bench_rmat_directed):
        r = benchmark(sssp, bench_rmat_directed, 0, delta=math.inf)
        assert r.stats.converged

    def test_baseline_dijkstra(self, benchmark, bench_rmat_directed):
        d = benchmark(dijkstra, bench_rmat_directed, 0)
        assert d[0] == 0.0

    def test_baseline_bellman_ford(self, benchmark, bench_rmat_directed):
        d = benchmark(bellman_ford, bench_rmat_directed, 0)
        assert d[0] == 0.0


@pytest.mark.benchmark(group="L4-sssp-grid")
class TestSSSPGrid:
    def test_framework_par_vector(self, benchmark, bench_grid):
        r = benchmark(sssp, bench_grid, 0, policy=par_vector)
        assert r.stats.converged

    def test_framework_listing4(self, benchmark, bench_grid):
        r = benchmark(sssp, bench_grid, 0, delta=math.inf)
        assert r.stats.converged

    def test_baseline_dijkstra(self, benchmark, bench_grid):
        d = benchmark(dijkstra, bench_grid, 0)
        assert d[0] == 0.0


def test_shape_all_variants_agree(bench_grid):
    ref = dijkstra(bench_grid, 0)
    for dist in (
        sssp(bench_grid, 0, policy=par_vector).distances,
        sssp(bench_grid, 0, delta=math.inf).distances,
        bellman_ford(bench_grid, 0),
    ):
        assert np.allclose(dist, ref, atol=1e-2)


def test_shape_near_far_relaxes_fewer_edges_than_listing4_on_grid(bench_grid):
    plain = sssp(bench_grid, 0, delta=math.inf).stats
    nf = sssp(bench_grid, 0, policy=par_vector).stats
    assert nf.total_edges_touched < plain.total_edges_touched
    assert nf.num_iterations > plain.num_iterations
