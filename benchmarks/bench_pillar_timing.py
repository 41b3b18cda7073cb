"""Experiment P1 — Timing pillar: bulk-synchronous vs asynchronous.

§III-A: async "allows for better workload balance" at the cost of
complexity; BSP's barriers dominate when supersteps are many and narrow.
Rows: SSSP on (a) the high-diameter grid — many narrow supersteps, the
regime where barrier count hurts BSP — and (b) the low-diameter R-MAT —
few wide supersteps, where bulk vectorization is unbeatable in Python.

Shape expectations (EXPERIMENTS.md): superstep count tracks diameter
(hundreds on the grid, a handful on R-MAT); async matches BSP answers on
both; Python's GIL keeps thread-level async from *timing* wins, so the
shape claim is iteration-structure, not wall clock (substitution note).
"""

import numpy as np
import pytest

from repro.algorithms.sssp import sssp, sssp_async
from repro.execution import par_vector


@pytest.mark.benchmark(group="P1-grid-highdiameter")
class TestGridTiming:
    def test_bsp_par_vector(self, benchmark, bench_grid):
        r = benchmark(sssp, bench_grid, 0, policy=par_vector)
        assert r.stats.converged

    def test_async_queue(self, benchmark, bench_grid):
        r = benchmark(
            sssp_async, bench_grid, 0, num_workers=4, timeout=600
        )
        assert r.stats.converged

    def test_narrow_delta(self, benchmark, bench_grid):
        delta = float(bench_grid.csr().values.mean()) / 4
        r = benchmark(sssp, bench_grid, 0, delta=delta)
        assert r.stats.converged


@pytest.mark.benchmark(group="P1-rmat-lowdiameter")
class TestRmatTiming:
    def test_bsp_par_vector(self, benchmark, bench_rmat_directed):
        r = benchmark(sssp, bench_rmat_directed, 0, policy=par_vector)
        assert r.stats.converged

    def test_async_queue(self, benchmark, bench_rmat_directed):
        r = benchmark(
            sssp_async, bench_rmat_directed, 0, num_workers=4, timeout=600
        )
        assert r.stats.converged


class TestTimingShapes:
    def test_superstep_count_tracks_diameter(self, bench_grid, bench_rmat_directed):
        grid_iters = sssp(bench_grid, 0, policy=par_vector).stats.num_iterations
        rmat_iters = sssp(
            bench_rmat_directed, 0, policy=par_vector
        ).stats.num_iterations
        # Grid diameter ~ 2*side; RMAT diameter ~ log(n).
        assert grid_iters > 10 * rmat_iters

    def test_async_and_bsp_agree(self, bench_grid):
        bsp = sssp(bench_grid, 0, policy=par_vector).distances
        asy = sssp_async(bench_grid, 0, num_workers=4, timeout=600).distances
        assert np.allclose(bsp, asy, atol=1e-3)

    def test_grid_frontiers_narrow_rmat_frontiers_wide(
        self, bench_grid, bench_rmat_directed
    ):
        grid_stats = sssp(bench_grid, 0, policy=par_vector).stats
        rmat_stats = sssp(bench_rmat_directed, 0, policy=par_vector).stats
        grid_peak = max(s.frontier_size for s in grid_stats.iterations)
        rmat_peak = max(s.frontier_size for s in rmat_stats.iterations)
        # Peak active fraction: tiny on the grid, large on RMAT.
        assert grid_peak / bench_grid.n_vertices < 0.25
        assert rmat_peak / bench_rmat_directed.n_vertices > 0.25
