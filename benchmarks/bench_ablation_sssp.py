"""Ablation — SSSP formulation choices the abstraction admits.

DESIGN.md calls out the operator/frontier design choices SSSP can make
without changing the algorithm's text: frontier dedup on/off, output
representation, the near-far step Δ (``sssp`` runs Δ = mean weight by
default, a quarter of it is a narrow near band, ``delta=inf`` is
Listing 4 verbatim), and asynchronous message passing (``sssp_async``).  Each
row is the same query on the
same graphs; the shape tests at the bottom pin the relationships the
ablation is expected to show.
"""

import math

import numpy as np
import pytest

from repro.algorithms.sssp import sssp, sssp_async
from repro.execution import par_vector


def _narrow_delta(graph):
    """A quarter of the mean edge weight: a narrow near band."""
    return float(graph.csr().values.mean()) / 4


@pytest.mark.benchmark(group="ablation-sssp-grid")
class TestGridAblation:
    def test_plain_dedup_on(self, benchmark, bench_grid):
        r = benchmark(
            sssp, bench_grid, 0, deduplicate_frontier=True, delta=math.inf
        )
        assert r.stats.converged

    # NOTE: no dedup-off arm on the grid — without between-superstep
    # dedup, duplicate frontier entries compound multiplicatively across
    # the grid's ~2·side supersteps and exhaust memory.  That blowup is
    # itself a finding (recorded in EXPERIMENTS.md); the measurable
    # dedup-off arm runs on the low-diameter R-MAT below.

    def test_dense_output(self, benchmark, bench_grid):
        r = benchmark(sssp, bench_grid, 0, output_representation="dense")
        assert r.stats.converged

    def test_narrow_delta(self, benchmark, bench_grid):
        r = benchmark(sssp, bench_grid, 0, delta=_narrow_delta(bench_grid))
        assert r.stats.converged

    def test_near_far(self, benchmark, bench_grid):
        r = benchmark(sssp, bench_grid, 0)
        assert r.stats.converged

    def test_async_messages(self, benchmark, bench_grid):
        r = benchmark(sssp_async, bench_grid, 0, timeout=600)
        assert r.distances[0] == 0.0


@pytest.mark.benchmark(group="ablation-sssp-rmat")
class TestRmatAblation:
    def test_plain_dedup_on(self, benchmark, bench_rmat_directed):
        r = benchmark(
            sssp, bench_rmat_directed, 0, deduplicate_frontier=True, delta=math.inf
        )
        assert r.stats.converged

    def test_plain_dedup_off(self, benchmark, bench_rmat_directed):
        r = benchmark(sssp, bench_rmat_directed, 0, deduplicate_frontier=False)
        assert r.stats.converged

    def test_narrow_delta(self, benchmark, bench_rmat_directed):
        r = benchmark(
            sssp, bench_rmat_directed, 0, delta=_narrow_delta(bench_rmat_directed)
        )
        assert r.stats.converged

    def test_near_far(self, benchmark, bench_rmat_directed):
        r = benchmark(sssp, bench_rmat_directed, 0)
        assert r.stats.converged


class TestAblationShapes:
    def test_all_variants_same_answer(self, bench_grid):
        base = sssp(bench_grid, 0).distances
        for dist in (
            sssp(bench_grid, 0, output_representation="dense").distances,
            sssp(bench_grid, 0, delta=_narrow_delta(bench_grid)).distances,
            sssp(bench_grid, 0, delta=math.inf).distances,
            sssp_async(bench_grid, 0, timeout=600).distances,
        ):
            assert np.allclose(base, dist, atol=1e-2)

    def test_dedup_reduces_edge_work_on_dense_graphs(self, bench_rmat_directed):
        on = sssp(
            bench_rmat_directed, 0, deduplicate_frontier=True
        ).stats.total_edges_touched
        off = sssp(
            bench_rmat_directed, 0, deduplicate_frontier=False
        ).stats.total_edges_touched
        assert on <= off

    def test_near_far_trades_supersteps_for_edges_on_grid(self, bench_grid):
        plain = sssp(bench_grid, 0, delta=math.inf).stats
        nf = sssp(bench_grid, 0).stats
        narrow = sssp(bench_grid, 0, delta=_narrow_delta(bench_grid)).stats
        # Near-far spends more supersteps to relax far fewer edges; a
        # narrower band buys no further edge savings, only supersteps.
        assert nf.total_edges_touched < plain.total_edges_touched
        assert narrow.num_iterations > nf.num_iterations > plain.num_iterations
        assert narrow.total_edges_touched <= 2 * bench_grid.n_edges
