"""Oracles, always run outside the timers.

Each check returns ``(ok, what)`` for :meth:`Workload.check`.  The
references are the repo's textbook baselines with the conformance
matrix's tolerances; the one exception is PageRank at full size, where
the pure-Python baseline costs ~0.4 s per iteration per million edges.
There an independently written NumPy power iteration stands in, and the
suite's test holds that stand-in to the baseline on the smoke graph.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Edge visits (edges x iterations) above which the pure-Python PageRank
#: baseline is too slow to run inside a benchmark run.
BASELINE_PAGERANK_BUDGET = 500_000

Check = Tuple[bool, str]


def _outcome(outcome, what: str) -> Check:
    return outcome.ok, f"{what}: {outcome.detail}"


def bfs_ok(graph, source: int, levels) -> Check:
    from repro.baselines import sequential_bfs
    from repro.verify.comparators import exact_equal

    return _outcome(
        exact_equal(levels, sequential_bfs(graph, source)),
        f"bfs from {source} vs seq_bfs",
    )


def sssp_ok(graph, source: int, distances) -> Check:
    from repro.baselines import dijkstra
    from repro.verify.comparators import float_allclose

    return _outcome(
        float_allclose(
            distances, dijkstra(graph, source), atol=1e-4, rtol=1e-4
        ),
        f"sssp from {source} vs dijkstra",
    )


def numpy_pagerank(graph, iterations: int, damping: float = 0.85):
    """Weight-proportional power iteration with uniform dangling mass —
    the baseline's specification, vectorised."""
    n = graph.n_vertices
    coo = graph.coo()
    weights = coo.vals.astype(np.float64)
    out_weight = np.bincount(coo.rows, weights=weights, minlength=n)
    dangling = out_weight == 0.0
    share = weights / np.where(dangling, 1.0, out_weight)[coo.rows]
    ranks = np.full(n, 1.0 / n)
    for _ in range(iterations):
        incoming = np.bincount(
            coo.cols, weights=ranks[coo.rows] * share, minlength=n
        )
        base = (1.0 - damping) / n + damping * ranks[dangling].sum() / n
        ranks = base + damping * incoming
    return ranks


def pagerank_ok(graph, ranks, iterations: int) -> Check:
    from repro.baselines import sequential_pagerank
    from repro.verify.comparators import float_allclose

    if graph.n_edges * iterations <= BASELINE_PAGERANK_BUDGET:
        want, name = (
            sequential_pagerank(
                graph, tolerance=0.0, max_iterations=iterations
            ),
            "seq_pagerank",
        )
    else:
        want, name = numpy_pagerank(graph, iterations), "numpy reference"
    return _outcome(
        float_allclose(ranks, want, atol=1e-4, rtol=1e-3),
        f"pagerank ({iterations} iterations) vs {name}",
    )


def ranks_close(got, want, what: str) -> Check:
    from repro.verify.comparators import float_allclose

    return _outcome(float_allclose(got, want, atol=1e-4, rtol=1e-3), what)


def cc_ok(graph, labels) -> Check:
    from repro.baselines import union_find_components

    return same_partition(labels, union_find_components(graph), "cc vs seq_cc")


def same_partition(got, want, what: str) -> Check:
    from repro.verify.comparators import partition_isomorphic

    return _outcome(partition_isomorphic(got, want), what)


def spmv_ok(graph, x, y) -> Check:
    coo = graph.coo()
    want = np.bincount(
        coo.rows,
        weights=coo.vals.astype(np.float64) * x[coo.cols],
        minlength=graph.n_vertices,
    )
    return bool(np.allclose(y, want, rtol=1e-6, atol=1e-9)), "spmv vs bincount"


def service_checksum(values) -> float:
    """The service's result fingerprint (``service.queries``), restated:
    the sum of the finite values, rounded to 9 places."""
    values = np.asarray(values, dtype=np.float64)
    return round(float(values[np.isfinite(values)].sum()), 9)
