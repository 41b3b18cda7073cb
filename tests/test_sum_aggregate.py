"""The (+, ×) sum-aggregate kernel: one definition, every executor.

Four things are pinned here that could not be stated while the native,
linalg and worker paths were separate code:

* **bit-identity** — pagerank / hits / spmv give ``np.array_equal``
  results under ``par_vector``, ``par_proc`` (2 workers),
  ``backend="linalg"`` and the forced NumPy side of the kernel, on
  hypothesis-generated weighted digraphs with parallel edges,
  self-loops, dangling and isolated vertices, and on the empty graph;
* **the derived cache is safe to lean on** — the float64 operands are
  cached per ``Graph``; a ``DynamicGraph`` snapshot is a new ``Graph``
  with its own cache, so a mutation (weight-only included) is never
  answered from the previous epoch's operands;
* **attribution** — every caller's product opens the ``linalg:spmv``
  span, so a profiled native PageRank is explained as operator time;
* **``backend="auto"``** resolves per algorithm to what the committed
  baseline rows say is faster, and native where no matrix driver exists.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strategies import graphs

from repro.algorithms import hits, pagerank, spmv
from repro.dynamic import DynamicGraph, incremental_pagerank
from repro.execution import par_proc
from repro.execution.backend import LINALG_ALGORITHMS, resolve_backend
from repro.graph import from_edge_array
from repro.graph.generators import rmat
from repro.linalg import force_numpy, scipy_available
from repro.linalg import spmv as linalg_spmv
from repro.operators.sum_aggregate import SumAggregate, graph_aggregate
from repro.types import VERTEX_DTYPE

PROC2 = par_proc.with_workers(2)

#: Vertex counts the property tests draw from: 1 (self-loops only), a
#: count below the worker count's natural split, and a roomy one that
#: leaves isolated and dangling vertices around ≤ 60 edges.
graph_sizes = st.sampled_from([1, 2, 5, 24])


@st.composite
def weighted_digraphs(draw):
    return draw(graphs(n_vertices=draw(graph_sizes), max_edges=60))


def empty_graph():
    none = np.empty(0, dtype=VERTEX_DTYPE)
    return from_edge_array(none, none, None, n_vertices=0)


def variants(run):
    """``run(**kwargs)`` under every executor of the kernel."""
    out = {
        "par_vector": run(),
        "par_proc": run(policy=PROC2),
        "linalg": run(backend="linalg"),
    }
    with force_numpy():
        out["force_numpy"] = run()
    return out


def assert_all_equal(results, fields):
    want = results["par_vector"]
    for name, got in results.items():
        for field in fields:
            a, b = getattr(want, field), getattr(got, field)
            assert np.array_equal(a, b), f"{field}: {name} != par_vector"


# -- bit-identity ----------------------------------------------------------------------


@given(weighted_digraphs())
@settings(max_examples=30, deadline=None)
def test_pagerank_bit_identical_across_executors(graph):
    results = variants(
        lambda **kw: pagerank(graph, tolerance=0, max_iterations=12, **kw)
    )
    assert_all_equal(results, ["ranks", "iterations", "delta"])
    assert np.isclose(results["par_vector"].ranks.sum(), 1.0)


@given(weighted_digraphs())
@settings(max_examples=30, deadline=None)
def test_hits_bit_identical_across_executors(graph):
    results = variants(lambda **kw: hits(graph, max_iterations=8, **kw))
    assert_all_equal(results, ["hubs", "authorities", "iterations"])


@given(weighted_digraphs())
@settings(max_examples=30, deadline=None)
def test_spmv_bit_identical_across_executors(graph):
    n = graph.n_vertices
    x = np.random.default_rng(n).random(n)
    want = spmv(graph, x)
    assert np.array_equal(want, spmv(graph, x, policy=PROC2))
    assert np.array_equal(want, spmv(graph, x, backend="linalg"))
    assert np.array_equal(want, linalg_spmv(graph, x))
    with force_numpy():
        assert np.array_equal(want, spmv(graph, x))
    # Gather over the CSC (what a par_proc worker runs) equals scatter
    # over the CSR (what the parent runs): one source order per target.
    csc = graph.csc()
    pull = SumAggregate(csc.col_offsets, csc.row_indices, csc.values, n)
    assert np.array_equal(pull.gather(x), graph_aggregate(graph).scatter(x))
    assert np.array_equal(pull.gather(x), linalg_spmv(graph, x, transpose=True))


def test_empty_graph_under_every_executor():
    g = empty_graph()
    for result in variants(lambda **kw: pagerank(g, **kw)).values():
        assert result.ranks.shape == (0,) and result.converged
    for result in variants(lambda **kw: hits(g, **kw)).values():
        assert result.hubs.shape == (0,)
    assert spmv(g, np.empty(0)).shape == (0,)
    assert linalg_spmv(g, np.empty(0), transpose=True).shape == (0,)


def test_scipy_matrix_aliases_the_csr_arrays():
    """Zero-copy is what keeps ``setup_s`` flat: the adjacency is the
    CSR's own index array and the one cached float64 weight vector."""
    if not scipy_available():
        pytest.skip("scipy not importable (or gated off)")
    g = rmat(8, 8, weighted=True, seed=3)
    agg = graph_aggregate(g)
    mat = agg.matrix()
    assert np.shares_memory(mat.indices, g.csr().column_indices)
    assert np.shares_memory(mat.data, agg.weights)
    assert agg is graph_aggregate(g) and mat is agg.matrix()
    with force_numpy():
        assert agg.matrix() is None


# -- the derived cache across mutations ------------------------------------------------


def _fresh(graph):
    """The same edges as a newly built Graph (nothing cached on it)."""
    coo = graph.coo()
    return from_edge_array(
        coo.rows.copy(),
        coo.cols.copy(),
        coo.vals.copy(),
        n_vertices=graph.n_vertices,
    )


def test_snapshot_answers_equal_a_freshly_built_graph():
    base = rmat(8, 6, weighted=True, seed=5)
    dyn = DynamicGraph(base)
    x = np.random.default_rng(0).random(base.n_vertices)
    kwargs = dict(tolerance=0, max_iterations=15)
    before = pagerank(dyn.graph(), **kwargs)  # warms the base's cache
    spmv(dyn.graph(), x)
    coo = base.coo()
    dyn.apply(
        insert=[(0, 7, 2.5), (9, 3, 1.25), (200, 200, 4.0)],
        remove=[(int(coo.rows[0]), int(coo.cols[0]))],
    )
    snap = dyn.graph()
    assert snap is not base
    # A new Graph, so a new (empty until used) derived cache.
    assert snap._derived is not base._derived
    assert "sum_aggregate.csr" not in snap._derived
    fresh = _fresh(snap)
    got = pagerank(snap, **kwargs)
    assert np.array_equal(got.ranks, pagerank(fresh, **kwargs).ranks)
    assert not np.array_equal(got.ranks, before.ranks)
    assert np.array_equal(spmv(snap, x), spmv(fresh, x))
    assert graph_aggregate(snap) is not graph_aggregate(base)
    # The base's operands are untouched by the mutation.
    assert np.array_equal(pagerank(base, **kwargs).ranks, before.ranks)


def test_incremental_pagerank_sees_a_weight_only_update():
    base = rmat(7, 6, weighted=True, seed=9)
    dyn = DynamicGraph(base)
    prev = pagerank(dyn.graph())
    coo = base.coo()
    # Re-weight existing edges only: the structure (offsets, indices) of
    # the snapshot equals the base's, so a stale float64 weight cache is
    # the one way this could go wrong.
    pick = np.flatnonzero(coo.rows != coo.cols)[:12]
    edges = {(int(coo.rows[e]), int(coo.cols[e])) for e in pick}
    dyn.apply(
        remove=sorted(edges),
        insert=[(u, v, 50.0) for u, v in sorted(edges)],
    )
    snap = dyn.graph()
    assert snap.n_vertices == base.n_vertices
    assert float(snap.csr().values.max()) == 50.0
    warm = incremental_pagerank(dyn, prev, since_epoch=0, tolerance=1e-10)
    cold = pagerank(_fresh(snap), tolerance=1e-10)
    np.testing.assert_allclose(warm.ranks, cold.ranks, atol=1e-8)
    assert np.abs(warm.ranks - prev.ranks).max() > 1e-6


# -- attribution -----------------------------------------------------------------------


def test_profiled_native_pagerank_is_explained_as_operator_time(tmp_path, capsys):
    """``repro profile pagerank`` then ``repro explain``: the kernel span
    opened from the native driver puts the time in the operator layer
    (it used to fall through to ``loop``), and ≥ 95 % of the wall time
    is attributed to some layer."""
    from repro.cli import main

    graph, trace = str(tmp_path / "g.npz"), str(tmp_path / "trace.json")
    assert main(["generate", "rmat", graph, "--scale", "14", "--weighted"]) == 0
    spmv(rmat(4, 4, weighted=True, seed=0), np.ones(16))  # scipy import is not kernel time
    assert main(["profile", "pagerank", graph, "--trace", trace]) == 0
    capsys.readouterr()
    assert main(["explain", trace, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bottleneck_layer"] == "operator"
    assert report["layers"]["operator"] > report["layers"]["loop"]
    assert report["coverage"] >= 0.95  # unattributed < 5 %
    assert main(["explain", trace]) == 0
    text = capsys.readouterr().out
    assert "dominant layer: operator" in text and "linalg:spmv" in text


# -- backend="auto" --------------------------------------------------------------------


def test_auto_resolution_matches_the_committed_baseline_rows():
    """``auto`` → linalg where it selects the faster path by the rmat-16
    rows of the committed suite baseline (rows within the benchmark's
    own 25 % regression bound justify either answer); the traversals
    resolve native because they have no matrix driver at all."""
    path = os.path.join(
        os.path.dirname(__file__),
        "..", "benchmarks", "suite", "baseline", "HEAD.json",
    )
    with open(path, encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    native = layers["algorithms.pagerank.rmat16.par_vector_ms"]["value"]
    linalg = layers["algorithms.pagerank.rmat16.linalg_ms"]["value"]
    assert native / linalg > 1.25
    assert resolve_backend("auto", "pagerank") == "linalg"
    # The other (+, ×) members run one code path under either name.
    for algorithm in LINALG_ALGORITHMS:
        assert resolve_backend("auto", algorithm) == "linalg"
    for algorithm in ("bfs", "sssp", "cc", "astar"):
        assert algorithm not in LINALG_ALGORITHMS
        assert resolve_backend("auto", algorithm) == "native"
        assert resolve_backend("linalg", algorithm) == "native"
