"""The reference algebra: semirings, kernels, dispatch, conformance.

Three load-bearing tests live here.  The *planted-bug* test swaps the
(min, +) semiring's additive identity for a wrong one and asserts the
conformance matrix catches it through the ``advance_semiring`` oracle —
the native advance is checked against the algebra mechanically, and a
harness that cannot see a planted bug in it is a no-op.
The *semiring/enactor cross-check* proves the algebra the kernels fold
with is the same algebra the native enactor reduces with (identities
and all).  The *scipy gating* tests run every kernel under both the
scipy fast path and the forced pure-NumPy reference and demand
identical results — the path CI locks in by uninstalling scipy.
"""

import numpy as np
import pytest

from repro.execution.backend import (
    BACKENDS,
    LINALG_ALGORITHMS,
    resolve_backend,
    supports,
)
from repro.errors import FrontierError
from repro.graph import from_edge_array
from repro.graph.generators import rmat
from repro.linalg import (
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    SEMIRINGS,
    Semiring,
    force_numpy,
    resolve_semiring,
    scipy_available,
    semiring_names,
    spmspv,
    spmv,
)
from repro.observability.probe import Probe
from repro.operators.reduce import reduce_values
from repro.operators.segmented import segmented_neighbor_reduce


def small_graph():
    """A weighted digraph with a self-loop, parallel edges, an isolated
    vertex (6), and a dangling sink (5)."""
    srcs = [0, 0, 0, 1, 2, 2, 3, 4, 4]
    dsts = [1, 2, 2, 3, 3, 2, 4, 5, 5]
    wts = [1.0, 4.0, 2.5, 1.0, 0.5, 3.0, 2.0, 1.5, 2.0]
    return from_edge_array(srcs, dsts, wts, n_vertices=7)


#: Runs each test once per kernel path; the scipy case skips itself
#: when the import is genuinely unavailable (the no-scipy CI job).
@pytest.fixture(params=["numpy", "scipy"])
def kernel_path(request):
    if request.param == "scipy":
        if not scipy_available():
            pytest.skip("scipy not importable (or gated off)")
        yield "scipy"
    else:
        with force_numpy():
            yield "numpy"


# -- semirings ----------------------------------------------------------------


def test_registry_and_resolution():
    assert set(semiring_names()) == {"min_plus", "or_and", "plus_times"}
    assert resolve_semiring("min_plus") is MIN_PLUS
    assert resolve_semiring(PLUS_TIMES) is PLUS_TIMES
    with pytest.raises(KeyError):
        resolve_semiring("max_times")


def test_zeros_holds_the_additive_identity():
    assert np.all(np.isinf(MIN_PLUS.zeros(4)))
    assert OR_AND.zeros(4).dtype == bool and not OR_AND.zeros(4).any()
    assert np.all(PLUS_TIMES.zeros(4) == 0.0)


def test_semiring_identities_match_enactor_reductions():
    """⊕ identity == what the enactor's empty reduction returns.

    The kernels fill untouched outputs with ``add_identity``; the native
    enactor fills no-neighbor vertices with its op identity.  If these
    ever diverge the two backends disagree on exactly the vertices no
    edge reaches.
    """
    empty = np.empty(0)
    assert reduce_values("par_vector", empty, op="min") == MIN_PLUS.add_identity
    assert reduce_values("par_vector", empty, op="sum") == PLUS_TIMES.add_identity
    rng = np.random.default_rng(7)
    vals = rng.random(64)
    assert MIN_PLUS.add.reduce(vals) == reduce_values("par_vector", vals, op="min")
    assert np.isclose(
        PLUS_TIMES.add.reduce(vals), reduce_values("par_vector", vals, op="sum")
    )


@pytest.mark.parametrize(
    "semiring,op,transform",
    [
        (MIN_PLUS, "min", lambda vals, w: vals + w),
        (PLUS_TIMES, "sum", lambda vals, w: vals * w),
    ],
)
def test_pull_spmv_equals_segmented_neighbor_reduce(semiring, op, transform):
    """Transposed SpMV == the enactor's in-direction segmented fold."""
    graph = small_graph()
    rng = np.random.default_rng(3)
    x = rng.random(graph.n_vertices)
    with force_numpy():
        got = spmv(graph, x, semiring=semiring, transpose=True)
    want = segmented_neighbor_reduce(
        "par_vector", graph, x, op=op, direction="in", edge_transform=transform
    )
    np.testing.assert_allclose(got, want, rtol=1e-12)


# -- kernels under both paths -------------------------------------------------


def test_spmv_same_result_on_both_paths(kernel_path):
    graph = rmat(8, 8, weighted=True, seed=5)
    x = np.random.default_rng(0).random(graph.n_vertices)
    y = spmv(graph, x)
    with force_numpy():
        reference = spmv(graph, x)
    np.testing.assert_allclose(y, reference, rtol=1e-9)


def test_spmv_rejects_bad_shapes():
    graph = small_graph()
    with pytest.raises(ValueError):
        spmv(graph, np.zeros(3))
    with pytest.raises(ValueError):
        spmv(graph, np.zeros(graph.n_vertices), mask=np.zeros(2, dtype=bool))


def test_masked_spmv_touches_only_selected_rows(kernel_path):
    graph = small_graph()
    n = graph.n_vertices
    x = np.arange(n, dtype=np.float64)
    mask = np.zeros(n, dtype=bool)
    mask[[2, 3]] = True
    y = spmv(graph, x, mask=mask)
    full = spmv(graph, x)
    np.testing.assert_allclose(y[[2, 3]], full[[2, 3]])
    outside = np.setdiff1d(np.arange(n), [2, 3])
    assert np.all(y[outside] == PLUS_TIMES.add_identity)
    # Complement selects exactly the other rows.
    yc = spmv(graph, x, mask=mask, complement=True)
    np.testing.assert_allclose(yc[outside], full[outside])
    assert np.all(yc[[2, 3]] == PLUS_TIMES.add_identity)


def test_spmspv_empty_frontier_returns_identities(kernel_path):
    graph = small_graph()
    y, touched = spmspv(
        graph, np.empty(0, dtype=np.int64), np.zeros(graph.n_vertices)
    )
    assert touched.size == 0
    assert np.all(y == PLUS_TIMES.add_identity)


def test_spmspv_rejects_bad_inputs_before_any_early_return():
    """Out-of-range frontier ids, a short ``x`` and a wrong-length mask
    are rejected, also where the frontier expands no edge at all."""
    graph = from_edge_array([0, 1, 2], [1, 2, 3], None, n_vertices=5)
    x = np.zeros(5)
    with pytest.raises(FrontierError):
        spmspv(graph, [-5], x)
    with pytest.raises(ValueError, match="x must have one entry"):
        spmspv(graph, [0], np.zeros(3))
    for frontier in ([], [4]):  # empty, and zero out-degree
        with pytest.raises(ValueError, match="mask must have one entry"):
            spmspv(graph, frontier, x, mask=np.zeros(2, dtype=bool))


def test_spmspv_output_mask_drops_contributions(kernel_path):
    graph = small_graph()
    n = graph.n_vertices
    x = np.ones(n)
    visited = np.zeros(n, dtype=bool)
    visited[2] = True
    y, touched = spmspv(
        graph, np.asarray([0]), x, mask=visited, complement=True
    )
    assert 2 not in touched
    assert y[2] == PLUS_TIMES.add_identity
    # Unmasked, vertex 2 receives both parallel edges' mass (4.0 + 2.5).
    y_all, touched_all = spmspv(graph, np.asarray([0]), x)
    assert 2 in touched_all
    assert np.isclose(y_all[2], 6.5)


def test_scipy_gating_env_and_context(monkeypatch):
    if not scipy_available():
        pytest.skip("scipy not importable")
    with force_numpy():
        assert not scipy_available()
        with force_numpy():  # nesting
            assert not scipy_available()
        assert not scipy_available()
    assert scipy_available()
    monkeypatch.setenv("REPRO_NO_SCIPY", "1")
    assert not scipy_available()


# -- backend dispatch ---------------------------------------------------------


def test_resolve_backend_table():
    assert resolve_backend(None, "sssp") == "native"
    assert resolve_backend("native", "sssp") == "native"
    for traversal in ("bfs", "sssp", "cc"):
        assert resolve_backend("linalg", traversal) == "native"
        assert not supports("linalg", traversal)
    assert resolve_backend("linalg", "spgemm") == "linalg"
    assert resolve_backend("auto", "pagerank") == "linalg"
    assert resolve_backend("auto", "astar") == "native"
    assert not supports("linalg", "astar")
    assert BACKENDS == ("native", "linalg", "auto")


def test_unknown_backend_raises_through_the_entry_point():
    from repro.algorithms import sssp

    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("cuda", "sssp")
    with pytest.raises(ValueError, match="unknown backend"):
        sssp(small_graph(), 0, backend="cuda")


def test_linalg_fallback_emits_probe_event_and_counter():
    probe = Probe(trace=True)
    with probe:
        with probe.span("test"):
            assert resolve_backend("linalg", "astar") == "native"
    assert probe.metrics.counter("backend.fallbacks").value == 1
    # "auto" degrades silently: no second increment.
    with probe:
        with probe.span("test"):
            assert resolve_backend("auto", "astar") == "native"
    assert probe.metrics.counter("backend.fallbacks").value == 1


def test_every_linalg_algorithm_is_dispatchable():
    assert LINALG_ALGORITHMS == {"pagerank", "ppr", "hits", "spmv", "spgemm"}
    # The traversals have no matrix driver: "linalg" resolves native.
    for traversal in ("bfs", "sssp", "cc"):
        assert resolve_backend("linalg", traversal) == "native"


def test_linalg_traversals_run_native_and_record_one_fallback():
    from repro.algorithms import bfs, connected_components, sssp

    graph = rmat(8, 8, weighted=True, seed=11)
    runs = {
        "bfs": lambda **kw: bfs(graph, 0, **kw).levels,
        "sssp": lambda **kw: sssp(graph, 0, **kw).distances,
        "cc": lambda **kw: connected_components(graph, **kw).labels,
    }
    for name, run in runs.items():
        probe = Probe(trace=True)
        with probe:
            with probe.span("test"):
                got = run(backend="linalg")
        assert np.array_equal(got, run()), name
        fallbacks = [
            e
            for span in probe.tracer.spans()
            for e in span.events or ()
            if e.name == "backend:fallback"
        ]
        assert len(fallbacks) == 1, name
        assert fallbacks[0].attrs["algorithm"] == name
        assert probe.metrics.counter("backend.fallbacks").value == 1


# -- end-to-end equivalence through the entry points --------------------------


def test_entry_points_agree_across_backends(kernel_path):
    from repro.algorithms import pagerank
    from repro.algorithms.spmv import spmv as spmv_algo

    graph = rmat(8, 8, weighted=True, seed=11)
    np.testing.assert_allclose(
        pagerank(graph, backend="linalg").ranks,
        pagerank(graph).ranks,
        rtol=1e-6,
    )
    x = np.random.default_rng(2).random(graph.n_vertices)
    np.testing.assert_allclose(
        spmv_algo(graph, x, backend="linalg"), spmv_algo(graph, x), rtol=1e-9
    )


def test_spgemm_backends_agree(kernel_path):
    from repro.algorithms.spgemm import spgemm

    graph = rmat(6, 8, weighted=True, seed=3)
    native = spgemm(graph, graph)
    linalg = spgemm(graph, graph, backend="linalg")

    def entries(g):
        coo = g.coo()
        return {
            (int(r), int(c)): float(v)
            for r, c, v in zip(coo.rows, coo.cols, coo.vals)
            if v != 0
        }
    got, want = entries(linalg), entries(native)
    assert got.keys() == want.keys()
    for key, val in want.items():
        assert got[key] == pytest.approx(val, rel=1e-4, abs=1e-3)


# -- the planted bug ----------------------------------------------------------


def test_matrix_catches_wrong_identity_semiring(monkeypatch):
    """A (min, +) semiring with identity 0 collapses every relaxed
    distance to 0; the ``advance_semiring`` oracle must notice."""
    import repro.verify.oracles as oracles
    from repro.verify import run_matrix

    broken = Semiring(
        name="min_plus_broken",
        add=np.minimum,
        multiply=lambda x, w: x + w,
        add_identity=0.0,  # the bug: ⊕ identity of min is +inf, not 0
    )
    monkeypatch.setattr(oracles, "MIN_PLUS", broken)
    report = run_matrix(
        seed=0,
        quick=True,
        algos=["advance_semiring", "sssp", "bfs"],
        graphs=["chain32", "star16"],
    )
    assert report.cells_run > 0
    assert not report.ok, "planted wrong-identity semiring went undetected"
    assert all(m.cell.algo == "advance_semiring" for m in report.mismatches)
    assert any("--algo advance_semiring" in m.repro for m in report.mismatches)


def test_matrix_linalg_axis_is_clean_when_unbroken():
    from repro.verify import run_matrix

    report = run_matrix(seed=0, quick=True, algos=["advance_semiring"])
    assert report.ok, [m.detail for m in report.mismatches]
    assert report.cells_run > 0
    spgemm = run_matrix(seed=0, quick=True, backends=["linalg"])
    assert spgemm.ok, [m.detail for m in spgemm.mismatches]
    assert set(spgemm.per_algo) == {"spgemm"}
    assert spgemm.cells_run > 0
