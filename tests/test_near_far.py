"""The near/far schedule of ``sssp`` and the size-aware frontier dedup.

``sssp`` splits each superstep's emitted set at a distance threshold
(Gunrock's near-far); ``delta=math.inf`` is Listing 4 verbatim.  The
schedule may change supersteps and work, never a single bit of the
distances — under any policy, direction or output representation, and
across a checkpoint/resume taken while vertices wait in the far pile.
``dedup_ids`` picks sort or bitmap by input size and must return the
same set either way.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import graphs_with_source

from repro.algorithms import sssp
from repro.execution.workspace import Workspace
from repro.graph import from_edge_array
from repro.graph.generators import grid_2d
from repro.loop.enactor import Enactor
from repro.observability.analysis import analyze_probe, layer_of
from repro.observability.probe import Probe
from repro.operators.fused import dedup_ids
from repro.resilience import ResiliencePolicy
from repro.types import INF, VERTEX_DTYPE
from repro.verify.oracles import STANDARD_POLICIES


# -- dedup_ids ---------------------------------------------------------------------


@given(
    n=st.integers(1, 64),
    data=st.data(),
    dtype=st.sampled_from([np.int32, np.int64]),
    pooled=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_dedup_ids_is_np_unique(n, data, dtype, pooled):
    # Up to 2n ids: both sides of the k = n/4 sort/bitmap crossover.
    ids = np.asarray(
        data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=dtype
    )
    workspace = Workspace() if pooled else None
    for _ in range(2):  # a pooled flag buffer must come back cleared
        got = dedup_ids(ids, n, workspace)
        assert got.dtype == VERTEX_DTYPE
        assert np.array_equal(got, np.unique(ids).astype(VERTEX_DTYPE))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("ids", [[], [3]], ids=["k0", "k1"])
def test_dedup_ids_tiny_inputs(ids, pooled, dtype):
    workspace = Workspace() if pooled else None
    for capacity in (1 << 10, 4 * len(ids)):  # sort side, then bitmap side
        got = dedup_ids(np.asarray(ids, dtype=dtype), capacity, workspace)
        assert got.dtype == VERTEX_DTYPE
        assert got.tolist() == ids


# -- schedule equivalence ----------------------------------------------------------


@pytest.fixture(scope="module")
def awkward_graph():
    """Random weights in [0, 9] with every 7th edge zero-weight, 40
    parallel copies at other weights, a self-loop, and a 3-cycle
    (vertices 70-72) plus isolated vertices unreachable from 0."""
    rng = np.random.default_rng(5)
    src = rng.integers(0, 70, 300)
    dst = rng.integers(0, 70, 300)
    w = rng.uniform(0.0, 9.0, 300)
    w[::7] = 0.0
    src = np.r_[src, src[:40], 3, 70, 71, 72]
    dst = np.r_[dst, dst[:40], 3, 71, 72, 70]
    w = np.r_[w, w[:40] + 1.5, 2.0, 1.0, 2.0, 3.0]
    return from_edge_array(src, dst, w, n_vertices=80)


@pytest.mark.parametrize("representation", ["sparse", "dense", "auto"])
@pytest.mark.parametrize("direction", ["push", "pull", "auto"])
@pytest.mark.parametrize("policy", STANDARD_POLICIES)
def test_near_far_equals_listing4_bitwise(
    awkward_graph, policy, direction, representation
):
    kwargs = dict(
        policy=policy, direction=direction, output_representation=representation
    )
    plain = sssp(awkward_graph, 0, delta=math.inf, **kwargs).distances
    near_far = sssp(awkward_graph, 0, **kwargs).distances
    assert np.array_equal(near_far, plain)
    assert np.array_equal(plain, sssp(awkward_graph, 0, policy="seq").distances)
    assert plain[75] == INF and plain[70] == INF


@given(graphs_with_source(min_weight=0.0), st.sampled_from([None, 0.25, 3.0]))
@settings(max_examples=60, deadline=None)
def test_any_delta_bitwise_on_random_graphs(graph_source, delta):
    graph, source = graph_source
    plain = sssp(graph, source, delta=math.inf).distances
    assert np.array_equal(sssp(graph, source, delta=delta).distances, plain)


def test_near_far_runs_more_supersteps_for_less_work():
    g = grid_2d(48, 48, weighted=True, seed=2)
    plain = sssp(g, 0, delta=math.inf).stats
    near_far = sssp(g, 0).stats
    assert near_far.num_iterations > plain.num_iterations
    assert near_far.total_edges_touched < plain.total_edges_touched


def test_zero_mean_weight_falls_back_to_listing4():
    g = from_edge_array([0, 1, 2], [1, 2, 3], [0.0, 0.0, 0.0], n_vertices=5)
    r = sssp(g, 0)
    assert r.distances.tolist()[:4] == [0.0, 0.0, 0.0, 0.0]
    assert r.distances[4] == INF
    assert r.stats.num_iterations == sssp(g, 0, delta=math.inf).stats.num_iterations


@pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
def test_invalid_explicit_delta_rejected(weighted_grid, delta):
    with pytest.raises(ValueError):
        sssp(weighted_grid, 0, delta=delta)


# -- resilience ------------------------------------------------------------------


class _Crash(RuntimeError):
    pass


def test_resume_with_nonempty_far_pile_is_bitwise(monkeypatch):
    g = grid_2d(24, 24, weighted=True, seed=3)
    want = sssp(g, 0, delta=math.inf).distances
    runs = []

    class CrashOnce(Enactor):
        """The real sssp step, killed once at superstep 24."""

        def run(self, frontier, step, **kwargs):
            runs.append((self, step, kwargs))
            if len(runs) > 1:
                return super().run(frontier, step, **kwargs)

            def crashing(f, state):
                if state.iteration == 24:
                    raise _Crash("killed mid-run")
                return step(f, state)

            return super().run(frontier, crashing, **kwargs)

    module = importlib.import_module("repro.algorithms.sssp")
    monkeypatch.setattr(module, "Enactor", CrashOnce)
    pol = ResiliencePolicy(checkpoint_every=7)
    with pytest.raises(_Crash):
        sssp(g, 0, resilience=pol)

    enactor, step, kwargs = runs[0]
    ckpt = pol.store.latest()
    assert ckpt.superstep == 21
    saved = ckpt.arrays["dist"]
    parked = (saved >= ckpt.context["threshold"]) & (saved < INF)
    assert parked.any()  # vertices were waiting in the far pile
    arrays = kwargs["state_arrays"]
    arrays["dist"][:] = -1.0  # the snapshot, not live state, restores
    stats = enactor.resume_from_checkpoint(
        step, resilience=pol, state_arrays=arrays
    )
    assert stats.converged
    assert np.array_equal(arrays["dist"], want)


# -- observability ---------------------------------------------------------------


def test_split_span_is_frontier_layer_and_timeline_shows_threshold():
    g = grid_2d(12, 12, weighted=True, seed=4)
    probe = Probe()
    with probe:
        sssp(g, 0)
    splits = [s for s in probe.tracer.spans() if s.name == "frontier:split"]
    assert splits and layer_of("frontier:split") == "frontier"
    assert {"near", "far", "threshold"} <= set(splits[-1].attrs)
    thresholds = [s.attrs["threshold"] for s in splits]
    assert thresholds == sorted(thresholds) and thresholds[-1] > thresholds[0]
    report = analyze_probe(probe)
    assert all(row.threshold is not None for row in report.supersteps)
    assert "threshold" in report.render()
