"""The near/far schedule of ``sssp`` and the size-aware frontier dedup.

``sssp`` splits each superstep's emitted set at a distance threshold
(Gunrock's near-far); ``delta=math.inf`` is Listing 4 verbatim, and the
default sizes the threshold's width by each refill's work.  The
schedule may change supersteps and work, never a single bit of the
distances — under any policy, direction or output representation, and
across a checkpoint/resume taken while vertices wait in the far pile
or the width is widened.
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
from repro.graph.generators import grid_2d, rmat
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


# -- the work-sized width ----------------------------------------------------------


def test_width_constants_are_pinned():
    module = importlib.import_module("repro.algorithms.sssp")
    assert module.NEAR_WORK_EDGES == 2048
    assert (module.WIDTH_FLOOR, module.WIDTH_CAP) == (1, 8)


def _widths(graph, **kwargs):
    probe = Probe()
    with probe:
        sssp(graph, 0, **kwargs)
    return [row.width for row in analyze_probe(probe).supersteps]


def test_default_width_stays_within_floor_and_cap():
    g = grid_2d(64, 64, weighted=True, seed=1)
    delta = float(g.csr().values.mean())
    widths = _widths(g)
    assert min(widths) == delta and max(widths) == 8 * delta
    assert all(w / delta in (1, 2, 4, 8) for w in widths)
    # An explicit delta is a fixed width.
    assert set(_widths(g, delta=delta)) == {delta}


@pytest.mark.parametrize("k", [64, 128])
def test_default_width_cuts_grid_supersteps(k):
    g = grid_2d(k, k, weighted=True, seed=0)
    fixed = sssp(g, 0, delta=float(g.csr().values.mean())).stats
    sized = sssp(g, 0).stats
    assert sized.num_iterations <= 0.75 * fixed.num_iterations


def test_refill_width_rule():
    # Labels 1, 2.5 and 5 wait in the far pile; delta is 1.
    module = importlib.import_module("repro.algorithms.sssp")
    heavy = 4 * module.NEAR_WORK_EDGES + 1
    dist = np.array([1.0, 2.5, 5.0], np.float32)
    pile = [np.arange(3, dtype=VERTEX_DTYPE)]

    def refill(degrees, width):
        nf = module._NearFar(dist, 1.0, None, np.array(degrees, np.int64))
        near, _, threshold, width = nf._refill(pile, 0.5, width)
        return near.tolist(), threshold, width

    # Light: the next width doubles, up to the cap.
    assert refill([1, 1, 1], 1.0) == ([0], 2.0, 2.0)
    assert refill([1, 1, 1], 8.0) == ([0, 1, 2], 9.0, 8.0)
    # Heavy at 2 delta: re-split at delta, whose near set is light.
    assert refill([1, heavy, 1], 2.0) == ([0], 2.0, 2.0)
    # Heavy at delta: the floor holds.
    assert refill([heavy, 1, 1], 1.0) == ([0], 2.0, 1.0)


def test_default_width_keeps_the_rmat_schedule():
    # R-MAT refills are edge-heavy: one widened after a light refill is
    # re-split at delta, so only light refills (the tail) can merge and
    # the schedule stays that of delta=mean.
    g = rmat(14, 16, weighted=True, seed=0)
    delta = float(g.csr().values.mean())
    sources = np.random.default_rng(0).choice(
        np.flatnonzero(g.out_degrees()), 16, replace=False
    )
    fixed = [sssp(g, int(s), delta=delta).stats for s in sources]
    sized = [sssp(g, int(s)).stats for s in sources]
    steps = sum(r.num_iterations for r in sized) / sum(
        r.num_iterations for r in fixed
    )
    edges = sum(r.total_edges_touched for r in sized) / sum(
        r.total_edges_touched for r in fixed
    )
    assert abs(steps - 1) <= 0.03
    assert abs(edges - 1) <= 0.01


@pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
def test_invalid_explicit_delta_rejected(weighted_grid, delta):
    with pytest.raises(ValueError):
        sssp(weighted_grid, 0, delta=delta)


# -- work bound ------------------------------------------------------------------


@pytest.mark.parametrize("direction", ["push", "pull"])
@pytest.mark.parametrize(
    "k, delta",
    [(k, d) for k in (16, 24, 32) for d in ("mean/4", None, math.inf)]
    # The work-sized default on a grid wide enough to widen it to 8Δ.
    + [(64, None)],
)
def test_sssp_work_is_linear_on_weighted_grids(k, delta, direction):
    # A cost oracle: right distances are not enough.  A schedule that
    # re-expands stale or duplicate entries passes every distance check
    # while its edge visits grow exponentially in the grid side.
    g = grid_2d(k, k, weighted=True, seed=42)
    if delta == "mean/4":
        delta = float(g.csr().values.mean()) / 4
    stats = sssp(g, 0, delta=delta, direction=direction).stats
    assert stats.total_edges_touched <= 2 * g.n_edges


# -- resilience ------------------------------------------------------------------


class _Crash(RuntimeError):
    pass


def _parked(ckpt) -> np.ndarray:
    """The far pile a checkpoint implies: labels at or above its
    threshold that are still finite."""
    saved = ckpt.arrays["dist"]
    return (saved >= ckpt.context["threshold"]) & (saved < INF)


def _crash_after_first_checkpoint(monkeypatch, g, every, wanted):
    """Run the real sssp, checkpointing every ``every`` supersteps, and
    kill it mid-interval after the first checkpoint ``wanted`` accepts.

    The crash superstep comes from an uninterrupted run of the same
    schedule, so it follows the schedule instead of a hard-coded step.
    Returns the crashed run's ``(enactor, step, kwargs, policy)`` and
    the uninterrupted run's stats.
    """
    saved = []
    scout = ResiliencePolicy(checkpoint_every=every)
    monkeypatch.setattr(scout.store, "save", saved.append)
    whole = sssp(g, 0, resilience=scout).stats
    first = next(c.superstep for c in saved if wanted(c))
    runs = []

    class CrashOnce(Enactor):
        """The real sssp step, killed once between two checkpoints."""

        def run(self, frontier, step, **kwargs):
            runs.append((self, step, kwargs))
            if len(runs) > 1:
                return super().run(frontier, step, **kwargs)

            def crashing(f, state):
                if state.iteration == first + every // 2:
                    raise _Crash("killed mid-run")
                return step(f, state)

            return super().run(frontier, crashing, **kwargs)

    module = importlib.import_module("repro.algorithms.sssp")
    monkeypatch.setattr(module, "Enactor", CrashOnce)
    pol = ResiliencePolicy(checkpoint_every=every)
    with pytest.raises(_Crash):
        sssp(g, 0, resilience=pol)
    assert pol.store.latest().superstep == first
    return runs[0] + (pol,), whole


def test_resume_with_nonempty_far_pile_is_bitwise(monkeypatch):
    g = grid_2d(24, 24, weighted=True, seed=3)
    want = sssp(g, 0, delta=math.inf).distances
    (enactor, step, kwargs, pol), _ = _crash_after_first_checkpoint(
        monkeypatch, g, 7, lambda c: _parked(c).any()
    )
    ckpt = pol.store.latest()
    assert _parked(ckpt).any()  # vertices were waiting in the far pile
    arrays = kwargs["state_arrays"]
    arrays["dist"][:] = -1.0  # the snapshot, not live state, restores
    stats = enactor.resume_from_checkpoint(
        step, resilience=pol, state_arrays=arrays
    )
    assert stats.converged
    assert np.array_equal(arrays["dist"], want)


def test_resume_restores_a_widened_near_far_width(monkeypatch):
    g = grid_2d(32, 32, weighted=True, seed=3)
    delta = float(g.csr().values.mean())
    want = sssp(g, 0, delta=math.inf).distances
    (enactor, step, kwargs, pol), whole = _crash_after_first_checkpoint(
        monkeypatch, g, 5, lambda c: c.context["width"] > delta
    )
    ckpt = pol.store.latest()
    assert ckpt.context["width"] > delta
    arrays = kwargs["state_arrays"]
    arrays["dist"][:] = -1.0
    stats = enactor.resume_from_checkpoint(
        step, resilience=pol, state_arrays=arrays
    )
    assert np.array_equal(arrays["dist"], want)
    # Resumed at the saved width, the rest of the schedule is the
    # uninterrupted run's; restarting at width delta would change it.
    assert ckpt.superstep + stats.num_iterations == whole.num_iterations


# -- observability ---------------------------------------------------------------


def test_split_span_is_frontier_layer_and_timeline_shows_threshold():
    g = grid_2d(12, 12, weighted=True, seed=4)
    probe = Probe()
    with probe:
        sssp(g, 0)
    spans = probe.tracer.spans()
    assert any(s.name == "frontier:split" for s in spans)
    assert layer_of("frontier:split") == "frontier"
    splits = [
        e.attrs
        for s in spans
        if s.name == "superstep"
        for e in s.events
        if e.name == "frontier:split"
    ]
    assert {"near", "far", "threshold", "width"} <= set(splits[-1])
    thresholds = [a["threshold"] for a in splits]
    assert thresholds == sorted(thresholds) and thresholds[-1] > thresholds[0]
    report = analyze_probe(probe)
    assert all(row.threshold is not None for row in report.supersteps)
    assert all(row.width is not None for row in report.supersteps)
    assert "threshold" in report.render() and "width" in report.render()


def test_split_timeline_survives_trace_export(tmp_path):
    # Split events on the superstep must come back from a Chrome trace
    # and an event log.
    from repro.observability.analysis import analyze_file
    from repro.observability.export import write_chrome_trace, write_events_jsonl

    g = grid_2d(12, 12, weighted=True, seed=4)
    probe = Probe()
    with probe:
        sssp(g, 0)
    chrome, events = tmp_path / "t.json", tmp_path / "t.jsonl"
    write_chrome_trace(probe, str(chrome))
    write_events_jsonl(probe, str(events))

    def timeline(report):
        return [(row.threshold, row.width) for row in report.supersteps]

    live = timeline(analyze_probe(probe))
    assert all(w is not None for _, w in live)
    assert timeline(analyze_file(str(chrome))) == live
    assert timeline(analyze_file(str(events))) == live
