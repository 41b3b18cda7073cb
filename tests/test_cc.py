"""Connected components by pruned hook + shortcut on the one loop.

The work bound is the point of hooking: label propagation needs a
superstep per step of the diameter (≈255 on a 128×128 grid), hooking at
most ⌈log₂ n⌉ + 2 whatever the diameter or the vertex numbering.  The
rest checks that the hook loop inherits the loop's resilience,
cancellation and tracing, and that it is refused where it has no kernel.
"""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from repro.algorithms.cc import connected_components
from repro.errors import DeadlineExceeded
from repro.graph import from_edge_array
from repro.graph.generators import grid_2d, rmat
from repro.loop.enactor import Enactor
from repro.observability.analysis import analyze_probe
from repro.observability.probe import Probe
from repro.observability.profile import profile_algorithm
from repro.resilience import CancelToken, ResiliencePolicy
from repro.verify.graph_pool import GraphPool, case_names


def _path(order: np.ndarray):
    """Undirected path visiting the vertex ids in ``order``."""
    return from_edge_array(order[:-1], order[1:], directed=False)


def _permutation_path(n: int, seed: int = 0):
    return _path(np.random.default_rng(seed).permutation(n))


def _zigzag_path(n: int):
    # 0, n-1, 1, n-2, ...: every other step jumps across the id range.
    order = np.empty(n, dtype=np.int64)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
    return _path(order)


def _bound(graph) -> int:
    return math.ceil(math.log2(graph.n_vertices)) + 2


def _hooked_arcs(graph):
    """Labels, supersteps and crossing arcs hooked per superstep."""
    probe = Probe()
    with probe:
        result = connected_components(graph)
    arcs = [
        s.attrs["arcs"]
        for s in probe.tracer.spans()
        if s.name == "operator:hook"
    ]
    return result, arcs


def test_default_cc_on_a_grid_is_log_bound():
    g = grid_2d(128, 128)
    result = connected_components(g)
    assert result.stats.num_iterations <= _bound(g)  # label prop: ~255
    assert result.n_components == 1


@pytest.mark.parametrize(
    "graph",
    [
        _permutation_path(1 << 10),
        _permutation_path(1 << 14, seed=1),
        _zigzag_path(1 << 12),
        rmat(12, 8, seed=2),
    ],
    ids=["perm-path-2^10", "perm-path-2^14", "zigzag-path", "rmat12"],
)
def test_hooking_supersteps_are_log_bound(graph):
    result, arcs = _hooked_arcs(graph)
    assert result.stats.num_iterations <= _bound(graph)
    assert len(arcs) == result.stats.num_iterations
    # Every superstep settles at least the arc its hook took.
    assert all(a > b for a, b in zip(arcs, arcs[1:]))
    want = connected_components(graph, method="label_propagation")
    assert np.array_equal(result.labels, want.labels)
    assert result.n_components == want.n_components


@pytest.mark.parametrize("policy", ["seq", "par", "par_nosync", "par_proc"])
def test_hooking_under_a_non_vector_policy_raises(policy):
    g = grid_2d(4, 4)
    with pytest.raises(ValueError, match="par_vector"):
        connected_components(g, method="hooking", policy=policy)


def test_default_method_follows_the_policy():
    g = grid_2d(16, 16)
    hooked = connected_components(g)
    propagated = connected_components(g, policy="seq")
    assert hooked.stats.num_iterations < propagated.stats.num_iterations
    assert np.array_equal(hooked.labels, propagated.labels)


class _Crash(RuntimeError):
    pass


def test_resume_after_a_mid_run_crash_is_bitwise(monkeypatch):
    g = _permutation_path(1 << 12, seed=3)
    want = connected_components(g)
    runs = []

    class CrashOnce(Enactor):
        """The real hook step, killed once right after superstep 2
        mutated the labels (so the live arcs are ahead of the
        checkpoint and must be re-derived)."""

        def run(self, frontier, step, **kwargs):
            runs.append((self, step, kwargs))
            if len(runs) > 1:
                return super().run(frontier, step, **kwargs)

            def crashing(f, state):
                out = step(f, state)
                if state.iteration == 2:
                    raise _Crash("killed mid-run")
                return out

            return super().run(frontier, crashing, **kwargs)

    module = importlib.import_module("repro.algorithms.cc")
    monkeypatch.setattr(module, "Enactor", CrashOnce)
    pol = ResiliencePolicy(checkpoint_every=1)
    with pytest.raises(_Crash):
        connected_components(g, resilience=pol)

    enactor, step, kwargs = runs[0]
    assert pol.store.latest().superstep == 2
    arrays = kwargs["state_arrays"]
    stats = enactor.resume_from_checkpoint(
        step, resilience=pol, state_arrays=arrays
    )
    assert stats.converged
    assert stats.iterations[0].iteration == 2
    assert np.array_equal(arrays["labels"], want.labels)
    assert 2 + stats.num_iterations == want.stats.num_iterations


def test_expired_deadline_stops_the_hook_loop():
    with CancelToken.after(0.0):
        with pytest.raises(DeadlineExceeded, match="superstep"):
            connected_components(grid_2d(16, 16))


def test_traced_hook_loop_is_attributed():
    report = profile_algorithm(_permutation_path(1 << 14), "cc")
    names = [s.name for s in report.probe.tracer.spans()]
    assert names.count("superstep") >= 1
    assert "operator:hook" in names and "operator:shortcut" in names
    analysis = analyze_probe(report.probe)
    assert analysis.coverage >= 0.95
    assert analysis.layers["operator"] > 0


@pytest.mark.parametrize("case", case_names())
def test_labels_identical_across_methods_and_policies(case):
    graph = GraphPool(seed=0, quick=False).graph(case)
    want = connected_components(graph).labels
    runs = [
        connected_components(graph, method="label_propagation", policy=p)
        for p in ("seq", "par", "par_nosync", "par_vector", "par_proc")
    ]
    for run in runs:
        assert np.array_equal(run.labels, want)
        assert run.n_components == len(np.unique(want))
