"""The ``par_proc`` multiprocess policy: correctness vs ``seq`` and
``par_vector``, SHM lifecycle, supervision, cancellation, and
observability stitching.

These tests drive real spawned worker processes (two of them, via
``with_workers(2)``, plus one and three for the property test,
regardless of the machine's core count — the point is the owner-computes
partition, not speedup).  Pools are process-cached, so spawn cost is
paid once per session.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strategies import graphs, vertex_lists

from repro.algorithms import (
    bfs,
    connected_components,
    pagerank,
    sssp,
)
from repro.execution import par_proc, shm
from repro.execution.policy import ProcPolicy
from repro.execution.proc_pool import (
    default_proc_workers,
    get_proc_pool,
    in_worker_process,
)
from repro.execution.proc_engine import column_slice, destination_slice
from repro.execution.proc_kernels import claim_range, min_relax_range
from repro.execution.thread_pool import default_worker_count
from repro.graph.generators import grid_2d, rmat
from repro.observability.analysis import analyze_probe
from repro.observability.probe import Probe
from repro.operators import fused
from repro.operators.fused import fusion_override
from repro.types import INF, VERTEX_DTYPE

#: Two worker processes: exercises range ownership and rank-order
#: concatenation of the replies.
PROC2 = par_proc.with_workers(2)


@pytest.fixture(scope="module")
def proc_graph():
    """Scale-9 weighted R-MAT — big enough for multi-superstep frontiers,
    small enough that every test stays sub-second after spawn."""
    return rmat(9, 8, weighted=True, seed=7)


# -- policy surface --------------------------------------------------------------------


def test_par_proc_policy_registered():
    from repro.execution import resolve_policy

    p = resolve_policy("par_proc")
    assert isinstance(p, ProcPolicy)
    assert p.name == "par_proc"
    assert p.with_workers(2).num_workers == 2
    assert isinstance(p.with_workers(2), ProcPolicy)


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
    assert default_proc_workers() == 3
    assert default_worker_count() == 3
    monkeypatch.delenv("REPRO_NUM_WORKERS")
    assert default_proc_workers() == max(1, os.cpu_count() or 1)


def test_not_in_worker_process():
    assert not in_worker_process()


# -- kernel equivalence (in-process, no spawn) -----------------------------------------


@st.composite
def cut_cases(draw):
    """A graph, an arbitrary cut of ``[0, n)`` into ranges (empty ones
    included), a frontier, pre-round state and a pull set."""
    n = draw(st.integers(1, 12))
    g = draw(graphs(n_vertices=n, max_edges=40, min_weight=0.0))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    bounds = [0, *cuts, n]
    frontier = np.unique(
        np.asarray(draw(vertex_lists(n, max_size=n)), dtype=VERTEX_DTYPE)
    )
    finite = st.floats(0, 20, allow_nan=False, width=32)
    values = np.asarray(
        draw(st.lists(st.one_of(finite, st.just(INF)), min_size=n, max_size=n)),
        dtype=np.float32,
    )
    levels = np.asarray(
        draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n)), dtype=np.int64
    )
    active = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    candidates = draw(st.one_of(st.none(), st.just(frontier[::-1].copy())))
    ranges = list(zip(bounds[:-1], bounds[1:]))
    return g, ranges, frontier, values, levels, active, candidates


def _concat(parts):
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


@given(cut_cases())
@settings(max_examples=80, deadline=None)
def test_any_destination_cut_reproduces_the_whole_range_kernel(case):
    """Owner computes, in process: every range runs the worker kernel
    over its own slice, and the rank-order concatenation equals the
    whole-range kernel's sorted winners and their new values bit for
    bit — min-relax and claim, push and pull."""
    g, ranges, frontier, values, levels, active, candidates = case
    n, csr, csc = g.n_vertices, g.csr(), g.csc()
    cand = np.arange(n, dtype=VERTEX_DTYPE) if candidates is None else candidates
    pushed = [destination_slice(csr, lo, hi) for lo, hi in ranges]
    pulled = [column_slice(csc, lo, hi) for lo, hi in ranges]
    mirrors = [values.copy(), levels.copy(), active.copy()]

    want = values.copy()
    winners = fused.relax_push(
        csr.row_offsets, csr.column_indices, csr.values, want, frontier
    )
    got = _concat([
        min_relax_range(
            "push", s["offsets"], s["targets"], values, lo, hi,
            weights=s["weights"], vertices=frontier,
        )
        for (lo, hi), s in zip(ranges, pushed)
    ])
    assert np.array_equal(got[0], winners)
    assert np.array_equal(got[1], want[winners])

    want = values.copy()
    winners = fused.relax_pull(
        csc.col_offsets, csc.row_indices, csc.values, want, active, cand
    )
    got = _concat([
        min_relax_range(
            "pull", s["offsets"], s["targets"], values, lo, hi,
            weights=s["weights"], vertices=candidates, active=active,
        )
        for (lo, hi), s in zip(ranges, pulled)
    ])
    assert np.array_equal(got[0], winners)
    assert np.array_equal(got[1], want[winners])

    parents = np.full(n, -1, dtype=VERTEX_DTYPE)
    winners = fused.claim_push(
        csr.row_offsets, csr.column_indices, levels, frontier, parents
    )
    got = _concat([
        claim_range(
            "push", s["offsets"], s["targets"], levels, lo, hi,
            vertices=frontier,
        )
        for (lo, hi), s in zip(ranges, pushed)
    ])
    assert np.array_equal(got[0], winners)
    assert np.array_equal(got[1], parents[winners])

    parents = np.full(n, -1, dtype=VERTEX_DTYPE)
    winners, scanned = fused.claim_pull(
        csc.col_offsets, csc.row_indices, levels, active, cand, parents
    )
    parts = [
        claim_range(
            "pull", s["offsets"], s["targets"], levels, lo, hi,
            vertices=candidates, active=active,
        )
        for (lo, hi), s in zip(ranges, pulled)
    ]
    got = _concat(parts)
    assert np.array_equal(got[0], winners)
    assert np.array_equal(got[1], parents[winners])
    # Each candidate's early exit reads the same in-edges in its slice.
    assert sum(part[2] for part in parts) == scanned
    # Workers read the pre-round mirrors and never write them.
    for mirror, now in zip(mirrors, (values, levels, active)):
        assert np.array_equal(mirror, now)


def test_pagerank_range_kernel_partitions_cleanly(proc_graph):
    """The worker kernel is the shared sum-aggregate gathered over a CSC
    slice: any partition of the ranges reproduces the in-process scatter
    over the CSR bit for bit, and re-running a range (what a respawned
    worker does) overwrites its rows with the same values."""
    from repro.execution import proc_kernels
    from repro.operators.sum_aggregate import graph_aggregate

    g = proc_graph
    csc = g.csc()
    n = g.n_vertices
    share = np.random.default_rng(1).random(n)

    def run(out, lo, hi):
        s = column_slice(csc, lo, hi)
        return proc_kernels.pagerank_range(
            s["offsets"], s["targets"], s["weights64"],
            share, out, lo, hi,
        )

    whole = np.full(n, np.nan)
    split = np.full(n, np.nan)
    assert run(whole, 0, n) == g.n_edges
    mid = n // 2
    for lo, hi in ((0, mid), (mid, mid), (mid, n), (0, mid)):  # one re-run
        run(split, lo, hi)
    assert np.array_equal(split, whole)
    assert np.array_equal(whole, graph_aggregate(g).scatter(share))


# -- end-to-end conformance against seq ------------------------------------------------


def test_bfs_matches_seq(proc_graph):
    a = bfs(proc_graph, 0, policy="seq")
    b = bfs(proc_graph, 0, policy=PROC2)
    assert np.array_equal(a.levels, b.levels)
    # A rank's slice keeps each destination's in-edges in CSR and CSC
    # order, so its parents are the in-process kernel's, exactly: the
    # last write on push supersteps, the first active in-neighbour on
    # pull ones (seq picks its own valid parents).
    assert np.array_equal(
        b.parents, bfs(proc_graph, 0, policy="par_vector").parents
    )


def test_bfs_pull_and_auto_match_seq(proc_graph):
    for direction in ("pull", "auto"):
        a = bfs(proc_graph, 0, policy="seq", direction=direction)
        b = bfs(proc_graph, 0, policy=PROC2, direction=direction)
        assert np.array_equal(a.levels, b.levels), direction


def test_sssp_matches_seq(proc_graph):
    a = sssp(proc_graph, 0, policy="seq")
    b = sssp(proc_graph, 0, policy=PROC2)
    assert np.array_equal(a.distances, b.distances)


def _narrow_delta(graph):
    """A quarter of the mean weight (``None`` on an edgeless graph)."""
    mean = float(graph.csr().values.mean()) if graph.n_edges else 0.0
    return mean / 4 if mean > 0 else None


def test_sssp_narrow_delta_matches_vector(proc_graph):
    delta = _narrow_delta(proc_graph)
    a = sssp(proc_graph, 0, delta=delta)
    b = sssp(proc_graph, 0, policy=PROC2, delta=delta)
    assert np.array_equal(a.distances, b.distances)


def test_cc_matches_seq(proc_graph):
    a = connected_components(proc_graph, policy="seq")
    b = connected_components(proc_graph, policy=PROC2)
    assert np.array_equal(a.labels, b.labels)


def test_pagerank_matches_vector(proc_graph):
    a = pagerank(proc_graph, policy="par_vector")
    b = pagerank(proc_graph, policy=PROC2)
    assert a.iterations == b.iterations
    assert np.array_equal(a.ranks, b.ranks)  # one kernel: bit-identical


@st.composite
def traversal_cases(draw):
    """Small graphs with parallel edges, self-loops, zero weights and
    sinks — ``n`` down to 1, below every worker count tried."""
    n = draw(st.sampled_from([1, 2, 3, 7, 16]))
    g = draw(graphs(n_vertices=n, max_edges=48, min_weight=0.0, max_weight=4.0))
    return g, draw(st.integers(0, n - 1))


@given(traversal_cases())
@settings(max_examples=15, deadline=None)
def test_traversals_bit_identical_to_par_vector(case):
    g, source = case
    delta = _narrow_delta(g)
    for workers in (1, 2, 3):
        proc = par_proc.with_workers(workers)
        for direction in ("push", "pull", "auto"):
            want = bfs(g, source, direction=direction)
            got = bfs(g, source, policy=proc, direction=direction)
            assert np.array_equal(got.levels, want.levels)
            assert np.array_equal(got.parents, want.parents)
            assert (
                got.stats.total_edges_touched == want.stats.total_edges_touched
            )
            assert np.array_equal(
                sssp(g, source, policy=proc, direction=direction).distances,
                sssp(g, source, direction=direction).distances,
            )
        assert np.array_equal(
            connected_components(g, policy=proc).labels,
            connected_components(g).labels,
        )
        assert np.array_equal(
            sssp(g, source, policy=proc, delta=delta).distances,
            sssp(g, source, delta=delta).distances,
        )


def test_fusion_off_degrades_to_vector_path(proc_graph):
    # No fused kernel -> proc_expand is skipped and the ProcPolicy rides
    # its VectorPolicy base class through the in-process overloads.
    with fusion_override(False):
        b = sssp(proc_graph, 0, policy=PROC2)
    a = sssp(proc_graph, 0, policy="seq")
    assert np.array_equal(a.distances, b.distances)


# -- observability stitching -----------------------------------------------------------


def test_probe_sees_rounds_bytes_and_worker_spans(proc_graph):
    probe = Probe()
    with probe:
        bfs(proc_graph, 0, policy=PROC2)
    metrics = probe.metrics.as_dict()
    assert metrics.get("proc.rounds", 0) > 0
    assert metrics.get("comm.bytes", 0) > 0
    names = {s.name for s in probe.tracer.spans()}
    assert "proc:round" in names
    assert "proc:task" in names
    workers = {
        s.attrs.get("worker")
        for s in probe.tracer.spans()
        if s.name == "proc:task"
    }
    assert workers == {0, 1}


def test_analysis_attributes_proc_to_comm_layer(proc_graph):
    probe = Probe()
    with probe:
        bfs(proc_graph, 0, policy=PROC2)
    report = analyze_probe(probe)
    assert report.layers.get("comm", 0.0) > 0.0
    # Each round's longest proc:task is kernel time; the rest of the
    # round is transfer.  The overlapped task is not counted twice.
    spans = probe.tracer.spans()
    rounds = [s for s in spans if s.name == "proc:round"]
    kernel = sum(
        max(t.duration for t in spans if t.parent_id == r.span_id)
        for r in rounds
    )
    assert report.layers["operator"] >= kernel
    assert report.layers["comm"] == pytest.approx(
        sum(r.duration for r in rounds) - kernel, abs=1e-6
    )
    assert sum(report.layers.values()) <= report.wall_seconds + 1e-6
    # proc:task spans feed the worker-load table; with two ranks the
    # imbalance factor is defined (>= 1.0 by construction).
    assert {w.worker for w in report.workers} >= {0, 1}
    assert report.imbalance_factor >= 1.0


# -- supervision, cancellation, lifecycle ----------------------------------------------


def test_worker_sigkill_is_survived(proc_graph):
    expected = bfs(proc_graph, 0, policy="seq").levels
    pool = get_proc_pool(2)
    before = pool.restarts
    os.kill(pool.worker_pids()[0], signal.SIGKILL)
    time.sleep(0.05)
    got = bfs(proc_graph, 0, policy=PROC2).levels
    assert np.array_equal(expected, got)
    assert pool.restarts == before + 1


def test_worker_sigkill_mid_pagerank_is_survived(proc_graph):
    """A worker killed while PageRank rounds are in flight: the pool
    respawns it and re-dispatches the same ``pagerank_range``; the
    range's rows are rewritten from the same mirrored ``share``, so the
    ranks still equal the in-process run bit for bit."""
    import threading

    kwargs = dict(tolerance=0, max_iterations=400)
    expected = pagerank(proc_graph, policy="par_vector", **kwargs)
    pool = get_proc_pool(2)
    pagerank(proc_graph, policy=PROC2, max_iterations=2)  # pool warm
    before = pool.restarts
    victim = pool.worker_pids()[1]
    killer = threading.Timer(0.03, os.kill, (victim, signal.SIGKILL))
    killer.start()
    try:
        got = pagerank(proc_graph, policy=PROC2, **kwargs)
    finally:
        killer.join()
    assert got.iterations == expected.iterations == 400
    assert np.array_equal(got.ranks, expected.ranks)
    assert pool.restarts == before + 1


def test_worker_sigkill_mid_sssp_is_survived():
    """A worker killed 30 ms into a few-hundred-round ``sssp``: the pool
    respawns it and re-dispatches the round, which the fresh worker
    recomputes from the same pre-round mirror — distances still equal
    the in-process run bit for bit."""
    import threading

    g = grid_2d(64, 64, weighted=True, seed=3)
    expected = sssp(g, 0, policy="par_vector")
    pool = get_proc_pool(2)
    sssp(g, 0, policy=PROC2)  # pool warm, slices placed
    before = pool.restarts
    victim = pool.worker_pids()[1]
    killer = threading.Timer(0.03, os.kill, (victim, signal.SIGKILL))
    killer.start()
    try:
        got = sssp(g, 0, policy=PROC2)
    finally:
        killer.join()
    assert got.stats.num_iterations == expected.stats.num_iterations > 100
    assert np.array_equal(got.distances, expected.distances)
    assert pool.restarts == before + 1


def test_cancellation_reaches_rounds(proc_graph):
    from repro.resilience.deadline import CancelToken

    token = CancelToken()
    token.cancel("test")
    with token:
        result = pagerank(proc_graph, policy=PROC2, max_iterations=50)
    assert result.iterations == 0
    assert not result.converged


def test_shutdown_unlinks_every_segment(proc_graph):
    from repro.execution import proc_engine

    # Ensure the engine holds placements and mirror slots right now.
    sssp(proc_graph, 0, policy=PROC2)
    assert shm.live_segment_names()
    proc_engine.shutdown()
    assert shm.live_segment_names() == []
    # The machinery must come back cleanly after a full teardown.
    a = bfs(proc_graph, 0, policy="seq")
    b = bfs(proc_graph, 0, policy=PROC2)
    assert np.array_equal(a.levels, b.levels)


def test_subprocess_exit_leaves_no_shm_and_no_tracker_noise(tmp_path):
    """A fresh interpreter that runs par_proc and exits normally must
    leave /dev/shm clean and print no resource-tracker warnings."""
    script = tmp_path / "run_par_proc.py"
    script.write_text(
        textwrap.dedent(
            """
            import numpy as np
            from repro.algorithms import bfs, sssp
            from repro.execution import par_proc, shm
            from repro.graph.generators import rmat

            def main():
                g = rmat(8, 8, weighted=True, seed=3)
                policy = par_proc.with_workers(2)
                a = bfs(g, 0, policy="seq")
                b = bfs(g, 0, policy=policy)
                assert np.array_equal(a.levels, b.levels)
                s = sssp(g, 0, policy=policy)
                assert np.array_equal(
                    s.distances, sssp(g, 0, policy="seq").distances
                )
                print("SEGMENTS", ";".join(shm.live_segment_names()))

            if __name__ == "__main__":
                main()
            """
        )
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr
    assert "Traceback" not in proc.stderr
    # The atexit sweep ran: whatever segments were live at the print are
    # named repro_shm_<pid>_* and must be gone from /dev/shm now.
    seg_line = next(
        line for line in proc.stdout.splitlines() if line.startswith("SEGMENTS")
    )
    names = [n for n in seg_line.split(" ", 1)[-1].split(";") if n]
    assert names, "the run should have had live segments before exit"
    if os.path.isdir("/dev/shm"):  # POSIX: verify the unlink actually landed
        for name in names:
            assert not os.path.exists(os.path.join("/dev/shm", name)), name
