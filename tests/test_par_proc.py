"""The ``par_proc`` multiprocess policy: correctness vs ``seq``, SHM
lifecycle, supervision, cancellation, and observability stitching.

These tests drive real spawned worker processes (two of them, via
``with_workers(2)``, regardless of the container's core count — the
point is the cross-process merge path, not speedup).  The pool is
process-cached, so spawn cost is paid once per session.
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

from repro.algorithms import (
    bfs,
    connected_components,
    pagerank,
    sssp,
    sssp_delta_stepping,
)
from repro.execution import par_proc, shm
from repro.execution.policy import ProcPolicy
from repro.execution.proc_pool import (
    default_proc_workers,
    get_proc_pool,
    in_worker_process,
)
from repro.execution.thread_pool import default_worker_count
from repro.graph.generators import rmat
from repro.observability.analysis import analyze_probe
from repro.observability.probe import Probe
from repro.operators.fused import fusion_override

#: Two worker processes: exercises partition ownership, the mailbox
#: merge across ranks, and rank-order concatenation.
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


def test_min_relax_push_kernel_matches_dense_relaxation(proc_graph):
    from repro.execution import proc_kernels

    g = proc_graph
    csr = g.csr()
    values = np.full(g.n_vertices, np.inf, dtype=np.float64)
    rng = np.random.default_rng(0)
    seeds = rng.choice(g.n_vertices, size=16, replace=False)
    values[seeds] = rng.random(16)
    work = np.sort(seeds.astype(np.int32))

    dsts, cand = proc_kernels.min_relax_push(
        csr.row_offsets, csr.column_indices, csr.values, values, work
    )
    # Every proposal must strictly improve on the pre-round values.
    assert np.all(cand < values[dsts])
    # And folding them must reproduce one dense relaxation round.
    expected = values.copy()
    for u in work:
        lo, hi = csr.row_offsets[u], csr.row_offsets[u + 1]
        for v, w in zip(csr.column_indices[lo:hi], csr.values[lo:hi]):
            expected[v] = min(expected[v], values[u] + w)
    folded = values.copy()
    np.minimum.at(folded, dsts, cand)
    np.testing.assert_allclose(folded, expected)


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
    weights = csc.values.astype(np.float64)
    whole = np.full(n, np.nan)
    split = np.full(n, np.nan)
    edges = proc_kernels.pagerank_range(
        csc.col_offsets, csc.row_indices, weights, share, whole, 0, n
    )
    assert edges == g.n_edges
    mid = n // 2
    for lo, hi in ((0, mid), (mid, mid), (mid, n), (0, mid)):  # one re-run
        proc_kernels.pagerank_range(
            csc.col_offsets, csc.row_indices, weights, share, split, lo, hi
        )
    assert np.array_equal(split, whole)
    assert np.array_equal(whole, graph_aggregate(g).scatter(share))


# -- end-to-end conformance against seq ------------------------------------------------


def test_bfs_matches_seq(proc_graph):
    a = bfs(proc_graph, 0, policy="seq")
    b = bfs(proc_graph, 0, policy=PROC2)
    assert np.array_equal(a.levels, b.levels)
    # Parent choice may differ from seq (the fold picks the minimum
    # proposing parent), but every parent edge must be tree-valid.
    reached = b.levels > 0
    assert np.all(b.levels[b.parents[reached]] + 1 == b.levels[reached])


def test_bfs_pull_and_auto_match_seq(proc_graph):
    for direction in ("pull", "auto"):
        a = bfs(proc_graph, 0, policy="seq", direction=direction)
        b = bfs(proc_graph, 0, policy=PROC2, direction=direction)
        assert np.array_equal(a.levels, b.levels), direction


def test_sssp_matches_seq(proc_graph):
    a = sssp(proc_graph, 0, policy="seq")
    b = sssp(proc_graph, 0, policy=PROC2)
    assert np.array_equal(a.distances, b.distances)


def test_sssp_delta_stepping_matches_seq(proc_graph):
    a = sssp_delta_stepping(proc_graph, 0, policy="seq")
    b = sssp_delta_stepping(proc_graph, 0, policy=PROC2)
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
