"""The seven workloads.  Names are stable; later issues cite them.

Every workload follows one lifecycle, driven by ``run.py``:

``plan()``      untimed — the benchmark makes its inputs from the seed
                (the op list: sources, vectors, key streams, mutation
                batches) and, for a served graph, a reference copy;
``setup()``     timed — what a user of the program pays before the first
                op: generate the graph, spawn the pool / start the
                server, one warm-up op per distinct call;
``run_pass()``  timed — a closed loop over the op list;
``verify()``    untimed — oracles on sampled ops, exact-count rows;
``teardown()``  stops everything ``setup`` started.

Library workloads call the public entry points with default arguments
(what a user and the service get) unless the workload exists to measure
an executor.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import oracles
from harness import (
    Budget,
    PassResult,
    SpanLog,
    SuiteError,
    child_env,
    closed_loop,
    peak_rss_mb,
    workers,
)

#: Generator seed of every graph.  The graphs are the suite's fixed
#: dataset (the catalog's default seed, i.e. ``--graph g=rmat:16:edge_factor=16``
#: as the service workloads are specified); ``--seed`` draws what is done
#: *to* them: sources, vectors, key streams, mutation batches.  README.md
#: records the measurement that decided this.
GRAPH_SEED = 0

#: How many traced ops get their probe spans analysed for the layer
#: split; the rest only run traced so the overhead is measured on the
#: full pass.
ANALYZE_OPS = 6


def _rmat(scale: int, smoke: bool):
    """The weighted R-MAT dataset at ``scale`` (scale 10 under --smoke)."""
    from repro import generators

    return generators.rmat(
        10 if smoke else scale, 16, weighted=True, seed=GRAPH_SEED
    )


def _hub(graph) -> int:
    """The highest out-degree vertex: a warm-up source that is never
    trivially empty."""
    return int(np.argmax(graph.out_degrees()))


def _hub_scc(graph) -> np.ndarray:
    """Vertices of the hub's strongly connected component.

    Sources drawn from one SCC all reach the same vertex set, so every
    op of a workload does the same amount of traversal work and per-op
    latency is unimodal.
    """
    import repro

    hub = _hub(graph)
    forward = repro.bfs(graph, hub).levels >= 0
    backward = repro.bfs(graph.reverse(), hub).levels >= 0
    return np.flatnonzero(forward & backward)


def _digest(*arrays: np.ndarray) -> Tuple[float, ...]:
    """A cheap fingerprint of an op's outputs, used to hold every
    repetition of an op to the answer the oracle checked."""
    out = []
    for a in arrays:
        a = np.asarray(a)
        if a.dtype.kind == "f":
            a = a[np.isfinite(a)]
        out.append(float(a.sum(dtype=np.float64)))
    return tuple(out)


class LayerSplit:
    """Accumulates ``analyze_probe`` layer self-times over traced ops."""

    def __init__(self) -> None:
        self.layers: Dict[str, float] = {}
        self.wall = 0.0
        #: Driver-thread time no span covers; the engine books it under
        #: ``loop`` by convention, so it is reported separately too.
        self.untraced = 0.0
        self.ops = 0

    def add_op(self, nodes) -> None:
        """Fold in the spans of one op (or one served query)."""
        from repro.observability.analysis import analyze_spans

        report = analyze_spans(nodes)
        for layer, seconds in report.layers.items():
            self.layers[layer] = self.layers.get(layer, 0.0) + seconds
        self.wall += report.wall_seconds
        self.untraced += report.untraced_seconds
        self.ops += 1


class Workload:
    """Base lifecycle; see the module docstring."""

    name = ""
    why = ""
    #: Ops per pass when no ``--seconds`` is given (constants of the
    #: suite, never tuned per commit) and under ``--smoke``.
    ops_per_pass = 0
    smoke_ops = 0

    def __init__(
        self, seed: int, *, smoke: bool, tmp_dir: str, spans: SpanLog
    ) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tmp_dir = tmp_dir
        self.spans = spans
        self.split = LayerSplit()
        self.oracle_failures = 0
        self.oracle_checks = 0
        #: Exact-count rows (identical between two sets of one seed) and
        #: layer rows measured as a by-product; ``verify`` fills both.
        self.counts: Dict[str, Any] = {}
        self.rows: Dict[str, Dict[str, Any]] = {}

    # -- lifecycle ---------------------------------------------------------------------

    def plan(self) -> None:
        raise NotImplementedError

    def setup(self, observe: bool = False) -> None:
        raise NotImplementedError

    def run_pass(self, budget: Budget, traced: bool = False) -> PassResult:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    # -- reporting ---------------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        """Peak RSS (``VmHWM``) of the process doing the work.  Read
        right after the passes, before the oracles allocate."""
        return peak_rss_mb(os.getpid())

    def timings_valid(self) -> Optional[str]:
        """``None``, or the reason this machine cannot time the workload."""
        return None

    def check(self, ok: bool, what: str) -> None:
        """Record one oracle comparison."""
        self.oracle_checks += 1
        self.guard(ok, what)

    def guard(self, ok: bool, what: str) -> None:
        """Count a failure without counting an oracle sample."""
        if not ok:
            self.oracle_failures += 1
            print(f"  ORACLE MISMATCH: {what}", file=sys.stderr)


class LibraryWorkload(Workload):
    """In-process calls into ``repro``; one op = a fixed list of calls."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.graph = None
        self._digests: Dict[int, Tuple[float, ...]] = {}
        self._probe = None
        self._next_op = 0

    def op(self, i: int) -> Tuple[float, ...]:
        """Run op ``i`` and return the digest of its outputs."""
        raise NotImplementedError

    def between(self, i: int) -> None:
        """Untimed work after op ``i`` (inline oracles, next inputs)."""

    def op_key(self, i: int) -> Optional[int]:
        """Ops with equal keys have equal inputs, so equal outputs;
        ``None`` for an op whose inputs never recur."""
        return None

    def _timed(self, i: int) -> None:
        self.spans.op = i
        self._last_digest = self.op(i)

    def _traced(self, i: int) -> None:
        from repro.observability.probe import Probe

        self._probe = Probe(trace=True)
        with self._probe:
            self._timed(i)

    def _after(self, i: int) -> None:
        key = self.op_key(i)
        if key is not None:
            first = self._digests.setdefault(key, self._last_digest)
            self.guard(
                first == self._last_digest,
                f"{self.name}: op {i} answered {self._last_digest}, an "
                f"earlier op with the same inputs answered {first}",
            )
        if self._probe is not None:
            if self.split.ops < ANALYZE_OPS:
                from repro.observability.analysis import nodes_from_probe

                self.split.add_op(nodes_from_probe(self._probe))
            self._probe = None
        self.between(i)

    def run_pass(self, budget: Budget, traced: bool = False) -> PassResult:
        first = self._next_op
        result = closed_loop(
            self._traced if traced else self._timed,
            budget,
            first_index=first,
            between=self._after,
        )
        self._next_op = first + len(result.op_ms)
        return result


# -- traversal -------------------------------------------------------------------------


class Traverse(LibraryWorkload):
    """``bfs(g, s)`` + ``sssp(g, s)`` for one seeded source."""

    n_sources = 64
    oracle_sources = 2

    def make_graph(self):
        raise NotImplementedError

    def pick_sources(self, graph, rng) -> np.ndarray:
        raise NotImplementedError

    def plan(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.sources = [int(s) for s in self.pick_sources(self.make_graph(), rng)]

    def setup(self, observe: bool = False) -> None:
        import repro

        self.graph = self.make_graph()
        hub = _hub(self.graph)
        repro.bfs(self.graph, hub)
        repro.sssp(self.graph, hub)

    def op_key(self, i: int) -> int:
        return i % len(self.sources)

    def op(self, i: int) -> Tuple[float, ...]:
        import repro

        s = self.sources[i % len(self.sources)]
        with self.spans.span("algorithms.bfs"):
            b = repro.bfs(self.graph, s)
        with self.spans.span("algorithms.sssp"):
            d = repro.sssp(self.graph, s)
        return _digest(b.levels, d.distances)

    def verify(self) -> None:
        import repro

        supersteps, updated, relaxed = [], 0, 0
        for k, s in enumerate(self.sources[: self.oracle_sources]):
            b = repro.bfs(self.graph, s)
            d = repro.sssp(self.graph, s)
            digest = _digest(b.levels, d.distances)
            self.guard(
                digest == self._digests.setdefault(k, digest),
                f"{self.name}: source {s} re-run differs from the timed op",
            )
            self.check(*oracles.bfs_ok(self.graph, s, b.levels))
            self.check(*oracles.sssp_ok(self.graph, s, d.distances))
            supersteps.append(
                b.stats.num_iterations + d.stats.num_iterations
            )
            # Every vertex of a non-initial frontier was updated by the
            # superstep before; every edge out of a frontier was relaxed.
            updated += sum(
                it.frontier_size for it in d.stats.iterations[1:]
            )
            relaxed += d.stats.total_edges_touched
        self.counts = {
            "loop.supersteps": supersteps,
            "operators.useful_ratio": {
                "vertices_updated": updated,
                "edges_relaxed": relaxed,
                "value": updated / relaxed if relaxed else None,
            },
        }


class TraverseRmat16(Traverse):
    name = "traverse-rmat16"
    why = (
        "low diameter, ~7 supersteps with large skewed frontiers: fused "
        "advance kernels and frontier do the work, loop almost none"
    )
    ops_per_pass = 100
    smoke_ops = 8

    def make_graph(self):
        return _rmat(16, self.smoke)

    def pick_sources(self, graph, rng) -> np.ndarray:
        scc = _hub_scc(graph)
        return rng.choice(scc, size=min(self.n_sources, scc.size), replace=False)


class TraverseGrid512(Traverse):
    name = "traverse-grid512"
    why = (
        "~1000 supersteps with tiny frontiers: per-superstep cost in loop "
        "and frontier dominates; the bypass workload for kernel changes"
    )
    ops_per_pass = 10
    smoke_ops = 3
    n_sources = 8
    oracle_sources = 1

    def side(self) -> int:
        return 64 if self.smoke else 512

    def make_graph(self):
        from repro import generators

        side = self.side()
        return generators.grid_2d(side, side, weighted=True, seed=GRAPH_SEED)

    def pick_sources(self, graph, rng) -> np.ndarray:
        # Sources come from the four corner blocks: the superstep count
        # of a grid traversal is the source's eccentricity, which is 2x
        # larger from a corner than from the centre.  One eccentricity
        # class keeps per-op latency unimodal across sources and seeds.
        side = self.side()
        block = max(2, side // 16)
        edge = np.r_[0:block, side - block : side]
        ids = (edge[:, None] * side + edge[None, :]).ravel()
        return rng.choice(ids, size=self.n_sources, replace=False)


# -- bulk ------------------------------------------------------------------------------


class BulkRmat16(LibraryWorkload):
    name = "bulk-rmat16"
    why = (
        "every vertex active every round: sum-aggregate / SpMV kernels "
        "dominate, frontiers are irrelevant; must not move with traverse-*"
    )
    ops_per_pass = 16
    smoke_ops = 3
    n_spmv = 8
    pagerank_iterations = 20

    def make_graph(self):
        return _rmat(16, self.smoke)

    def plan(self) -> None:
        n = (1 << 10) if self.smoke else (1 << 16)
        rng = np.random.default_rng([self.seed, 2])
        self.vectors = [rng.random(n) for _ in range(self.n_spmv)]

    def setup(self, observe: bool = False) -> None:
        self.graph = self.make_graph()
        self._calls()

    def _calls(self):
        import repro

        with self.spans.span("algorithms.pagerank"):
            pr = repro.pagerank(
                self.graph,
                tolerance=0,
                max_iterations=self.pagerank_iterations,
            )
        with self.spans.span("algorithms.cc"):
            cc = repro.connected_components(self.graph)
        ys = []
        for x in self.vectors:
            with self.spans.span("algorithms.spmv"):
                ys.append(repro.spmv(self.graph, x))
        return pr, cc, ys

    def op_key(self, i: int) -> int:
        return 0

    def op(self, i: int) -> Tuple[float, ...]:
        pr, cc, ys = self._calls()
        return _digest(pr.ranks, cc.labels, *ys)

    def verify(self) -> None:
        pr, cc, ys = self._calls()
        digest = _digest(pr.ranks, cc.labels, *ys)
        self.guard(
            digest == self._digests.setdefault(0, digest),
            f"{self.name}: re-run differs from the timed op",
        )
        self.check(
            *oracles.pagerank_ok(
                self.graph, pr.ranks, self.pagerank_iterations
            )
        )
        self.check(*oracles.cc_ok(self.graph, cc.labels))
        for x, y in zip(self.vectors, ys):
            self.check(*oracles.spmv_ok(self.graph, x, y))
        self.counts = {
            "loop.supersteps": [pr.iterations + cc.stats.num_iterations]
        }


# -- multiprocess executor -------------------------------------------------------------


class ProcRmat17(LibraryWorkload):
    name = "proc-rmat17"
    why = (
        "policy=par_proc with 2 workers: the only workload where "
        "proc_pool / proc_engine / shm and IPC do the work"
    )
    ops_per_pass = 5
    smoke_ops = 2
    n_sources = 8
    oracle_sources = 2
    pagerank_iterations = 20

    def make_graph(self):
        return _rmat(17, self.smoke)

    def plan(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        scc = _hub_scc(self.make_graph())
        self.sources = [
            int(s)
            for s in rng.choice(
                scc, size=min(self.n_sources, scc.size), replace=False
            )
        ]

    def timings_valid(self) -> Optional[str]:
        # Two workers time-sliced on one core measure the scheduler.
        if len(os.sched_getaffinity(0)) < workers():
            return "cores<workers"
        return None

    def _calls(self, s: int, policy: str):
        import repro

        with self.spans.span(f"algorithms.bfs.{policy}"):
            b = repro.bfs(self.graph, s, policy=policy)
        with self.spans.span(f"algorithms.sssp.{policy}"):
            d = repro.sssp(self.graph, s, policy=policy)
        with self.spans.span(f"algorithms.pagerank.{policy}"):
            pr = repro.pagerank(
                self.graph,
                tolerance=0,
                max_iterations=self.pagerank_iterations,
                policy=policy,
            )
        return b, d, pr

    def setup(self, observe: bool = False) -> None:
        self.graph = self.make_graph()
        # The first par_proc call spawns the pool and places the graph
        # in shared memory: both land in setup_s, as a user pays them.
        self._calls(_hub(self.graph), "par_proc")

    def teardown(self) -> None:
        from repro.execution import proc_engine

        proc_engine.shutdown()
        self.graph = None

    def peak_rss_mb(self) -> float:
        # Parent (merges) plus workers (kernels); shared-memory pages
        # count once per process that touched them.
        from repro.execution.proc_pool import get_proc_pool

        return peak_rss_mb(os.getpid()) + sum(
            peak_rss_mb(pid) for pid in get_proc_pool(workers()).worker_pids()
        )

    def op_key(self, i: int) -> int:
        return i % len(self.sources)

    def op(self, i: int) -> Tuple[float, ...]:
        b, d, pr = self._calls(self.sources[i % len(self.sources)], "par_proc")
        return _digest(b.levels, d.distances, pr.ranks)

    def verify(self) -> None:
        proc_ms, vector_ms = [], []
        supersteps = []
        for k, s in enumerate(self.sources[: self.oracle_sources]):
            t0 = time.perf_counter()
            b, d, pr = self._calls(s, "par_proc")
            t1 = time.perf_counter()
            vb, vd, vpr = self._calls(s, "par_vector")
            t2 = time.perf_counter()
            proc_ms.append((t1 - t0) * 1e3)
            vector_ms.append((t2 - t1) * 1e3)
            digest = _digest(b.levels, d.distances, pr.ranks)
            self.guard(
                digest == self._digests.setdefault(k, digest),
                f"{self.name}: source {s} re-run differs from the timed op",
            )
            self.check(
                np.array_equal(b.levels, vb.levels)
                and np.array_equal(d.distances, vd.distances)
                and np.array_equal(pr.ranks, vpr.ranks),
                f"{self.name}: par_proc is not bit-identical to par_vector "
                f"from source {s}",
            )
            self.check(*oracles.bfs_ok(self.graph, s, b.levels))
            supersteps.append(
                b.stats.num_iterations
                + d.stats.num_iterations
                + pr.iterations
            )
        self.counts = {"loop.supersteps": supersteps}
        valid = self.timings_valid() is None
        self.rows = {
            "execution.proc_speedup": {
                "value": (
                    statistics.median(vector_ms) / statistics.median(proc_ms)
                    if valid
                    else None
                ),
                "unit": "x",
                "base": "par_vector p50 / par_proc p50 on the same ops",
                "cores": len(os.sched_getaffinity(0)),
                "workers": workers(),
                "samples": len(proc_ms),
                **({} if valid else {"reason": self.timings_valid()}),
            }
        }


# -- dynamic ---------------------------------------------------------------------------


class DynamicRmat16(LibraryWorkload):
    name = "dynamic-rmat16"
    why = (
        "1% churn batch, snapshot, four incremental repairs: the graph "
        "layer's write path (overlay, merged-CSR rebuild) beside reads"
    )
    ops_per_pass = 20
    smoke_ops = 5
    churn = 0.01
    check_every = 5

    def make_graph(self):
        return _rmat(16, self.smoke)

    def plan(self) -> None:
        ref = self.make_graph()
        coo = ref.coo()
        n = ref.n_vertices
        self.n = n
        self.rows_ = coo.rows.astype(np.int64)
        self.cols_ = coo.cols.astype(np.int64)
        #: Base edges in seeded order; batch k removes the k-th slice, so
        #: a removal always names a live edge whatever came before.
        self.order = np.random.default_rng([self.seed, 4]).permutation(
            ref.n_edges
        )
        self.half = max(1, int(ref.n_edges * self.churn) // 2)
        self.source = _hub(ref)

    def rewind(self) -> None:
        """Start the batch stream over: every set-up replays the same one."""
        self._cursor = 0
        self.taken = np.sort(self.rows_ * self.n + self.cols_)
        self.rng = np.random.default_rng([self.seed, 4, 1])

    def next_batch(self):
        """One 1% churn batch: half removals of live base edges, half
        inserts of pairs that never existed."""
        m = self.half
        if self._cursor + m > self.order.shape[0]:
            raise SuiteError(f"{self.name}: ran out of base edges to remove")
        idx = self.order[self._cursor : self._cursor + m]
        self._cursor += m
        remove = list(zip(self.rows_[idx].tolist(), self.cols_[idx].tolist()))
        src = self.rng.integers(0, self.n, 2 * m)
        dst = self.rng.integers(0, self.n, 2 * m)
        keys = src * self.n + dst
        fresh = (src != dst) & ~np.isin(keys, self.taken)
        _, first = np.unique(keys[fresh], return_index=True)
        pick = np.flatnonzero(fresh)[np.sort(first)][:m]
        self.taken = np.sort(np.concatenate([self.taken, keys[pick]]))
        weights = self.rng.uniform(1.0, 10.0, pick.shape[0])
        insert = list(
            zip(src[pick].tolist(), dst[pick].tolist(), weights.tolist())
        )
        return insert, remove

    def setup(self, observe: bool = False) -> None:
        import repro
        from repro.dynamic import DynamicGraph

        self.graph = self.make_graph()
        self.dynamic = DynamicGraph(self.graph)
        s = self.source
        self.answers = {
            "bfs": repro.bfs(self.graph, s),
            "sssp": repro.sssp(self.graph, s),
            "cc": repro.connected_components(self.graph),
            "pagerank": repro.pagerank(self.graph),
        }
        self.rewind()
        self._batch = self.next_batch()
        self.op(-1)  # warm-up: batch 0 of the stream
        self._batch = self.next_batch()

    def op(self, i: int) -> Tuple[float, ...]:
        from repro.dynamic import (
            incremental_bfs,
            incremental_cc,
            incremental_pagerank,
            incremental_sssp,
        )

        insert, remove = self._batch
        dg, prev = self.dynamic, self.answers
        with self.spans.span("dynamic.apply_batch"):
            batch = dg.apply(insert=insert, remove=remove)
        with self.spans.span("graph.snapshot"):
            dg.graph()
        with self.spans.span("dynamic.repair.bfs"):
            b = incremental_bfs(dg, prev["bfs"], batch=batch)
        with self.spans.span("dynamic.repair.sssp"):
            d = incremental_sssp(dg, prev["sssp"], batch=batch)
        with self.spans.span("dynamic.repair.cc"):
            c = incremental_cc(dg, prev["cc"], batch=batch)
        with self.spans.span("dynamic.repair.pagerank"):
            p = incremental_pagerank(dg, prev["pagerank"], batch=batch)
        self.answers = {"bfs": b, "sssp": d, "cc": c, "pagerank": p}
        return _digest(b.levels, d.distances, c.labels, p.ranks)

    def _check_against_recompute(self, i: int) -> None:
        import repro

        merged, s, got = self.dynamic.graph(), self.source, self.answers
        self.check(
            np.array_equal(got["bfs"].levels, repro.bfs(merged, s).levels),
            f"{self.name}: op {i} repaired bfs != full recompute",
        )
        self.check(
            np.array_equal(
                got["sssp"].distances, repro.sssp(merged, s).distances
            ),
            f"{self.name}: op {i} repaired sssp != full recompute",
        )
        self.check(
            *oracles.same_partition(
                got["cc"].labels,
                repro.connected_components(merged).labels,
                f"{self.name}: op {i} repaired cc != full recompute",
            )
        )
        self.check(
            *oracles.ranks_close(
                got["pagerank"].ranks,
                repro.pagerank(merged).ranks,
                f"{self.name}: op {i} warm pagerank != full recompute",
            )
        )

    def between(self, i: int) -> None:
        if i % self.check_every == self.check_every - 1:
            self._check_against_recompute(i)
        self._batch = self.next_batch()

    def verify(self) -> None:
        # The answers chain (each repair starts from the last), so the
        # final state vouches for every op since the last inline check.
        self._check_against_recompute(self._next_op - 1)
        self.check(
            *oracles.bfs_ok(
                self.dynamic.graph(), self.source, self.answers["bfs"].levels
            )
        )
        self.counts = {
            "loop.supersteps": [
                sum(
                    self.answers[a].stats.num_iterations
                    for a in ("bfs", "sssp", "cc")
                )
                + self.answers["pagerank"].iterations
            ],
            "dynamic.epoch": self.dynamic.epoch,
            "dynamic.compactions": self.dynamic.compactions,
        }


# -- service ---------------------------------------------------------------------------

_BANNER = re.compile(r"serving .* on ([\d.]+):(\d+) ")


class ServiceWorkload(Workload):
    """``repro serve`` as a subprocess, so client and server share no GIL."""

    connections = 1

    def scale(self) -> int:
        return 10 if self.smoke else 16

    def plan(self) -> None:
        # The same call the catalog makes for "rmat:<scale>:edge_factor=16".
        self.reference = _rmat(16, self.smoke)
        self.scc = _hub_scc(self.reference)
        self._servers = 0
        self.server: Optional[subprocess.Popen] = None
        self.clients: List[Any] = []
        self._observed_dir: Optional[str] = None

    def setup(self, observe: bool = False) -> None:
        from repro.service.client import ServiceClient

        data_dir = os.path.join(self.tmp_dir, f"svc-{self._servers}")
        self._servers += 1
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--graph",
            f"g=rmat:{self.scale()}:edge_factor=16:seed={GRAPH_SEED}",
            "--port",
            "0",
            "--data-dir",
            data_dir,
        ]
        if observe:
            command.append("--observe")
            self._observed_dir = data_dir
        self.server = subprocess.Popen(
            command,
            cwd=self.tmp_dir,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        banner = self.server.stdout.readline()
        match = _BANNER.search(banner)
        if match is None:
            self.teardown()
            raise SuiteError(f"repro serve did not start: {banner!r}")
        host, port = match.group(1), int(match.group(2))
        self.clients = [
            ServiceClient(host, port) for _ in range(self.connections)
        ]
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def query(self, client, source: int) -> Dict[str, Any]:
        response = client.query("g", "sssp", {"source": source})
        if response.get("code") != 200:
            raise SuiteError(
                f"sssp from {source} answered {response.get('code')}: "
                f"{response.get('error')}"
            )
        return response

    def teardown(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        try:
            if server.poll() is None and self.clients:
                self.clients[0].shutdown()
            server.wait(timeout=30)
        except Exception:  # noqa: BLE001 - whatever happened, reap the child
            server.kill()
            server.wait()
            raise
        finally:
            for client in self.clients:
                client.close()
            self.clients = []
            server.stdout.close()
        if self._observed_dir is not None:
            self._harvest_traces()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.server.pid)

    def bare_checksum(self, graph, source: int) -> float:
        import repro

        return oracles.service_checksum(repro.sssp(graph, source).distances)

    def _harvest_traces(self) -> None:
        """Layer split of the queries the observed server executed, from
        the span trees its run ledger kept."""
        from repro.observability.analysis import nodes_from_span_dicts
        from repro.observability.ledger import RunLedger

        ledger = RunLedger(os.path.join(self._observed_dir, "runs"))
        for record in ledger.records():
            if self.split.ops >= ANALYZE_OPS * 4:
                break
            if record.get("trace"):
                self.split.add_op(nodes_from_span_dicts(record["trace"]))


class ServiceColdRmat16(ServiceWorkload):
    name = "service-cold-rmat16"
    why = (
        "one connection, never-repeated sssp sources: the algorithm "
        "dominates; op_ms_p50 minus bare sssp is the service's cost per miss"
    )
    ops_per_pass = 100
    smoke_ops = 10
    oracle_every = 10

    def plan(self) -> None:
        super().plan()
        rng = np.random.default_rng([self.seed, 5])
        hub = _hub(self.reference)
        self.hub = hub
        self.sources = [
            int(s) for s in rng.permutation(self.scc[self.scc != hub])
        ]
        self._next = 0
        self.answers: List[Tuple[int, float, bool, int]] = []

    def warm_up(self) -> None:
        self.query(self.clients[0], self.hub)

    def _op(self, i: int) -> None:
        if i >= len(self.sources):
            raise SuiteError(f"{self.name}: ran out of unrepeated sources")
        s = self.sources[i]
        with self.spans.span("service.query"):
            response = self.query(self.clients[0], s)
        self.answers.append(
            (
                s,
                response["result"]["checksum"],
                bool(response.get("server", {}).get("cached")),
                response["result"]["iterations"],
            )
        )

    def run_pass(self, budget: Budget, traced: bool = False) -> PassResult:
        result = closed_loop(self._op, budget, first_index=self._next)
        self._next += len(result.op_ms)
        self._last_pass = result
        return result

    def verify(self) -> None:
        import repro

        self.check(
            not any(cached for _, _, cached, _ in self.answers),
            f"{self.name}: a never-repeated source was answered from cache",
        )
        bare_ms = []
        for s, checksum, _, _ in self.answers[:: self.oracle_every]:
            t0 = time.perf_counter()
            distances = repro.sssp(self.reference, s).distances
            bare_ms.append((time.perf_counter() - t0) * 1e3)
            self.check(
                oracles.service_checksum(distances) == checksum,
                f"{self.name}: checksum from source {s} differs from the "
                f"bare library call",
            )
        s0 = self.answers[0][0]
        self.check(
            *oracles.sssp_ok(
                self.reference, s0, repro.sssp(self.reference, s0).distances
            )
        )
        self.counts = {
            "loop.supersteps": [self.answers[0][3]],
            "service.codes": self.clients[0].stats().get("codes"),
        }
        miss_p50 = statistics.median(self._last_pass.op_ms)
        self.rows = {
            "service.miss_ms_p50": {"value": miss_p50, "unit": "ms"},
            "service.bare_sssp_ms_p50": {
                "value": statistics.median(bare_ms),
                "unit": "ms",
                "samples": len(bare_ms),
            },
            "service.miss_overhead_ms": {
                "value": miss_p50 - statistics.median(bare_ms),
                "unit": "ms",
                "base": "cold op_ms_p50 of the last pass - bare sssp p50 "
                "on sampled sources of the run",
            },
        }


class ServiceHotRmat16(ServiceWorkload):
    name = "service-hot-rmat16"
    why = (
        "two connections, Zipf over 16 cached keys, a mutate every 4000 "
        "queries: cache, protocol, admission and journal do the work"
    )
    ops_per_pass = 12000
    smoke_ops = 600
    connections = 2
    n_keys = 16
    mutate_every = 4000
    stream_length = 1 << 15

    def plan(self) -> None:
        super().plan()
        rng = np.random.default_rng([self.seed, 6])
        self.keys = [
            int(s) for s in rng.choice(self.scc, size=self.n_keys, replace=False)
        ]
        weights = 1.0 / np.arange(1, self.n_keys + 1) ** 1.1
        self.streams = [
            rng.choice(
                self.n_keys, size=self.stream_length, p=weights / weights.sum()
            )
            for _ in range(self.connections)
        ]
        self.positions = [0] * self.connections
        if self.smoke:
            self.mutate_every = 200
        # Mutation batches.  Removals are seeded base edges, so they are
        # always live.  Each batch also inserts, for every hot source, an
        # edge of weight 0.5 to a vertex it never pointed at: every other
        # edge weighs >= 1, so each hot answer's checksum moves with each
        # epoch and a stale cache entry cannot pass for a fresh one.
        coo = self.reference.coo()
        self.remove_order = rng.permutation(self.reference.n_edges)
        self.rows_, self.cols_ = coo.rows, coo.cols
        self.target_rng = rng
        self.batches: List[Tuple[list, list]] = []
        self.sent = 0  # mutates sent (conn 0 only writes these two)
        self.acked = 0
        self.answers: List[List[Tuple[int, float, int, int, bool]]] = [
            [] for _ in range(self.connections)
        ]
        self.hit_ms: List[float] = []
        self.miss_ms: List[float] = []
        self.mutate_ms: List[float] = []

    def _batch(self, epoch: int) -> Tuple[list, list]:
        """The mutation that takes a server from ``epoch`` to the next;
        every server of a run replays the same sequence."""
        if epoch < len(self.batches):
            return self.batches[epoch]
        idx = self.remove_order[epoch * self.n_keys : (epoch + 1) * self.n_keys]
        remove = [
            [int(self.rows_[e]), int(self.cols_[e])] for e in idx
        ]
        n = self.reference.n_vertices
        insert = []
        for s in self.keys:
            t = int(self.target_rng.integers(0, n))
            while t == s or self.reference.has_edge(s, t):
                t = int(self.target_rng.integers(0, n))
            insert.append([s, t, 0.5])
        self.batches.append((insert, remove))
        return insert, remove

    def warm_up(self) -> None:
        for s in self.keys:
            response = self.query(self.clients[0], s)
        self.iterations = response["result"]["iterations"]

    def setup(self, observe: bool = False) -> None:
        super().setup(observe)
        self.sent = self.acked = 0  # a fresh server starts at epoch 0

    def _connection(self, c: int, budget: Budget, out: PassResult) -> None:
        """One closed-loop connection.  Connection 0 leads: it issues
        the mutates and ends the pass, and only at a mutate-cycle
        boundary — a pass that stopped mid-cycle would count the cheap
        hits of a cycle without the recomputation its mutate forces, so
        ``ops_per_s`` would depend on where the clock ran out."""
        client = self.clients[c]
        stream, answers = self.streams[c], self.answers[c]
        started = time.perf_counter()
        done = 0
        cycle = self.mutate_every // self.connections
        while True:
            if c and self._pass_over.is_set():
                break
            if c == 0 and done % cycle == 0 and budget.exhausted(done, started):
                self._pass_over.set()
                break
            t0 = time.perf_counter()
            try:
                if c == 0 and done % cycle == cycle - 1:
                    batch = self._batch(self.sent)
                    self.sent += 1
                    response = client.mutate(
                        "g", insert=batch[0], remove=batch[1]
                    )
                    if response.get("code") != 200:
                        raise SuiteError(f"mutate answered {response}")
                    self.acked += 1
                    dt = time.perf_counter() - t0
                    self.mutate_ms.append(dt * 1e3)
                else:
                    key = int(stream[self.positions[c] % self.stream_length])
                    self.positions[c] += 1
                    lo = self.acked
                    response = self.query(client, self.keys[key])
                    dt = time.perf_counter() - t0
                    cached = bool(response.get("server", {}).get("cached"))
                    answers.append(
                        (key, response["result"]["checksum"], lo, self.sent, cached)
                    )
                    (self.hit_ms if cached else self.miss_ms).append(dt * 1e3)
            except Exception as exc:  # noqa: BLE001 - a failed op is a data point
                dt = time.perf_counter() - t0
                out.failed += 1
                print(f"  conn {c} op failed: {exc}", file=sys.stderr)
            out.op_ms.append(dt * 1e3)
            done += 1

    def run_pass(self, budget: Budget, traced: bool = False) -> PassResult:
        lead = Budget(
            ops=None if budget.ops is None else budget.ops // self.connections,
            seconds=budget.seconds,
        )
        self._pass_over = threading.Event()
        parts = [PassResult() for _ in range(self.connections)]
        threads = [
            threading.Thread(target=self._connection, args=(c, lead, parts[c]))
            for c in range(self.connections)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        return PassResult(
            op_ms=[ms for p in parts for ms in p.op_ms],
            wall_s=wall,
            failed=sum(p.failed for p in parts),
        )

    def verify(self) -> None:
        from repro.dynamic import DynamicGraph

        mirror = DynamicGraph(self.reference)
        expected = []
        for epoch in range(len(self.batches) + 1):
            if epoch:
                insert, remove = self.batches[epoch - 1]
                mirror.apply(insert=insert, remove=remove)
            graph = mirror.graph()
            expected.append([self.bare_checksum(graph, s) for s in self.keys])
        self.check(
            all(
                len({expected[e][k] for e in range(len(expected))})
                == len(expected)
                for k in range(self.n_keys)
            ),
            f"{self.name}: a mutation left a hot answer unchanged, so the "
            f"stale-cache check has no teeth",
        )
        stale = 0
        for answers in self.answers:
            for key, checksum, lo, hi, _cached in answers:
                # A query that overlapped a mutate may see either epoch.
                if not any(
                    checksum == expected[e][key] for e in range(lo, hi + 1)
                ):
                    stale += 1
        total = sum(len(a) for a in self.answers)
        self.check(
            stale == 0,
            f"{self.name}: {stale} of {total} answers match no bare "
            f"recompute at an epoch they could have seen",
        )
        stats = self.clients[0].stats()
        cache = stats.get("cache", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        self.counts = {
            "loop.supersteps": [self.iterations],
            "service.epochs": len(self.batches),
        }
        self.rows = {
            "service.hit_ms_p50": {
                "value": statistics.median(self.hit_ms),
                "unit": "ms",
                "samples": len(self.hit_ms),
            },
            "service.miss_ms_p50": {
                "value": statistics.median(self.miss_ms)
                if self.miss_ms
                else None,
                "unit": "ms",
                "samples": len(self.miss_ms),
            },
            "service.mutate_ms": {
                "value": statistics.median(self.mutate_ms)
                if self.mutate_ms
                else None,
                "unit": "ms",
                "samples": len(self.mutate_ms),
            },
            "service.hit_ratio": {
                "value": cache.get("hits", 0) / lookups if lookups else None,
                "unit": "ratio",
                "base": f"{lookups} cache lookups (stats op)",
                "codes": stats.get("codes"),
            },
        }


WORKLOADS = [
    TraverseRmat16,
    TraverseGrid512,
    BulkRmat16,
    ProcRmat17,
    DynamicRmat16,
    ServiceColdRmat16,
    ServiceHotRmat16,
]
BY_NAME = {cls.name: cls for cls in WORKLOADS}
