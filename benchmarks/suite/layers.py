"""Per-layer rows, measured from outside by timing public functions.

Each row is named ``<module>.<metric>`` and the README's interaction
table says which end-to-end metric it should move on which workload.
Rows that come for free with a workload run (``service.*`` hit/miss
times, ``execution.proc_speedup``, the per-call ``calls`` medians, the
``*.self_ms`` split) are reported by that workload's traced run; this
module holds the rest.  ``src/`` is not edited: nothing here reaches past
a module's public functions, and nothing here gates — the rows explain
an end-to-end move, they are never one.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
import time
from typing import Any, Callable, Dict, Optional

import numpy as np

from harness import (
    OUT_DIR,
    SpanLog,
    bootstrap,
    metadata,
    pin_environment,
    reap_resource_tracker,
    workers,
)
from workloads import GRAPH_SEED

Row = Dict[str, Any]


def _median_ms(
    fn: Callable[[], Any],
    repeats: int = 5,
    before: Optional[Callable[[], Any]] = None,
) -> Row:
    """Median wall time of ``fn`` after one warm-up; ``before`` re-seeds
    state with the clock stopped."""
    samples = []
    for k in range(repeats + 1):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        if k:
            samples.append((time.perf_counter() - t0) * 1e3)
    return {"value": statistics.median(samples), "unit": "ms", "samples": repeats}


def _mteps(edges: int, row: Row) -> Row:
    return {
        "value": edges / (row["value"] * 1e-3) / 1e6 if row["value"] else None,
        "unit": "MTEPS",
        "edges": edges,
        "samples": row["samples"],
    }


def _frontier(n: int, density: float, seed: int):
    from repro.frontier import SparseFrontier

    rng = np.random.default_rng([seed, 7])
    ids = np.sort(rng.choice(n, size=max(1, int(n * density)), replace=False))
    return SparseFrontier.from_indices(ids.astype(np.int32), n), ids


# -- graph / frontier / loop -----------------------------------------------------------


def graph_rows(scale: int) -> Dict[str, Row]:
    from repro import generators
    from repro.graph.graph import Graph

    tag = f"rmat{scale}"
    build = _median_ms(
        lambda: generators.rmat(scale, 16, weighted=True, seed=GRAPH_SEED), repeats=3
    )
    g = generators.rmat(scale, 16, weighted=True, seed=GRAPH_SEED)
    # A fresh facade over the same CSR, so each repeat pays the transpose.
    csc = _median_ms(
        lambda: Graph({"csr": g.csr()}, g.properties).csc(), repeats=3
    )
    return {
        f"graph.build_s.{tag}": {
            "value": build["value"] / 1e3,
            "unit": "s",
            "samples": build["samples"],
        },
        f"graph.csc_build_ms.{tag}": csc,
    }


def frontier_rows(seed: int, n: int) -> Dict[str, Row]:
    from repro.frontier.convert import convert

    rows = {}
    for density, tag in ((0.01, "d01"), (0.5, "d50")):
        sparse, _ = _frontier(n, density, seed)
        dense = convert(sparse, "dense")
        rows[f"frontier.convert_ms.sparse_to_dense.{tag}"] = _median_ms(
            lambda: convert(sparse, "dense"), repeats=9
        )
        rows[f"frontier.convert_ms.dense_to_sparse.{tag}"] = _median_ms(
            lambda: convert(dense, "sparse"), repeats=9
        )
    return rows


def loop_rows(graph) -> Dict[str, Row]:
    from repro.frontier import SparseFrontier
    from repro.loop import Enactor
    from repro.loop.convergence import MaxIterations

    steps = 1000
    frontier = SparseFrontier.from_indices([0], graph.n_vertices)

    def run():
        enactor = Enactor(graph, convergence=MaxIterations(steps))
        stats = enactor.run(frontier, lambda f, state: f)
        assert stats.num_iterations == steps

    row = _median_ms(run)
    return {
        "loop.step_overhead_us": {
            "value": row["value"] * 1e3 / steps,
            "unit": "us",
            "samples": row["samples"],
            "base": f"Enactor.run of a no-op step, {steps} supersteps",
        }
    }


# -- operators -------------------------------------------------------------------------


def operator_rows(seed: int, graphs: Dict[str, Any]) -> Dict[str, Row]:
    from repro.execution import par_vector
    from repro.execution.workspace import Workspace
    from repro.operators import bulk_condition, neighbors_expand
    from repro.operators.fused import (
        claim_levels_condition,
        min_relax_condition,
        segmented_sum,
    )
    from repro.types import INF

    rows = {}
    for gname, g in graphs.items():
        n, csr = g.n_vertices, g.csr()
        degrees = csr.degrees()
        for density, ftag in ((1.0, "full"), (0.01, "f01")):
            frontier, ids = _frontier(n, density, seed)
            edges = int(degrees[ids].sum())
            tag = f"{gname}.{ftag}"
            ws = Workspace()

            @bulk_condition
            def keep_all(srcs, dsts, edge_ids, weights):
                return np.ones(np.shape(dsts), dtype=bool)

            rows[f"operators.advance_mteps.{tag}"] = _mteps(
                edges,
                _median_ms(
                    lambda: neighbors_expand(
                        par_vector, g, frontier, keep_all, workspace=ws
                    )
                ),
            )

            dist = np.empty(n, dtype=np.float32)

            def seed_dist():
                dist.fill(INF)
                dist[ids] = 0.0

            relax = min_relax_condition(dist)
            rows[f"operators.min_relax_mteps.{tag}"] = _mteps(
                edges,
                _median_ms(
                    lambda: neighbors_expand(
                        par_vector, g, frontier, relax, workspace=ws
                    ),
                    before=seed_dist,
                ),
            )

            levels = np.empty(n, dtype=np.int64)
            parents = np.empty(n, dtype=np.int64)

            def seed_levels():
                levels.fill(-1)
                levels[ids] = 0
                parents.fill(-1)

            claim = claim_levels_condition(levels, parents)
            rows[f"operators.claim_levels_mteps.{tag}"] = _mteps(
                edges,
                _median_ms(
                    lambda: neighbors_expand(
                        par_vector, g, frontier, claim, workspace=ws
                    ),
                    before=seed_levels,
                ),
            )

            _, dsts, _, weights = csr.expand_vertices(ids)
            contrib = weights.astype(np.float64)
            rows[f"operators.sum_aggregate_mteps.{tag}"] = _mteps(
                edges, _median_ms(lambda: segmented_sum(dsts, contrib, n))
            )
    return rows


# -- execution -------------------------------------------------------------------------


def execution_rows(graph) -> Dict[str, Row]:
    from repro.execution import proc_engine, shm
    from repro.execution.proc_pool import get_proc_pool

    cores = len(os.sched_getaffinity(0))
    note = {"cores": cores, "workers": workers()}
    if cores < workers():
        reason = {"value": None, "reason": "cores<workers", **note}
        return {
            name: {"unit": unit, **reason}
            for name, unit in (
                ("execution.pool_spawn_s", "s"),
                ("execution.round_trip_ms", "ms"),
                ("execution.shm_place_s", "s"),
            )
        }
    spawn = []
    for _ in range(3):
        t0 = time.perf_counter()
        pool = get_proc_pool(workers())
        pool.ping()
        spawn.append(time.perf_counter() - t0)
        proc_engine.shutdown()
    pool = get_proc_pool(workers())
    pool.ping()
    round_trip = _median_ms(pool.ping, repeats=50)
    proc_engine.shutdown()

    csr = graph.csr()
    arrays = (csr.row_offsets, csr.column_indices, csr.values)
    place = []
    for _ in range(3):
        arena = shm.ShmArena()
        t0 = time.perf_counter()
        for arr in arrays:
            arena.place(arr)
        place.append(time.perf_counter() - t0)
        arena.close()
    return {
        "execution.pool_spawn_s": {
            "value": statistics.median(spawn), "unit": "s", "samples": 3, **note
        },
        "execution.round_trip_ms": {
            **round_trip, **note, "base": "ProcPool.ping: one empty round"
        },
        "execution.shm_place_s": {
            "value": statistics.median(place),
            "unit": "s",
            "samples": 3,
            "bytes": int(sum(a.nbytes for a in arrays)),
        },
    }


# -- linalg ----------------------------------------------------------------------------


def linalg_rows(seed: int, graph) -> Dict[str, Row]:
    from repro.linalg import MIN_PLUS, scipy_available, spmspv, spmv

    n = graph.n_vertices
    rng = np.random.default_rng([seed, 8])
    x = rng.random(n)
    mask = rng.random(n) < 0.5
    _, ids = _frontier(n, 0.01, seed)
    spmv(graph, x, transpose=True)  # build the derived operands first
    return {
        "linalg.spmv_ms": _median_ms(lambda: spmv(graph, x)),
        "linalg.spmv_masked_ms": _median_ms(lambda: spmv(graph, x, mask=mask)),
        "linalg.spmv_min_plus_ms": _median_ms(
            lambda: spmv(graph, x, semiring=MIN_PLUS, transpose=True)
        ),
        "linalg.spmspv_ms": _median_ms(lambda: spmspv(graph, ids, x)),
        "linalg.spmspv_masked_ms": _median_ms(
            lambda: spmspv(graph, ids, x, mask=mask, complement=True)
        ),
        "linalg.spmspv_min_plus_ms": _median_ms(
            lambda: spmspv(graph, ids, x, semiring=MIN_PLUS)
        ),
        "linalg.scipy": {"value": int(scipy_available()), "unit": "flag"},
    }


# -- algorithms ------------------------------------------------------------------------

PLANS = {
    "par_vector": {"policy": "par_vector", "backend": "native"},
    "par_proc": {"policy": "par_proc", "backend": "native"},
    "linalg": {"policy": "par_vector", "backend": "linalg"},
}


def _profiled(graph, algorithm: str, source: int, plan: Dict[str, str], repeats: int) -> Row:
    from repro.observability.analysis import analyze_probe
    from repro.observability.profile import profile_algorithm

    seconds, report = [], None
    for k in range(repeats + 1):
        report = profile_algorithm(
            graph, algorithm, source=source, trace=True, **plan
        )
        if k:
            seconds.append(report.seconds)
    analysis = analyze_probe(report.probe, n_vertices=graph.n_vertices)
    denominator = analysis.share_denominator or 1.0
    return {
        "value": statistics.median(seconds) * 1e3,
        "unit": "ms",
        "samples": repeats,
        "layers": {
            layer: round(s / denominator, 4)
            for layer, s in analysis.layers.items()
            if s
        },
        "unattributed_pct": round(100.0 * (1.0 - analysis.coverage), 3),
        "supersteps": report.stats.num_iterations if report.stats else None,
    }


def algorithm_rows(graph, gname: str, grid, grid_name: str) -> Dict[str, Row]:
    from repro.execution import proc_engine

    source = int(np.argmax(graph.out_degrees()))
    rows = {}
    parallel = len(os.sched_getaffinity(0)) >= workers()
    for algorithm in ("bfs", "sssp", "cc", "pagerank"):
        for pname, plan in PLANS.items():
            name = f"algorithms.{algorithm}.{gname}.{pname}_ms"
            if pname == "par_proc" and not parallel:
                rows[name] = {"value": None, "unit": "ms", "reason": "cores<workers"}
                continue
            rows[name] = _profiled(graph, algorithm, source, plan, repeats=3)
    proc_engine.shutdown()
    rows[f"algorithms.cc.{grid_name}.par_vector_ms"] = _profiled(
        grid, "cc", 0, PLANS["par_vector"], repeats=1
    )
    return rows


# -- dynamic ---------------------------------------------------------------------------


def dynamic_rows(seed: int, smoke: bool, tmp_dir: str) -> Dict[str, Row]:
    import repro
    from repro.dynamic import (
        DynamicGraph,
        incremental_bfs,
        incremental_cc,
        incremental_pagerank,
        incremental_sssp,
    )
    from workloads import DynamicRmat16

    plan = DynamicRmat16(seed, smoke=smoke, tmp_dir=tmp_dir, spans=SpanLog(False))
    plan.plan()
    plan.rewind()
    base, s = plan.make_graph(), plan.source
    full = {
        "bfs": lambda g: repro.bfs(g, s),
        "sssp": lambda g: repro.sssp(g, s),
        "cc": repro.connected_components,
        "pagerank": repro.pagerank,
    }
    repair = {
        "bfs": incremental_bfs,
        "sssp": incremental_sssp,
        "cc": incremental_cc,
        "pagerank": incremental_pagerank,
    }
    previous = {name: fn(base) for name, fn in full.items()}
    samples: Dict[str, list] = {}

    def timed(key: str, fn):
        t0 = time.perf_counter()
        out = fn()
        samples.setdefault(key, []).append((time.perf_counter() - t0) * 1e3)
        return out

    for _ in range(3):
        # Each repeat is one fresh 1% batch on the pristine base.
        insert, remove = plan.next_batch()
        dg = DynamicGraph(base)
        batch = timed("apply", lambda: dg.apply(insert=insert, remove=remove))
        merged = timed("snapshot", dg.graph)
        for name in full:
            timed(f"repair.{name}", lambda: repair[name](dg, previous[name], batch=batch))
            timed(f"full.{name}", lambda: full[name](merged))

    def med(key: str) -> float:
        return statistics.median(samples[key])

    rows = {
        "dynamic.apply_batch_ms": {"value": med("apply"), "unit": "ms", "samples": 3},
        "graph.snapshot_ms": {"value": med("snapshot"), "unit": "ms", "samples": 3},
    }
    for name in full:
        rows[f"dynamic.repair_ms.{name}"] = {
            "value": med(f"repair.{name}"), "unit": "ms", "samples": 3
        }
        rows[f"dynamic.repair_speedup.{name}"] = {
            "value": med(f"full.{name}") / med(f"repair.{name}"),
            "unit": "x",
            "base": f"full recompute {med(f'full.{name}'):.3f} ms / repair",
        }
    return rows


# -- comm / resilience -----------------------------------------------------------------


def comm_rows() -> Dict[str, Row]:
    from repro import generators
    from repro.algorithms.pregel_programs import PageRankProgram
    from repro.comm.pregel import PregelEngine

    # Vertex programs run one Python call per active vertex: scale 10.
    g = generators.rmat(10, 16, weighted=True, seed=GRAPH_SEED)
    n, rounds = g.n_vertices, 5
    engine = PregelEngine(g)

    def run():
        engine.run(PageRankProgram(n, rounds=rounds), np.full(n, 1.0 / n))

    row = _median_ms(run, repeats=3)
    return {
        "comm.pregel_pagerank_ms": {
            **row,
            "messages": engine.stats.total_messages,
            "supersteps": engine.stats.supersteps,
            "graph": f"rmat10, {rounds} rounds",
        }
    }


def resilience_rows(seed: int, n: int) -> Dict[str, Row]:
    from repro.resilience.checkpoint import (
        Checkpoint,
        CheckpointStore,
        snapshot_arrays,
    )

    rng = np.random.default_rng([seed, 9])
    dist = rng.random(n).astype(np.float32)
    frontier = np.sort(rng.choice(n, size=max(1, n // 100), replace=False))
    store = CheckpointStore()
    step = [0]

    def touch():
        dist[frontier] *= 0.5  # what one superstep changes

    def save():
        step[0] += 1
        store.save(
            Checkpoint(
                superstep=step[0],
                frontier_indices=frontier,
                capacity=n,
                arrays=snapshot_arrays({"distances": dist}, store.latest()),
            )
        )

    return {
        "resilience.checkpoint_ms": {
            **_median_ms(save, repeats=9, before=touch),
            "base": f"one superstep's snapshot + save, {n} float32 values",
        }
    }


# -- entry -----------------------------------------------------------------------------


def main(seed: int, smoke: bool) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        pin_environment(tmp_dir)
        bootstrap()
        from repro import generators

        scale = 10 if smoke else 16
        gname = f"rmat{scale}"
        g = generators.rmat(scale, 16, weighted=True, seed=GRAPH_SEED)
        small = generators.grid_2d(64, 64, weighted=True, seed=GRAPH_SEED)
        side = 32 if smoke else 256
        grid = generators.grid_2d(side, side, weighted=True, seed=GRAPH_SEED)
        big_n = 64 * 64 if smoke else 512 * 512

        rows: Dict[str, Row] = {}
        rows.update(graph_rows(scale))
        rows.update(frontier_rows(seed, big_n))
        rows.update(loop_rows(g))
        rows.update(operator_rows(seed, {gname: g, "grid12": small}))
        rows.update(execution_rows(g))
        rows.update(linalg_rows(seed, g))
        rows.update(algorithm_rows(g, gname, grid, f"grid{side}"))
        rows.update(dynamic_rows(seed, smoke, tmp_dir))
        rows.update(comm_rows())
        rows.update(resilience_rows(seed, g.n_vertices))
        for name, row in sorted(rows.items()):
            value = "null" if row["value"] is None else f"{row['value']:.6g}"
            extra = ""
            if "layers" in row:
                extra = f"  layers={json.dumps(row['layers'])} unattributed={row['unattributed_pct']}%"
            if "messages" in row:
                extra = f"  messages={row['messages']} (exact count)"
            print(f"  layers {name} = {value} {row['unit']}{extra}")
        with open(os.path.join(OUT_DIR, "layers.json"), "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1, sort_keys=True)
        print(json.dumps({"layers": len(rows), "meta": metadata(seed)}))
        return 0
    finally:
        reap_resource_tracker()
        shutil.rmtree(tmp_dir, ignore_errors=True)
