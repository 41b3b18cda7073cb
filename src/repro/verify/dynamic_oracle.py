"""Dynamic-graph conformance: incremental repair vs full recompute.

The dynamic subsystem's honesty condition is brutal and easy to state:
after any mutation batch, ``incremental_*`` must produce *exactly* what
the static algorithm computes from scratch on the mutated graph — same
distances, same levels, same component labels, bit for bit, under every
execution policy.  This module sweeps that relation over the
adversarial graph pool with seeded mutation plans, plus two structural
checks:

* **overlay invariants** — :func:`repro.graph.validate.validate_overlay`
  on the post-mutation overlay (no duplicate live arcs, coherent
  tombstones);
* **overlay vs compacted** — the merged base+delta snapshot and the
  compacted CSR must be the same graph (identical edge multiset,
  identical BFS/SSSP results), so compaction can never change answers;
* **snapshot vs rebuild** — after each of two batches, the snapshot's
  CSR and CSC, patched from the previous snapshot, must equal array for
  array (dtypes and order included) a from-scratch merge of base and
  overlay and its transpose; the second batch checks a patch of a patch.

Failures carry one-line replay commands, mirroring the matrix runner's
contract.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.bfs import bfs
from repro.algorithms.cc import connected_components
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp
from repro.dynamic.dynamic_graph import DynamicGraph
from repro.dynamic.incremental import (
    incremental_bfs,
    incremental_cc,
    incremental_pagerank,
    incremental_sssp,
)
from repro.errors import GraphFormatError
from repro.graph.coo import COOMatrix
from repro.graph.csr import CSRMatrix
from repro.graph.graph import Graph
from repro.graph.transpose import transpose_csr
from repro.graph.validate import validate_overlay
from repro.verify.graph_pool import GraphPool

#: The policy axis the incremental==full relation sweeps.
DYNAMIC_POLICIES = ("seq", "par", "par_vector")


@dataclass
class DynamicFailure:
    """One violated dynamic-graph check, with replay coordinates."""

    check: str
    algo: str
    graph: str
    policy: str
    seed: int
    detail: str

    @property
    def repro(self) -> str:
        return (
            f"repro verify --dynamic --graph {self.graph} "
            f"--seed {self.seed}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (embedded in ledger records)."""
        return {
            "check": self.check,
            "algo": self.algo,
            "graph": self.graph,
            "policy": self.policy,
            "seed": self.seed,
            "detail": self.detail,
            "repro": self.repro,
        }


@dataclass
class DynamicReport:
    """Outcome of one dynamic-conformance sweep."""

    seed: int
    checks_run: int = 0
    checks_passed: int = 0
    failures: List[DynamicFailure] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, failure: Optional[DynamicFailure]) -> None:
        """Count one check; ``None`` means it held."""
        self.checks_run += 1
        if failure is None:
            self.checks_passed += 1
        else:
            self.failures.append(failure)

    def to_record(self) -> Dict[str, Any]:
        """Ledger-embeddable summary (bounded)."""
        return {
            "seed": self.seed,
            "checks_run": self.checks_run,
            "checks_passed": self.checks_passed,
            "n_failures": len(self.failures),
            "failures": [f.to_dict() for f in self.failures[:50]],
            "seconds": round(self.seconds, 3),
        }


def _mutation_plan(
    graph: Graph, rng: np.random.Generator, *, fraction: float = 0.15
) -> Tuple[List[Tuple[int, int, float]], List[Tuple[int, int]]]:
    """A seeded (inserts, removes) plan proportional to graph size.

    Removes sample distinct live arcs (canonicalized ``u <= v`` on
    undirected graphs so the symmetric arc is not deleted twice);
    inserts pick pairs not currently live and not scheduled for
    removal, so the plan exercises clean inserts, clean deletes, and —
    via overlap with deleted pairs being allowed in principle — the
    batch ordering (removals first) without ever being invalid.
    """
    n = graph.n_vertices
    coo = graph.coo()
    undirected = not graph.properties.directed
    pairs = set()
    for s, d in zip(coo.rows.tolist(), coo.cols.tolist()):
        pairs.add((min(s, d), max(s, d)) if undirected else (s, d))
    live = sorted(pairs)
    k = max(1, int(len(live) * fraction))
    removes = [
        live[i] for i in rng.choice(len(live), size=min(k, len(live)), replace=False)
    ]
    removed = set(removes)
    inserts: List[Tuple[int, int, float]] = []
    weighted = graph.properties.weighted
    attempts = 0
    while len(inserts) < k and attempts < 50 * k:
        attempts += 1
        s, d = int(rng.integers(n)), int(rng.integers(n))
        if s == d:
            continue
        key = (min(s, d), max(s, d)) if undirected else (s, d)
        if key in pairs or key in removed:
            continue
        pairs.add(key)
        w = float(rng.uniform(1.0, 10.0)) if weighted else 1.0
        inserts.append((s, d, w))
    return inserts, removes


def _edge_multiset(graph: Graph) -> np.ndarray:
    """Sorted (src, dst, weight) rows — the graph's identity as data."""
    coo = graph.coo()
    rows = np.stack(
        [
            coo.rows.astype(np.float64),
            coo.cols.astype(np.float64),
            coo.vals.astype(np.float64),
        ],
        axis=1,
    )
    order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
    return rows[order]


def _snapshot_mismatch(dg: DynamicGraph) -> Optional[str]:
    """Which array of ``dg``'s patched CSR / CSC (the CSC forced) differs
    from a from-scratch merge and transpose, or None."""
    n = dg.n_vertices
    rows, cols, vals = dg.overlay.merged_coo_arrays()
    fresh = CSRMatrix(n, n, *COOMatrix(n, n, rows, cols, vals).to_csr_arrays())
    merged = dg.graph()
    for view, got, want in (
        ("csr", merged.csr(), fresh),
        ("csc", merged.csc(), transpose_csr(fresh)),
    ):
        for name in got.__slots__:
            a, b = getattr(got, name), getattr(want, name)
            same = (
                a.dtype == b.dtype and np.array_equal(a, b)
                if isinstance(a, np.ndarray)
                else a == b
            )
            if not same:
                return f"patched {view}.{name} differs from a rebuild"
    return None


def run_dynamic(
    *,
    seed: int = 0,
    quick: bool = True,
    graphs: Optional[Sequence[str]] = None,
    policies: Sequence[str] = DYNAMIC_POLICIES,
    pool: Optional[GraphPool] = None,
) -> DynamicReport:
    """Sweep the incremental==full relation over the graph pool."""
    t0 = time.perf_counter()
    pool = pool or GraphPool(seed=seed, quick=quick)
    report = DynamicReport(seed=seed)
    for case in pool.cases():
        if graphs is not None and case.name not in set(graphs):
            continue
        graph = pool.graph(case.name)
        if graph.n_vertices == 0 or graph.n_edges == 0:
            continue
        # zlib.crc32 is stable across processes (str.__hash__ is salted).
        rng = np.random.default_rng(
            seed + (zlib.crc32(case.name.encode()) % (2**16))
        )
        source = case.source or 0

        dg = DynamicGraph(graph, compact_threshold=None)
        prev = {
            "bfs": bfs(graph, source),
            "sssp": sssp(graph, source),
            "cc": connected_components(graph),
            "pagerank": pagerank(graph),
        }
        inserts, removes = _mutation_plan(graph, rng)
        try:
            batch = dg.apply(insert=inserts, remove=removes)
        except GraphFormatError as exc:
            report.record(
                DynamicFailure(
                    check="mutation-apply",
                    algo="-",
                    graph=case.name,
                    policy="-",
                    seed=seed,
                    detail=str(exc),
                )
            )
            continue

        # Overlay invariants hold after any batch.
        try:
            validate_overlay(dg.overlay)
            report.record(None)
        except GraphFormatError as exc:
            report.record(
                DynamicFailure(
                    check="overlay-invariants",
                    algo="-",
                    graph=case.name,
                    policy="-",
                    seed=seed,
                    detail=str(exc),
                )
            )

        merged = dg.graph()
        for policy in policies:
            full = {
                "bfs": bfs(merged, source, policy=policy),
                "sssp": sssp(merged, source, policy=policy),
                "cc": connected_components(merged, policy=policy),
            }
            inc = {
                "bfs": incremental_bfs(
                    dg, prev["bfs"], batch=batch, policy=policy
                ),
                "sssp": incremental_sssp(
                    dg, prev["sssp"], batch=batch, policy=policy
                ),
                "cc": incremental_cc(
                    dg, prev["cc"], batch=batch, policy=policy
                ),
            }
            checks = {
                "bfs": np.array_equal(
                    full["bfs"].levels, inc["bfs"].levels
                ),
                "sssp": np.array_equal(
                    full["sssp"].distances, inc["sssp"].distances
                ),
                "cc": np.array_equal(full["cc"].labels, inc["cc"].labels),
            }
            for algo, passed in checks.items():
                report.record(
                    None
                    if passed
                    else DynamicFailure(
                        check="incremental-vs-full",
                        algo=algo,
                        graph=case.name,
                        policy=policy,
                        seed=seed,
                        detail=f"{algo} repair diverged from recompute",
                    )
                )

        # PageRank warm restart: same fixed point to tolerance order.
        warm = incremental_pagerank(dg, prev["pagerank"], batch=batch)
        cold = pagerank(merged)
        report.record(
            None
            if np.allclose(warm.ranks, cold.ranks, atol=1e-5)
            else DynamicFailure(
                check="incremental-vs-full",
                algo="pagerank",
                graph=case.name,
                policy="par_vector",
                seed=seed,
                detail=(
                    f"warm restart diverged: max |Δ| = "
                    f"{float(np.abs(warm.ranks - cold.ranks).max()):.2e}"
                ),
            )
        )

        # The patched snapshot equals a rebuild, after this batch and
        # after a second one patched on top of it.
        for step in range(2):
            if step:
                inserts, removes = _mutation_plan(merged, rng)
                dg.apply(insert=inserts, remove=removes)
                merged = dg.graph()
            detail = _snapshot_mismatch(dg)
            report.record(
                None
                if detail is None
                else DynamicFailure(
                    check="snapshot-vs-rebuild",
                    algo="-",
                    graph=case.name,
                    policy="-",
                    seed=seed,
                    detail=f"batch {step + 1}: {detail}",
                )
            )

        # Overlay view and compacted CSR must be the same graph.
        pre_edges = _edge_multiset(merged)
        pre_bfs = bfs(merged, source)
        compacted = dg.compact()
        post_edges = _edge_multiset(compacted)
        post_bfs = bfs(compacted, source)
        same = np.array_equal(pre_edges, post_edges) and np.array_equal(
            pre_bfs.levels, post_bfs.levels
        )
        report.record(
            None
            if same
            else DynamicFailure(
                check="overlay-vs-compacted",
                algo="bfs",
                graph=case.name,
                policy="-",
                seed=seed,
                detail="compaction changed the edge multiset or BFS levels",
            )
        )
    report.seconds = time.perf_counter() - t0
    return report
