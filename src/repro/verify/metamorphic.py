"""Metamorphic oracles: known output transformations under known input
transformations, checked without any reference implementation.

Differential testing (``matrix.py``) asks "do all variants agree with
the oracle?"; metamorphic testing asks "does the implementation respect
the *mathematics*?" — properties that hold even where no baseline
exists:

* **weight scaling** — multiplying every edge weight by ``c > 0``
  multiplies every SSSP distance by exactly ``c`` (shortest paths are
  scale-invariant in which edges they use);
* **isolated-vertex insertion** — appending vertices with no edges must
  not change any result on the original vertices (SSSP distances, BFS
  levels, component partition), and the new vertices must come out
  unreachable / singleton;
* **vertex relabeling** — running on a permuted copy of the graph must
  produce the permutation of the original answer (equivariance: the
  algorithm cannot secretly depend on vertex ids).

Each failed relation is reported with the graph, algorithm, relation
name and a replay hint, mirroring the matrix runner's contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.algorithms.bfs import bfs
from repro.algorithms.cc import connected_components
from repro.algorithms.sssp import sssp
from repro.graph.builder import from_edge_array
from repro.graph.graph import Graph
from repro.types import INF
from repro.verify.comparators import float_allclose, partition_isomorphic
from repro.verify.graph_pool import GraphPool


# -- input transformations ----------------------------------------------------


def scale_weights(graph: Graph, factor: float) -> Graph:
    """A copy of ``graph`` with every edge weight multiplied by ``factor``."""
    coo = graph.coo()
    return from_edge_array(
        coo.rows.copy(),
        coo.cols.copy(),
        coo.vals.astype(np.float64) * factor,
        n_vertices=graph.n_vertices,
        directed=True,  # COO already stores both arcs of undirected edges
    )


def add_isolated_vertices(graph: Graph, k: int) -> Graph:
    """A copy of ``graph`` with ``k`` extra edge-less vertices appended."""
    coo = graph.coo()
    return from_edge_array(
        coo.rows.copy(),
        coo.cols.copy(),
        coo.vals.copy() if graph.properties.weighted else None,
        n_vertices=graph.n_vertices + k,
        directed=True,
    )


def permute_vertices(graph: Graph, perm: np.ndarray) -> Graph:
    """A copy of ``graph`` with vertex ``v`` relabeled to ``perm[v]``."""
    coo = graph.coo()
    perm = np.asarray(perm)
    return from_edge_array(
        perm[coo.rows],
        perm[coo.cols],
        coo.vals.copy() if graph.properties.weighted else None,
        n_vertices=graph.n_vertices,
        directed=True,
    )


# -- report plumbing ----------------------------------------------------------


@dataclass
class MetamorphicFailure:
    """One violated relation, with enough context to replay it."""

    relation: str
    algo: str
    graph: str
    seed: int
    detail: str

    @property
    def repro(self) -> str:
        return (
            f"repro verify --metamorphic --algo {self.algo} "
            f"--graph {self.graph} --seed {self.seed}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (embedded in ledger records)."""
        return {
            "relation": self.relation,
            "algo": self.algo,
            "graph": self.graph,
            "seed": self.seed,
            "detail": self.detail,
            "repro": self.repro,
        }


@dataclass
class MetamorphicReport:
    """Outcome of one metamorphic sweep."""

    seed: int
    checks_run: int = 0
    checks_passed: int = 0
    failures: List[MetamorphicFailure] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, failure: Optional[MetamorphicFailure]) -> None:
        """Count one check; ``None`` means the relation held."""
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


# -- the relations ------------------------------------------------------------


def check_weight_scaling(
    graph: Graph,
    name: str,
    *,
    source: int,
    seed: int,
    factor: float = 3.5,
) -> Optional[MetamorphicFailure]:
    """``sssp(c·G) == c · sssp(G)`` for any ``c > 0``."""
    base = sssp(graph, source).distances.astype(np.float64)
    scaled = sssp(scale_weights(graph, factor), source).distances.astype(
        np.float64
    )
    want = np.where(base >= INF, np.float64(INF), base * factor)
    got = np.where(scaled >= INF, np.float64(INF), scaled)
    outcome = float_allclose(got, want, atol=1e-3, rtol=1e-4)
    if outcome.ok:
        return None
    return MetamorphicFailure(
        relation="weight-scaling",
        algo="sssp",
        graph=name,
        seed=seed,
        detail=f"sssp({factor}*G) != {factor}*sssp(G): {outcome.detail}",
    )


def check_isolated_vertices(
    graph: Graph,
    name: str,
    *,
    source: int,
    seed: int,
    k: int = 3,
) -> Optional[MetamorphicFailure]:
    """Appending edge-less vertices is a no-op on the original answers."""
    n = graph.n_vertices
    grown = add_isolated_vertices(graph, k)

    base_d = sssp(graph, source).distances
    grown_d = sssp(grown, source).distances
    if not np.array_equal(base_d, grown_d[:n]):
        return MetamorphicFailure(
            relation="isolated-vertices",
            algo="sssp",
            graph=name,
            seed=seed,
            detail="sssp distances on original vertices changed",
        )
    if not bool(np.all(grown_d[n:] >= INF)):
        return MetamorphicFailure(
            relation="isolated-vertices",
            algo="sssp",
            graph=name,
            seed=seed,
            detail="appended isolated vertices came out reachable",
        )

    base_l = bfs(graph, source).levels
    grown_l = bfs(grown, source).levels
    if not np.array_equal(base_l, grown_l[:n]):
        return MetamorphicFailure(
            relation="isolated-vertices",
            algo="bfs",
            graph=name,
            seed=seed,
            detail="bfs levels on original vertices changed",
        )

    base_c = connected_components(graph).labels
    grown_c = connected_components(grown).labels
    outcome = partition_isomorphic(base_c, grown_c[:n])
    if not outcome.ok:
        return MetamorphicFailure(
            relation="isolated-vertices",
            algo="cc",
            graph=name,
            seed=seed,
            detail=f"component partition changed: {outcome.detail}",
        )
    tail = grown_c[n:]
    if len(set(tail.tolist())) != k or bool(
        np.isin(tail, grown_c[:n]).any() and n > 0
    ):
        return MetamorphicFailure(
            relation="isolated-vertices",
            algo="cc",
            graph=name,
            seed=seed,
            detail="appended isolated vertices are not singleton components",
        )
    return None


def check_permutation(
    graph: Graph, name: str, *, source: int, seed: int
) -> Optional[MetamorphicFailure]:
    """Relabeling vertices permutes the answer (equivariance)."""
    n = graph.n_vertices
    if n == 0:
        return None
    rng = np.random.default_rng(seed * 7919 + 17)
    perm = rng.permutation(n)
    permuted = permute_vertices(graph, perm)

    base_d = sssp(graph, source).distances
    perm_d = sssp(permuted, int(perm[source])).distances
    # dist'(perm[v]) must equal dist(v).
    if not np.allclose(perm_d[perm], base_d, atol=1e-4, rtol=1e-4):
        bad = int(np.argmax(~np.isclose(perm_d[perm], base_d, atol=1e-4)))
        return MetamorphicFailure(
            relation="permutation",
            algo="sssp",
            graph=name,
            seed=seed,
            detail=(
                f"sssp not relabel-equivariant: vertex {bad} has "
                f"dist {base_d[bad]:g} but its image {int(perm[bad])} "
                f"got {perm_d[perm[bad]]:g}"
            ),
        )

    base_l = bfs(graph, source).levels
    perm_l = bfs(permuted, int(perm[source])).levels
    if not np.array_equal(perm_l[perm], base_l):
        return MetamorphicFailure(
            relation="permutation",
            algo="bfs",
            graph=name,
            seed=seed,
            detail="bfs levels not relabel-equivariant",
        )

    base_c = connected_components(graph).labels
    perm_c = connected_components(permuted).labels
    outcome = partition_isomorphic(perm_c[perm], base_c)
    if not outcome.ok:
        return MetamorphicFailure(
            relation="permutation",
            algo="cc",
            graph=name,
            seed=seed,
            detail=f"cc partition not relabel-equivariant: {outcome.detail}",
        )
    return None


#: Relation name -> checker; every checker takes (graph, name, source, seed).
RELATIONS = {
    "weight-scaling": check_weight_scaling,
    "isolated-vertices": check_isolated_vertices,
    "permutation": check_permutation,
}


def run_metamorphic(
    *,
    seed: int = 0,
    quick: bool = True,
    graphs: Optional[Sequence[str]] = None,
    relations: Optional[Sequence[str]] = None,
    pool: Optional[GraphPool] = None,
) -> MetamorphicReport:
    """Sweep every relation over the adversarial graph pool."""
    t0 = time.perf_counter()
    pool = pool or GraphPool(seed=seed, quick=quick)
    report = MetamorphicReport(seed=seed)
    names = relations if relations is not None else sorted(RELATIONS)
    for rel in names:
        if rel not in RELATIONS:
            raise KeyError(
                f"unknown metamorphic relation {rel!r}; expected one of "
                f"{sorted(RELATIONS)}"
            )
    for case in pool.cases():
        if graphs is not None and case.name not in set(graphs):
            continue
        graph = pool.graph(case.name)
        if graph.n_vertices == 0:
            continue
        # weight-scaling presumes meaningfully weighted, nonnegative edges
        for rel in names:
            if rel == "weight-scaling" and not graph.properties.weighted:
                continue
            report.record(
                RELATIONS[rel](
                    graph, case.name, source=case.source or 0, seed=seed
                )
            )
    report.seconds = time.perf_counter() - t0
    return report
