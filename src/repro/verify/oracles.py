"""The oracle registry: every algorithm's baseline and equivalence spec.

One :class:`OracleSpec` per algorithm binds together

* ``run(graph, variant, ctx)`` — execute the algorithm under one
  point of the conformance axes (policy × direction × representation ×
  fused) and return its comparable output;
* ``baseline(graph, ctx)`` — an *independently written* reference
  (``dijkstra``, a ``networkx`` wrapper, a ``seq_*``/brute-force
  implementation, or the library's own sequential run when the claim
  under test is purely cross-policy conformance);
* ``compare(got, want, graph, ctx)`` — the per-algorithm tolerance /
  equivalence relation (see :mod:`repro.verify.comparators`);
* ``axes`` — which execution-space dimensions the algorithm exposes,
  i.e. the paper's claim surface for it;
* ``benign_races`` — non-``None`` iff the algorithm is on the race
  checker's benign-race allowlist, with the reason recorded.

The registry is the single source of truth for the matrix runner, the
race checker, pytest fixtures, and ``repro verify --list``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import algorithms
from repro.baselines.brute import (
    brute_core_numbers,
    brute_forest_is_valid,
    brute_spmv,
    brute_truss_numbers,
)
from repro.baselines.dijkstra import dijkstra
from repro.baselines.kruskal import kruskal_mst_weight
from repro.baselines.networkx_ref import nx_betweenness, nx_triangles
from repro.baselines.seq_bfs import sequential_bfs
from repro.baselines.seq_cc import union_find_components
from repro.baselines.seq_pagerank import sequential_pagerank
from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.linalg import MIN_PLUS, OR_AND, spmspv
from repro.operators.advance import neighbors_expand
from repro.operators.fused import claim_levels_condition, min_relax_condition
from repro.types import INF, INVALID_VERTEX, VERTEX_DTYPE
from repro.verify.comparators import (
    CompareOutcome,
    OK,
    ToleranceSpec,
    bfs_parents_valid,
    exact_equal,
    float_allclose,
    partition_isomorphic,
)

#: The standard execution policies every policy-parametric algorithm
#: must agree across.  ``par_proc`` rides the same axis: its sharded
#: rounds must be byte-identical to ``seq`` wherever the exact
#: comparators apply (rank vectors use the tolerance comparator, same
#: as the other parallel policies).
STANDARD_POLICIES: Tuple[str, ...] = (
    "seq", "par", "par_nosync", "par_vector", "par_proc",
)


@dataclass(frozen=True)
class Variant:
    """One point in the execution design space."""

    policy: Optional[str] = None
    direction: Optional[str] = None
    representation: Optional[str] = None
    fused: Optional[bool] = None
    #: ``None`` = native-graph execution (the default path); ``"linalg"``
    #: = the algorithm's second implementation under that name (scipy's
    #: SpGEMM).
    backend: Optional[str] = None

    def label(self) -> str:
        """Slash-joined human label, e.g. ``par/pull/dense/fused``."""
        parts = []
        if self.policy is not None:
            parts.append(self.policy)
        if self.direction is not None:
            parts.append(self.direction)
        if self.representation is not None:
            parts.append(self.representation)
        if self.fused is not None:
            parts.append("fused" if self.fused else "unfused")
        if self.backend is not None:
            parts.append(self.backend)
        return "/".join(parts) or "default"


@dataclass(frozen=True)
class Axes:
    """The design-space dimensions one algorithm exposes.

    ``None`` in a tuple means "the algorithm has no such knob"; the
    variant carries ``None`` through so repro commands stay minimal.
    """

    policies: Tuple[Optional[str], ...] = (None,)
    directions: Tuple[Optional[str], ...] = (None,)
    representations: Tuple[Optional[str], ...] = (None,)
    fused: Tuple[Optional[bool], ...] = (None,)
    backends: Tuple[Optional[str], ...] = (None,)

    def variants(self, *, quick: bool = False) -> List[Variant]:
        """Full cross product, or (quick) every policy with the other
        axes pinned to their first (default) value — plus, so every
        backend stays live in the quick gate, one variant per
        non-default backend at the default policy."""
        if quick:
            combos = {
                Variant(
                    policy=p,
                    direction=self.directions[0],
                    representation=self.representations[0],
                    fused=self.fused[0],
                    backend=self.backends[0],
                )
                for p in self.policies
            }
            combos |= {
                Variant(
                    policy=self.policies[0],
                    direction=self.directions[0],
                    representation=self.representations[0],
                    fused=self.fused[0],
                    backend=b,
                )
                for b in self.backends[1:]
            }
            return sorted(combos, key=lambda v: v.label())
        return [
            Variant(
                policy=p,
                direction=d,
                representation=r,
                fused=f,
                backend=b,
            )
            for p, d, r, f, b in product(
                self.policies,
                self.directions,
                self.representations,
                self.fused,
                self.backends,
            )
        ]


@dataclass(frozen=True)
class RunContext:
    """Deterministic per-cell context: everything a run may draw on."""

    seed: int = 0
    source: int = 0

    def rng(self, salt: int = 0) -> np.random.Generator:
        """A deterministic generator derived from (seed, salt)."""
        return np.random.default_rng((self.seed * 7919 + salt) % 2**63)

    def target(self, graph: Graph) -> int:
        """The conventional astar target: the last vertex."""
        return max(graph.n_vertices - 1, 0)


@dataclass(frozen=True)
class OracleSpec:
    """One algorithm's conformance contract."""

    name: str
    run: Callable[[Graph, Variant, RunContext], Any]
    baseline: Optional[Callable[[Graph, RunContext], Any]]
    compare: Callable[[Any, Any, Graph, RunContext], CompareOutcome]
    axes: Axes
    baseline_name: str
    comparator_name: str
    requires: Tuple[str, ...] = ()
    excludes: Tuple[str, ...] = ()
    #: Reason the algorithm's data races are benign (race-checker
    #: allowlist); ``None`` = any observed divergence is a defect.
    benign_races: Optional[str] = None
    description: str = ""

    def accepts(self, case) -> bool:
        """Whether a pool case is in this algorithm's domain."""
        if not all(tag in case.tags for tag in self.requires):
            return False
        return not any(tag in case.tags for tag in self.excludes)


REGISTRY: Dict[str, OracleSpec] = {}


def register(spec: OracleSpec) -> OracleSpec:
    """Add a spec to the global registry (duplicate names rejected)."""
    if spec.name in REGISTRY:
        raise ValueError(f"duplicate oracle spec {spec.name!r}")
    REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> OracleSpec:
    """Look up one oracle spec by algorithm name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; expected one of {sorted(REGISTRY)}"
        ) from None


def spec_names() -> List[str]:
    """Sorted names of every registered algorithm."""
    return sorted(REGISTRY)


# -- comparison helpers --------------------------------------------------------

_DIST_TOL = ToleranceSpec("float-atol", atol=1e-4, rtol=1e-4)
_RANK_TOL = ToleranceSpec("float-atol", atol=1e-4, rtol=1e-3)


def _cmp_distances(got, want, graph, ctx):
    return _DIST_TOL.compare(got, want)


def _cmp_exact(got, want, graph, ctx):
    return exact_equal(got, want)


def _cmp_partition(got, want, graph, ctx):
    return partition_isomorphic(got, want)


def _cmp_ranks(got, want, graph, ctx):
    return _RANK_TOL.compare(got, want)


# -- sssp family ---------------------------------------------------------------


def _sssp_kwargs(variant: Variant) -> dict:
    kwargs: dict = {}
    if variant.policy is not None:
        kwargs["policy"] = variant.policy
    if variant.direction is not None:
        kwargs["direction"] = variant.direction
    if variant.representation is not None:
        kwargs["output_representation"] = variant.representation
    return kwargs


def _run_sssp(graph, variant, ctx):
    return algorithms.sssp(graph, ctx.source, **_sssp_kwargs(variant)).distances


def _run_sssp_delta(graph, variant, ctx):
    # A quarter of the mean weight: a narrow near band, so the far pile
    # is exercised on every weighted pool graph.
    values = graph.csr().values
    mean = float(values.mean()) if values.size else 0.0
    return algorithms.sssp(
        graph, ctx.source, delta=mean / 4 if mean > 0 else None,
        **_sssp_kwargs(variant),
    ).distances


def _run_sssp_listing4(graph, variant, ctx):
    return algorithms.sssp(
        graph, ctx.source, policy=variant.policy or "par_vector", delta=math.inf
    ).distances


def _run_sssp_async(graph, variant, ctx):
    workers = 4 if variant.policy == "async" else 2
    return algorithms.sssp_async(
        graph, ctx.source, num_workers=workers, timeout=60.0
    ).distances


def _baseline_dijkstra(graph, ctx):
    return dijkstra(graph, ctx.source)


register(
    OracleSpec(
        name="sssp",
        run=_run_sssp,
        baseline=_baseline_dijkstra,
        compare=_cmp_distances,
        axes=Axes(
            policies=STANDARD_POLICIES,
            directions=("push", "pull", "auto"),
            representations=("sparse", "dense", "auto"),
            fused=(True, False),
        ),
        baseline_name="dijkstra",
        comparator_name="float-atol",
        requires=("has_vertices", "nonnegative"),
        description="Listing 4 label-correcting SSSP, near/far schedule",
    )
)

register(
    OracleSpec(
        name="sssp_delta",
        run=_run_sssp_delta,
        baseline=_baseline_dijkstra,
        compare=_cmp_distances,
        axes=Axes(policies=STANDARD_POLICIES, directions=("push", "pull")),
        baseline_name="dijkstra",
        comparator_name="float-atol",
        requires=("has_vertices", "nonnegative"),
        description="near-far SSSP with a narrow step (delta = mean/4)",
    )
)

register(
    OracleSpec(
        name="sssp_listing4",
        run=_run_sssp_listing4,
        baseline=_baseline_dijkstra,
        compare=_cmp_distances,
        axes=Axes(policies=STANDARD_POLICIES),
        baseline_name="dijkstra",
        comparator_name="float-atol",
        requires=("has_vertices", "nonnegative"),
        description="Listing 4 verbatim: one frontier, no near/far split",
    )
)

register(
    OracleSpec(
        name="sssp_async",
        run=_run_sssp_async,
        baseline=_baseline_dijkstra,
        compare=_cmp_distances,
        axes=Axes(policies=("async",)),
        baseline_name="dijkstra",
        comparator_name="float-atol",
        requires=("has_vertices", "nonnegative"),
        benign_races=(
            "monotone min-relaxation: stale reads only delay convergence, "
            "the atomic min keeps distances correct"
        ),
        description="asynchronous (Atos-style) SSSP to quiescence",
    )
)


# -- bfs -----------------------------------------------------------------------


def _run_bfs(graph, variant, ctx):
    kwargs: dict = {}
    if variant.policy is not None:
        kwargs["policy"] = variant.policy
    if variant.direction is not None:
        kwargs["direction"] = variant.direction
    res = algorithms.bfs(graph, ctx.source, **kwargs)
    return {"levels": res.levels, "parents": res.parents}


def _baseline_bfs(graph, ctx):
    return sequential_bfs(graph, ctx.source)


def _cmp_bfs(got, want, graph, ctx):
    outcome = exact_equal(got["levels"], want)
    if not outcome.ok:
        return CompareOutcome(False, f"levels: {outcome.detail}")
    return bfs_parents_valid(got["parents"], got["levels"], graph, ctx.source)


register(
    OracleSpec(
        name="bfs",
        run=_run_bfs,
        baseline=_baseline_bfs,
        compare=_cmp_bfs,
        axes=Axes(
            policies=STANDARD_POLICIES,
            directions=("push", "pull", "auto"),
            fused=(True, False),
        ),
        baseline_name="seq_bfs",
        comparator_name="exact+parents-tie-tolerant",
        requires=("has_vertices",),
        benign_races=(
            "parent selection among same-level discoverers is a "
            "documented benign race; levels stay exact"
        ),
        description="push/pull/direction-optimized BFS",
    )
)


# -- components ----------------------------------------------------------------


def _run_cc(graph, variant, ctx):
    return algorithms.connected_components(
        graph,
        method="label_propagation",
        policy=variant.policy or "par_vector",
    ).labels


def _run_cc_hooking(graph, variant, ctx):
    return algorithms.connected_components(graph, method="hooking").labels


def _baseline_cc(graph, ctx):
    return union_find_components(graph)


register(
    OracleSpec(
        name="cc",
        run=_run_cc,
        baseline=_baseline_cc,
        compare=_cmp_partition,
        axes=Axes(policies=STANDARD_POLICIES, fused=(True, False)),
        baseline_name="seq_cc",
        comparator_name="partition-isomorphism",
        requires=("has_vertices",),
        benign_races=(
            "label propagation order changes intermediate labels, never "
            "the final partition (min-label fixed point)"
        ),
        description="connected components by label propagation",
    )
)


# Same contract as ``cc``; hooking runs only under the vector executor.
register(
    replace(
        REGISTRY["cc"],
        name="cc_hooking",
        run=_run_cc_hooking,
        axes=Axes(policies=("par_vector",)),
        benign_races=None,
        description="connected components by pruned hook + shortcut",
    )
)


def _run_scc(graph, variant, ctx):
    return algorithms.strongly_connected_components(graph).labels


def _baseline_scc(graph, ctx):
    return algorithms.tarjan_scc(graph)


register(
    OracleSpec(
        name="scc",
        run=_run_scc,
        baseline=_baseline_scc,
        compare=_cmp_partition,
        axes=Axes(),
        baseline_name="tarjan",
        comparator_name="partition-isomorphism",
        requires=("has_vertices",),
        description="strongly connected components (forward-backward)",
    )
)


# -- spectral / ranking --------------------------------------------------------


def _run_pagerank(graph, variant, ctx):
    return algorithms.pagerank(graph, policy=variant.policy or "par_vector").ranks


def _baseline_pagerank(graph, ctx):
    return sequential_pagerank(graph)


register(
    OracleSpec(
        name="pagerank",
        run=_run_pagerank,
        baseline=_baseline_pagerank,
        compare=_cmp_ranks,
        axes=Axes(policies=STANDARD_POLICIES),
        baseline_name="seq_pagerank",
        comparator_name="float-atol",
        requires=("has_vertices",),
        description="damped PageRank with dangling redistribution",
    )
)


def _run_hits(graph, variant, ctx):
    res = algorithms.hits(graph, policy=variant.policy or "par_vector")
    return np.concatenate([res.hubs, res.authorities])


def _baseline_hits(graph, ctx):
    res = algorithms.hits(graph, policy="seq")
    return np.concatenate([res.hubs, res.authorities])


register(
    OracleSpec(
        name="hits",
        run=_run_hits,
        baseline=_baseline_hits,
        compare=_cmp_ranks,
        axes=Axes(policies=STANDARD_POLICIES),
        baseline_name="seq_self",
        comparator_name="float-atol",
        requires=("has_vertices",),
        description="HITS hubs & authorities (policy conformance vs seq)",
    )
)


def _run_ppr(graph, variant, ctx):
    return algorithms.personalized_pagerank(
        graph, ctx.source, policy=variant.policy or "par_vector"
    ).ranks


def _baseline_ppr(graph, ctx):
    return algorithms.personalized_pagerank(graph, ctx.source, policy="seq").ranks


register(
    OracleSpec(
        name="ppr",
        run=_run_ppr,
        baseline=_baseline_ppr,
        compare=_cmp_ranks,
        axes=Axes(policies=STANDARD_POLICIES),
        baseline_name="seq_self",
        comparator_name="float-atol",
        requires=("has_vertices",),
        description="personalized PageRank (policy conformance vs seq)",
    )
)


def _run_bc(graph, variant, ctx):
    return algorithms.betweenness_centrality(
        graph, policy=variant.policy or "par_vector"
    ).centrality


def _baseline_bc(graph, ctx):
    return nx_betweenness(graph, normalized=False)


def _cmp_bc(got, want, graph, ctx):
    return float_allclose(got, want, atol=1e-5, rtol=1e-5)


register(
    OracleSpec(
        name="bc",
        run=_run_bc,
        baseline=_baseline_bc,
        compare=_cmp_bc,
        axes=Axes(policies=STANDARD_POLICIES),
        baseline_name="networkx_ref",
        comparator_name="float-atol",
        requires=("has_vertices",),
        excludes=("multi_edges",),
        description="Brandes betweenness centrality (unweighted)",
    )
)


# -- structure / cohesion ------------------------------------------------------


def _run_tc(graph, variant, ctx):
    return algorithms.triangle_count(
        graph, policy=variant.policy or "par"
    ).total


def _baseline_tc(graph, ctx):
    return nx_triangles(graph)


register(
    OracleSpec(
        name="tc",
        run=_run_tc,
        baseline=_baseline_tc,
        compare=_cmp_exact,
        axes=Axes(policies=STANDARD_POLICIES),
        baseline_name="networkx_ref",
        comparator_name="exact",
        requires=("has_vertices", "undirected"),
        description="triangle counting by segmented intersection",
    )
)


def _run_kcore(graph, variant, ctx):
    return algorithms.kcore_decomposition(
        graph, policy=variant.policy or "par_vector"
    ).core_numbers


def _baseline_kcore(graph, ctx):
    return brute_core_numbers(graph)


register(
    OracleSpec(
        name="kcore",
        run=_run_kcore,
        baseline=_baseline_kcore,
        compare=_cmp_exact,
        axes=Axes(policies=STANDARD_POLICIES),
        baseline_name="brute_peeling",
        comparator_name="exact",
        requires=("has_vertices", "undirected"),
        description="k-core decomposition by iterative peeling",
    )
)


def _run_ktruss(graph, variant, ctx):
    res = algorithms.ktruss_decomposition(
        graph, policy=variant.policy or "par"
    )
    return {
        (min(int(u), int(v)), max(int(u), int(v))): int(t)
        for u, v, t in zip(res.edge_u, res.edge_v, res.truss_numbers)
    }


def _baseline_ktruss(graph, ctx):
    return brute_truss_numbers(graph)


def _cmp_ktruss(got, want, graph, ctx):
    if set(got) != set(want):
        extra = sorted(set(got) - set(want))[:3]
        missing = sorted(set(want) - set(got))[:3]
        return CompareOutcome(
            False,
            f"edge set mismatch: extra={extra}, missing={missing}",
        )
    for e in sorted(got):
        if got[e] != want[e]:
            return CompareOutcome(
                False,
                f"truss number of edge {e}: got {got[e]}, want {want[e]}",
            )
    return OK


register(
    OracleSpec(
        name="ktruss",
        run=_run_ktruss,
        baseline=_baseline_ktruss,
        compare=_cmp_ktruss,
        axes=Axes(policies=STANDARD_POLICIES),
        baseline_name="brute_peeling",
        comparator_name="exact",
        requires=("has_vertices",),
        description="k-truss decomposition (edge-centric peeling)",
    )
)


def _run_mst(graph, variant, ctx):
    res = algorithms.boruvka_mst(graph, policy=variant.policy or "par_vector")
    return {
        "total_weight": res.total_weight,
        "n_components": res.n_components,
        "edges": (res.edge_sources, res.edge_destinations, res.edge_weights),
    }


def _baseline_mst(graph, ctx):
    labels = union_find_components(graph)
    n_components = len(set(labels.tolist())) if labels.size else 0
    return {
        "total_weight": kruskal_mst_weight(graph),
        "n_components": n_components,
    }


def _cmp_mst(got, want, graph, ctx):
    outcome = float_allclose(
        got["total_weight"], want["total_weight"], atol=1e-3, rtol=1e-5
    )
    if not outcome.ok:
        return CompareOutcome(False, f"total weight: {outcome.detail}")
    if got["n_components"] != want["n_components"]:
        return CompareOutcome(
            False,
            f"component count: got {got['n_components']}, "
            f"want {want['n_components']}",
        )
    ok, why = brute_forest_is_valid(graph, *got["edges"])
    return OK if ok else CompareOutcome(False, why)


register(
    OracleSpec(
        name="mst",
        run=_run_mst,
        baseline=_baseline_mst,
        compare=_cmp_mst,
        axes=Axes(policies=STANDARD_POLICIES),
        baseline_name="kruskal",
        comparator_name="float-atol+forest-validity",
        requires=("has_vertices", "undirected"),
        benign_races=(
            "equal-weight edge ties break differently per policy; the "
            "forest weight and component structure are invariant"
        ),
        description="Borůvka minimum spanning forest",
    )
)


# -- symmetry-breaking (validity-predicate oracles) ----------------------------


def _run_color(graph, variant, ctx):
    res = algorithms.graph_coloring(
        graph, policy=variant.policy or "par_vector", seed=ctx.seed
    )
    return {"colors": res.colors, "n_colors": res.n_colors}


def _cmp_color(got, want, graph, ctx):
    colors = np.asarray(got["colors"])
    coo = graph.coo()
    off = coo.rows != coo.cols
    rows, cols = coo.rows[off], coo.cols[off]
    bad = np.nonzero(colors[rows] == colors[cols])[0]
    if bad.size:
        i = int(bad[0])
        return CompareOutcome(
            False,
            f"improper coloring: edge ({int(rows[i])}, {int(cols[i])}) "
            f"endpoints share color {int(colors[rows[i]])}",
        )
    if graph.n_vertices:
        max_degree = int(np.max(graph.out_degrees()))
        if got["n_colors"] > max_degree + 1:
            return CompareOutcome(
                False,
                f"used {got['n_colors']} colors, greedy bound is "
                f"{max_degree + 1}",
            )
    return OK


register(
    OracleSpec(
        name="color",
        run=_run_color,
        baseline=None,
        compare=_cmp_color,
        axes=Axes(policies=STANDARD_POLICIES),
        baseline_name="validity-predicate",
        comparator_name="predicate",
        requires=("has_vertices",),
        excludes=("self_loops",),
        benign_races=(
            "Jones-Plassmann round composition varies with scheduling; "
            "any proper coloring within the greedy bound is correct"
        ),
        description="greedy parallel coloring (proper-coloring predicate)",
    )
)


def _run_mis(graph, variant, ctx):
    res = algorithms.maximal_independent_set(
        graph, policy=variant.policy or "par_vector", seed=ctx.seed
    )
    return res.in_set


def _cmp_mis(got, want, graph, ctx):
    ok = algorithms.verify_mis(graph, np.asarray(got, dtype=bool))
    return OK if ok else CompareOutcome(
        False, "set is not independent or not maximal"
    )


register(
    OracleSpec(
        name="mis",
        run=_run_mis,
        baseline=None,
        compare=_cmp_mis,
        axes=Axes(policies=STANDARD_POLICIES),
        baseline_name="validity-predicate",
        comparator_name="predicate",
        requires=("has_vertices",),
        excludes=("self_loops",),
        benign_races=(
            "Luby lottery winners depend on scheduling; any maximal "
            "independent set is correct"
        ),
        description="maximal independent set (independence+maximality predicate)",
    )
)


# -- linear algebra ------------------------------------------------------------


def _spmv_x(graph, ctx):
    return ctx.rng(salt=1).uniform(-1.0, 1.0, size=graph.n_vertices)


def _run_spmv(graph, variant, ctx):
    return algorithms.spmv(
        graph, _spmv_x(graph, ctx), policy=variant.policy or "par_vector"
    )


def _baseline_spmv(graph, ctx):
    return brute_spmv(graph, _spmv_x(graph, ctx))


def _cmp_spmv(got, want, graph, ctx):
    return float_allclose(got, want, atol=1e-4, rtol=1e-4)


register(
    OracleSpec(
        name="spmv",
        run=_run_spmv,
        baseline=_baseline_spmv,
        compare=_cmp_spmv,
        axes=Axes(policies=STANDARD_POLICIES),
        baseline_name="brute_coo",
        comparator_name="float-atol",
        requires=("has_vertices",),
        description="SpMV over the native-graph API",
    )
)


def _run_spgemm(graph, variant, ctx):
    res = algorithms.spgemm(
        graph, graph, backend=variant.backend or "native"
    )
    coo = res.coo()
    order = np.lexsort((coo.cols, coo.rows))
    return {
        "rows": coo.rows[order].astype(np.int64),
        "cols": coo.cols[order].astype(np.int64),
        "vals": coo.vals[order].astype(np.float64),
    }


def _baseline_spgemm(graph, ctx):
    # Dense A·A — independent of both sparse formulations.  Pool graphs
    # are small, so the n×n temporary is cheap.
    n = graph.n_vertices
    coo = graph.coo()
    dense = np.zeros((n, n), dtype=np.float64)
    np.add.at(
        dense,
        (coo.rows.astype(np.int64), coo.cols.astype(np.int64)),
        coo.vals.astype(np.float64),
    )
    prod = dense @ dense
    rows, cols = np.nonzero(prod)
    return {"rows": rows, "cols": cols, "vals": prod[rows, cols]}


def _cmp_spgemm(got, want, graph, ctx):
    # Compare as sparse maps where a zero-valued stored entry and an
    # absent one are equivalent (zero-weight edges realize pairs
    # structurally in the native formulation; the dense baseline and
    # scipy prune them).
    gd = {
        (int(r), int(c)): float(v)
        for r, c, v in zip(got["rows"], got["cols"], got["vals"])
    }
    wd = {
        (int(r), int(c)): float(v)
        for r, c, v in zip(want["rows"], want["cols"], want["vals"])
    }
    for key in sorted(set(gd) | set(wd)):
        g, w = gd.get(key, 0.0), wd.get(key, 0.0)
        if abs(g - w) > 1e-3 + 1e-4 * abs(w):
            return CompareOutcome(
                False, f"entry {key}: got {g!r}, want {w!r}"
            )
    return OK


register(
    OracleSpec(
        name="spgemm",
        run=_run_spgemm,
        baseline=_baseline_spgemm,
        compare=_cmp_spgemm,
        axes=Axes(backends=(None, "linalg")),
        baseline_name="dense_matmul",
        comparator_name="pattern-exact+float-atol",
        requires=("has_vertices",),
        description="SpGEMM (A·A) vs a dense matmul baseline",
    )
)


# -- the graph/matrix duality (§IV-A) ----------------------------------------

#: BFS level of the seeded frontier; settled vertices sit below it.
_FRONTIER_LEVEL = 2


def _advance_state(graph, ctx):
    """A seeded mid-traversal state: ``(frontier, dist, levels)``.

    Every frontier vertex holds distance 1.0 and level
    ``_FRONTIER_LEVEL``; about a third of the rest are settled, with
    random distances in [0, 4) and lower levels.  Frontier values are
    equal so that, with nonnegative weights, no frontier vertex improves
    within the superstep — the result then cannot depend on the order a
    policy applies the edges in, and one SpMSpV describes it exactly.
    """
    n = graph.n_vertices
    rng = ctx.rng(salt=2)
    frontier = np.unique(
        np.append(rng.choice(n, size=max(1, n // 4)), ctx.source)
    )
    settled = rng.random(n) < 1 / 3
    dist = np.where(settled, rng.uniform(0.0, 4.0, n), np.inf)
    levels = np.where(settled, rng.integers(0, _FRONTIER_LEVEL, n), -1)
    dist[frontier] = 1.0
    levels[frontier] = _FRONTIER_LEVEL
    return frontier, dist, levels


def _run_advance_semiring(graph, variant, ctx):
    frontier, dist, levels = _advance_state(graph, ctx)
    parents = np.full(graph.n_vertices, INVALID_VERTEX, dtype=VERTEX_DTYPE)

    def expand(condition):
        out = neighbors_expand(
            variant.policy or "par_vector",
            graph,
            SparseFrontier.from_indices(frontier, graph.n_vertices),
            condition,
            direction=variant.direction or "push",
        )
        return np.unique(out.to_indices()).astype(np.int64)

    relaxed = expand(min_relax_condition(dist))
    claimed = expand(claim_levels_condition(levels, parents))
    return {"dist": dist, "relaxed": relaxed, "levels": levels, "claimed": claimed}


def _baseline_advance_semiring(graph, ctx):
    # The same superstep as masked semiring products: (min, +) plus the
    # improvement filter, and (or, and) under the visited complement.
    frontier, dist, levels = _advance_state(graph, ctx)
    candidate, touched = spmspv(graph, frontier, dist, semiring=MIN_PLUS)
    relaxed = touched[candidate[touched] < dist[touched]]
    dist[relaxed] = candidate[relaxed]
    _, claimed = spmspv(
        graph, frontier, levels >= 0, semiring=OR_AND,
        mask=levels >= 0, complement=True,
    )
    levels[claimed] = _FRONTIER_LEVEL + 1
    return {"dist": dist, "relaxed": relaxed, "levels": levels, "claimed": claimed}


def _cmp_advance_semiring(got, want, graph, ctx):
    for key in ("dist", "relaxed", "levels", "claimed"):
        outcome = exact_equal(got[key], want[key])
        if not outcome.ok:
            return CompareOutcome(False, f"{key}: {outcome.detail}")
    return OK


register(
    OracleSpec(
        name="advance_semiring",
        run=_run_advance_semiring,
        baseline=_baseline_advance_semiring,
        compare=_cmp_advance_semiring,
        axes=Axes(
            policies=STANDARD_POLICIES,
            directions=("push", "pull"),
            fused=(True, False),
        ),
        baseline_name="spmspv",
        comparator_name="exact",
        requires=("has_vertices", "nonnegative"),
        description=(
            "one advance superstep == masked SpMSpV over (min, +) and (or, and)"
        ),
    )
)


# -- pathfinding ---------------------------------------------------------------


def _run_astar(graph, variant, ctx):
    res = algorithms.astar(graph, ctx.source, ctx.target(graph))
    return {"distance": res.distance, "path": res.path}


def _baseline_astar(graph, ctx):
    return dijkstra(graph, ctx.source)


def _cmp_astar(got, want, graph, ctx):
    target = ctx.target(graph)
    want_d = float(want[target]) if graph.n_vertices else 0.0
    outcome = float_allclose(got["distance"], want_d, atol=1e-4, rtol=1e-4)
    if not outcome.ok:
        return CompareOutcome(False, f"target distance: {outcome.detail}")
    path = got["path"]
    if got["distance"] >= INF:  # unreachable sentinel (float32 max)
        return OK if not path else CompareOutcome(
            False, f"unreachable target but non-empty path {path}"
        )
    if path[0] != ctx.source or path[-1] != target:
        return CompareOutcome(
            False, f"path endpoints {path[0]}..{path[-1]} are not "
            f"{ctx.source}..{target}"
        )
    for a, b in zip(path, path[1:]):
        if not graph.has_edge(a, b):
            return CompareOutcome(
                False, f"path edge ({a} -> {b}) does not exist"
            )
    return OK


register(
    OracleSpec(
        name="astar",
        run=_run_astar,
        baseline=_baseline_astar,
        compare=_cmp_astar,
        axes=Axes(),
        baseline_name="dijkstra",
        comparator_name="float-atol+path-validity",
        requires=("has_vertices", "nonnegative"),
        description="A* optimal pathfinding (zero heuristic = Dijkstra)",
    )
)
