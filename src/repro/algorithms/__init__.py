"""Graph algorithms expressed through the essential components.

Every algorithm here is a composition of the abstraction's pieces —
graph views, frontiers, policy-overloaded operators, and a convergent
loop — exactly as §IV-D builds SSSP.  The suite mirrors the algorithm
set of the ``gunrock/essentials`` library the paper points to:

========================== ===========================================
module                      algorithm(s)
========================== ===========================================
:mod:`~repro.algorithms.sssp`      SSSP (Listing 4 + near-far), async SSSP
:mod:`~repro.algorithms.bfs`       push / pull / direction-optimized BFS
:mod:`~repro.algorithms.pagerank`  PageRank (BSP)
:mod:`~repro.algorithms.cc`        connected components (hook + shortcut, label propagation)
:mod:`~repro.algorithms.bc`        betweenness centrality (Brandes)
:mod:`~repro.algorithms.tc`        triangle counting (segmented intersection)
:mod:`~repro.algorithms.kcore`     k-core decomposition (iterative peeling)
:mod:`~repro.algorithms.color`     greedy parallel graph coloring (Jones–Plassmann)
:mod:`~repro.algorithms.spmv`      SpMV over the native-graph API
:mod:`~repro.algorithms.hits`      HITS hubs & authorities
:mod:`~repro.algorithms.mst`       Borůvka minimum spanning forest
:mod:`~repro.algorithms.pregel_programs`  Pregel-model ports (SSSP, PageRank, CC, max-value)
========================== ===========================================
"""

from repro.algorithms.sssp import sssp, sssp_async, SSSPResult
from repro.algorithms.community import (
    label_propagation_communities,
    modularity,
    CommunityResult,
)
from repro.algorithms.bfs import bfs, BFSResult
from repro.algorithms.pagerank import pagerank, PageRankResult
from repro.algorithms.cc import connected_components, CCResult
from repro.algorithms.bc import betweenness_centrality, BCResult
from repro.algorithms.tc import triangle_count, TCResult
from repro.algorithms.kcore import kcore_decomposition, KCoreResult
from repro.algorithms.color import graph_coloring, ColoringResult
from repro.algorithms.spmv import spmv, power_iteration
from repro.algorithms.hits import hits, HITSResult
from repro.algorithms.mst import boruvka_mst, MSTResult
from repro.algorithms.ppr import personalized_pagerank, ppr_forward_push, PPRResult
from repro.algorithms.spgemm import spgemm, count_two_hop_paths
from repro.algorithms.random_walk import random_walks, visit_frequencies, WalkResult
from repro.algorithms.mis import maximal_independent_set, verify_mis, MISResult
from repro.algorithms.ktruss import ktruss_decomposition, KTrussResult
from repro.algorithms.geo import geolocate, haversine_km, GeoResult
from repro.algorithms.scc import strongly_connected_components, tarjan_scc, SCCResult
from repro.algorithms.astar import astar, euclidean_heuristic, grid_heuristic, AStarResult

__all__ = [
    "sssp",
    "label_propagation_communities",
    "modularity",
    "CommunityResult",
    "personalized_pagerank",
    "ppr_forward_push",
    "PPRResult",
    "spgemm",
    "count_two_hop_paths",
    "random_walks",
    "visit_frequencies",
    "WalkResult",
    "maximal_independent_set",
    "verify_mis",
    "MISResult",
    "ktruss_decomposition",
    "KTrussResult",
    "geolocate",
    "haversine_km",
    "GeoResult",
    "strongly_connected_components",
    "tarjan_scc",
    "SCCResult",
    "astar",
    "euclidean_heuristic",
    "grid_heuristic",
    "AStarResult",
    "sssp_async",
    "SSSPResult",
    "bfs",
    "BFSResult",
    "pagerank",
    "PageRankResult",
    "connected_components",
    "CCResult",
    "betweenness_centrality",
    "BCResult",
    "triangle_count",
    "TCResult",
    "kcore_decomposition",
    "KCoreResult",
    "graph_coloring",
    "ColoringResult",
    "spmv",
    "power_iteration",
    "hits",
    "HITSResult",
    "boruvka_mst",
    "MSTResult",
]
