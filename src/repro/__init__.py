"""repro — a Python reproduction of *Essentials of Parallel Graph
Analytics* (Osama, Porumbescu, Owens; IPDPSW 2022).

The library implements the paper's native-graph abstraction from its
essential components:

1. **Graph data structure** with interchangeable underlying
   representations (:mod:`repro.graph`): CSR (push), CSC (pull), COO,
   adjacency list — one graph-centric API over all of them.
2. **Frontiers** (:mod:`repro.frontier`): sparse vector, dense bitmap,
   asynchronous queue, edge frontier — one active-set interface.
3. **Operators** (:mod:`repro.operators`): advance / filter / for-each /
   reduce / uniquify / intersection, each overloaded on execution
   policies (:mod:`repro.execution`): ``seq``, ``par``, ``par_nosync``,
   ``par_vector``, ``par_proc``.
4. **Iterative loops with convergence conditions** (:mod:`repro.loop`):
   BSP and asynchronous enactors.

plus the communication substrate (:mod:`repro.comm` — mailbox routing,
Pregel vertex programs), partitioning heuristics (:mod:`repro.partition`),
the algorithm suite (:mod:`repro.algorithms`), textbook baselines
(:mod:`repro.baselines`), the executable Table I
(:mod:`repro.capability`), and a fault-tolerance layer riding the loop
structure (:mod:`repro.resilience` — chaos injection, retry,
checkpoint/resume, worker supervision).

Quickstart (Listing 4 in one call)::

    from repro import generators, sssp, par_vector
    g = generators.rmat(10, 16, weighted=True, seed=7)
    result = sssp(g, source=0, policy=par_vector)
    print(result.distances[:8], result.stats.num_iterations)
"""

from repro import graph
from repro.graph import (
    Graph,
    as_undirected_simple,
    from_edge_array,
    from_edge_list,
    from_csr_arrays,
    from_scipy_sparse,
    from_networkx,
)
from repro.graph import generators
from repro.frontier import (
    SparseFrontier,
    DenseFrontier,
    AsyncQueueFrontier,
    EdgeFrontier,
)
from repro.execution import seq, par, par_nosync, par_proc, par_vector
from repro.operators import (
    neighbors_expand,
    filter_frontier,
    for_each,
    reduce_values,
    uniquify,
)
from repro.loop import Enactor, AsyncEnactor
from repro.resilience import FaultInjector, ResiliencePolicy, RetryPolicy
from repro.algorithms import (
    sssp,
    sssp_async,
    bfs,
    pagerank,
    connected_components,
    betweenness_centrality,
    triangle_count,
    kcore_decomposition,
    graph_coloring,
    spmv,
    hits,
    boruvka_mst,
)
from repro.capability import TABLE_I, verify_capabilities

__version__ = "1.0.0"

__all__ = [
    "graph",
    "Graph",
    "as_undirected_simple",
    "from_edge_array",
    "from_edge_list",
    "from_csr_arrays",
    "from_scipy_sparse",
    "from_networkx",
    "generators",
    "SparseFrontier",
    "DenseFrontier",
    "AsyncQueueFrontier",
    "EdgeFrontier",
    "seq",
    "par",
    "par_nosync",
    "par_proc",
    "par_vector",
    "neighbors_expand",
    "filter_frontier",
    "for_each",
    "reduce_values",
    "uniquify",
    "Enactor",
    "AsyncEnactor",
    "FaultInjector",
    "ResiliencePolicy",
    "RetryPolicy",
    "sssp",
    "sssp_async",
    "bfs",
    "pagerank",
    "connected_components",
    "betweenness_centrality",
    "triangle_count",
    "kcore_decomposition",
    "graph_coloring",
    "spmv",
    "hits",
    "boruvka_mst",
    "TABLE_I",
    "verify_capabilities",
    "__version__",
]
