"""Deep conformance coverage for the historically undertested
algorithms — astar, mst, ktruss, kcore, scc — driven through the
matrix runner's fixtures (oracle + adversarial graph pool) so every
execution policy an algorithm takes is exercised against the same
baseline the ``repro verify`` harness uses.
"""

import numpy as np
import pytest

from repro.algorithms import (
    astar,
    boruvka_mst,
    kcore_decomposition,
    ktruss_decomposition,
    sssp,
    strongly_connected_components,
)
from repro.types import INF
from repro.verify import MatrixRunner, get_spec

#: Policies beyond each algorithm's default, straight from the specs.
NON_DEFAULT_POLICIES = ["seq", "par_nosync", "par_vector"]


@pytest.fixture(scope="module")
def runner():
    """One matrix runner (pool + cached baselines) for the module."""
    return MatrixRunner(seed=0, quick=True)


def _conform_all(runner, algo, **filters):
    """Run every matching cell; return the mismatches (want: none)."""
    cells = runner.cells_for(get_spec(algo), **filters)
    assert cells, f"no {algo} cells matched {filters}"
    return [m for m in map(runner.run_cell, cells) if m is not None]


# -- policy sweeps through the oracle fixtures --------------------------------


#: Entry points of the swept algorithms that take no ``policy``.
POLICY_FREE = {"mst": boruvka_mst, "kcore": kcore_decomposition}


@pytest.mark.parametrize("policy", NON_DEFAULT_POLICIES)
@pytest.mark.parametrize("algo", ["mst", "ktruss", "kcore"])
def test_non_default_policies_conform(runner, algo, policy):
    if algo in POLICY_FREE:
        # No policy axis: the keyword is refused rather than silently
        # ignored, and the one result per pool graph must conform.
        assert get_spec(algo).axes.policies == (None,)
        with pytest.raises(TypeError, match="policy"):
            POLICY_FREE[algo](runner.pool.graph("star16"), policy=policy)
        mismatches = _conform_all(runner, algo)
    else:
        mismatches = _conform_all(runner, algo, policies=[policy])
    assert not mismatches, "\n".join(
        f"{m.cell.label()}: {m.detail} | replay: {m.repro}"
        for m in mismatches
    )


@pytest.mark.parametrize("algo", ["astar", "scc"])
def test_single_policy_algorithms_conform_on_whole_pool(runner, algo):
    mismatches = _conform_all(runner, algo)
    assert not mismatches, "\n".join(
        f"{m.cell.label()}: {m.detail} | replay: {m.repro}"
        for m in mismatches
    )


# -- cross-policy agreement on pool graphs ------------------------------------


def test_ktruss_agrees_across_policies(runner):
    graph = runner.pool.graph("star16")
    trusses = [
        ktruss_decomposition(graph, policy=p).truss_numbers
        for p in ["seq", "par", "par_nosync", "par_vector"]
    ]
    for got in trusses[1:]:
        assert np.array_equal(np.sort(got), np.sort(trusses[0]))


# -- astar: optimality and heuristic-independence -----------------------------


def test_astar_matches_sssp_at_every_target(runner):
    graph = runner.pool.graph("chain32")
    dist = sssp(graph, 0).distances
    for target in range(graph.n_vertices):
        res = astar(graph, 0, target)
        if dist[target] >= INF:
            assert res.distance >= INF
            assert res.path == []
        else:
            assert res.distance == pytest.approx(float(dist[target]))


def test_astar_admissible_heuristic_preserves_optimality(runner):
    """Any admissible heuristic (here 0.9× the true remaining distance)
    must return the same optimal distance as the zero heuristic, while
    settling no more vertices."""
    graph = runner.pool.graph("chain32")
    target = graph.n_vertices - 1
    # True remaining distances via sssp on the reversed graph.
    coo = graph.coo()
    from repro.graph import from_edge_array

    reverse = from_edge_array(
        coo.cols.copy(),
        coo.rows.copy(),
        coo.vals.copy(),
        n_vertices=graph.n_vertices,
        directed=True,
    )
    remaining = sssp(reverse, target).distances

    def heuristic(v):
        r = float(remaining[v])
        return 0.0 if r >= INF else 0.9 * r

    plain = astar(graph, 0, target)
    guided = astar(graph, 0, target, heuristic=heuristic)
    assert guided.distance == pytest.approx(plain.distance)
    assert guided.settled <= plain.settled


# -- scc: cross-checked against an independent implementation -----------------


def test_scc_agrees_with_networkx(runner):
    networkx = pytest.importorskip("networkx")
    for name in ["chain32", "disconnected8", "multiedge4", "selfloops4"]:
        graph = runner.pool.graph(name)
        labels = strongly_connected_components(graph).labels
        coo = graph.coo()
        nxg = networkx.DiGraph()
        nxg.add_nodes_from(range(graph.n_vertices))
        nxg.add_edges_from(zip(coo.rows.tolist(), coo.cols.tolist()))
        expected = {
            v: i
            for i, comp in enumerate(
                networkx.strongly_connected_components(nxg)
            )
            for v in comp
        }
        # Same partition, up to label names.
        ours = {}
        for v in range(graph.n_vertices):
            ours.setdefault(int(labels[v]), set()).add(v)
        theirs = {}
        for v, c in expected.items():
            theirs.setdefault(c, set()).add(v)
        assert sorted(map(sorted, ours.values())) == sorted(
            map(sorted, theirs.values())
        ), name


def test_scc_condensation_is_acyclic(runner):
    graph = runner.pool.graph("multiedge4")
    labels = strongly_connected_components(graph).labels
    coo = graph.coo()
    # Cross-component edges must form a DAG: topological order exists.
    edges = {
        (int(labels[u]), int(labels[v]))
        for u, v in zip(coo.rows.tolist(), coo.cols.tolist())
        if labels[u] != labels[v]
    }
    comps = set(labels.tolist())
    indeg = {c: 0 for c in comps}
    for _, d in edges:
        indeg[d] += 1
    ready = [c for c, k in indeg.items() if k == 0]
    seen = 0
    while ready:
        c = ready.pop()
        seen += 1
        for s, d in edges:
            if s == c:
                indeg[d] -= 1
                if indeg[d] == 0:
                    ready.append(d)
    assert seen == len(comps), "condensation graph has a cycle"
