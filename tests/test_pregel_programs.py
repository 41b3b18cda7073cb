"""Tests for the Pregel-model algorithm ports."""

import numpy as np
import pytest

from repro.algorithms import pagerank, sssp
from repro.algorithms.pregel_programs import (
    ComponentsProgram,
    MaxValueProgram,
    PageRankProgram,
    SSSPProgram,
    pregel_components,
    pregel_pagerank,
    pregel_sssp,
)
from repro.baselines import dijkstra, union_find_components
from repro.comm.pregel import PregelEngine
from repro.graph.generators import (
    chain,
    erdos_renyi_gnp,
    grid_2d,
    watts_strogatz,
)
from repro.types import INF


class TestMaxValueProgram:
    """The Pregel paper's own introductory example."""

    def test_floods_maximum(self):
        g = chain(12)
        engine = PregelEngine(g)
        values = engine.run(MaxValueProgram(), np.arange(12, dtype=float))
        assert np.all(values == 11.0)

    def test_supersteps_track_distance_to_max(self):
        # Max at one end of a chain: needs ~n supersteps to reach the other.
        g = chain(12)
        engine = PregelEngine(g)
        engine.run(MaxValueProgram(), np.arange(12, dtype=float))
        assert engine.stats.supersteps >= 11


class TestSSSPProgram:
    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: grid_2d(8, 8, weighted=True, seed=1),
            lambda: watts_strogatz(100, 6, 0.1, seed=2),
        ],
        ids=["grid", "ws"],
    )
    def test_matches_dijkstra(self, make_graph):
        g = make_graph()
        out = pregel_sssp(g, 0)
        ref = dijkstra(g, 0)
        finite = ref < 1e37
        assert np.allclose(out[finite], ref[finite], atol=1e-3)
        assert np.all(out[~finite] >= 1e37)

    def test_matches_operator_sssp(self, weighted_grid):
        a = sssp(weighted_grid, 0).distances
        b = pregel_sssp(weighted_grid, 0)
        finite = a < INF
        assert np.allclose(a[finite], b[finite], atol=1e-3)

    def test_unreachable_stays_inf(self, two_component_graph):
        out = pregel_sssp(two_component_graph, 0)
        assert out[4] >= float(INF)


class TestPageRankProgram:
    def test_matches_operator_pagerank_fixed_rounds(self):
        g = erdos_renyi_gnp(60, 0.08, seed=3)  # unweighted
        ours = pagerank(g, tolerance=0.0, max_iterations=30).ranks
        theirs = pregel_pagerank(g, rounds=30).ranks
        assert np.allclose(ours, theirs, atol=1e-8)

    def test_ranks_are_distribution(self):
        g = erdos_renyi_gnp(60, 0.08, seed=4)
        out = pregel_pagerank(g, rounds=20).ranks
        assert out.sum() == pytest.approx(1.0, abs=1e-6)

    def test_result_carries_the_loop_stats(self, tmp_path, capsys):
        """Ranks plus the Enactor's stats, as every registry entry
        returns: superstep 0 seeds the ranks, then one superstep per
        round, so ``repro run`` and a service query report them."""
        from repro.cli import main
        from repro.graph.io import save_graph_npz
        from repro.service.queries import execute_query

        g = erdos_renyi_gnp(60, 0.08, seed=4)
        r = pregel_pagerank(g, rounds=30)
        assert r.stats.num_iterations == 31
        assert r.stats.total_edges_touched > 0
        assert execute_query(g, "pregel_pagerank", {})["iterations"] == 31
        path = tmp_path / "g.npz"
        save_graph_npz(g, str(path))
        assert main(["run", "pregel_pagerank", str(path), "--no-ledger"]) == 0
        assert "pregel_pagerank: 31 supersteps" in capsys.readouterr().out

    def test_round_budget_respected(self):
        g = chain(10)
        engine = PregelEngine(g)
        engine.run(PageRankProgram(10, rounds=7), np.full(10, 0.1))
        # rounds supersteps of sending + one halt round (+ message drain).
        assert engine.stats.supersteps <= 9


class TestWorkAccounting:
    """A superstep books the edges its send scanned: one per message, so
    a superstep where no vertex sends books none."""

    @pytest.mark.parametrize("program", ["sssp", "pagerank"])
    def test_edges_touched_are_messages_sent(self, small_rmat, program):
        n = small_rmat.n_vertices
        engine = PregelEngine(small_rmat)
        if program == "sssp":
            engine.run(SSSPProgram(0), np.full(n, float(INF)))
        else:
            engine.run(PageRankProgram(n, rounds=10), np.full(n, 1.0 / n))
        assert engine.stats.total_messages > 0
        assert (
            engine.run_stats.total_edges_touched == engine.stats.total_messages
        )


class TestComponentsProgram:
    def test_matches_union_find(self):
        g = watts_strogatz(120, 4, 0.02, seed=5)
        labels = pregel_components(g)
        assert np.array_equal(labels, union_find_components(g))

    def test_disconnected(self, two_component_graph):
        labels = pregel_components(two_component_graph)
        assert labels[0] == labels[1] == labels[2] == 0
        assert labels[3] == labels[4] == 3

    def test_partitioned_invariant(self):
        g = watts_strogatz(80, 4, 0.05, seed=6)
        single = pregel_components(g)
        owner = np.arange(80) % 4
        multi = pregel_components(g, owner_of=owner)
        assert np.array_equal(single, multi)


#: ``(supersteps, total_messages, remote_messages)`` of each program on
#: rmat-10 and a weighted grid-64, unpartitioned and under a 4-way random
#: partition — recorded from the per-vertex mailbox engine this
#: vectorised one replaced, so a port that sends one message more or
#: one superstep longer fails here.
PINNED_TRAFFIC = {
    ("rmat10", "none", "max"): (6, 32974, 0),
    ("rmat10", "none", "sssp"): (6, 16154, 0),
    ("rmat10", "none", "pagerank"): (6, 60240, 0),
    ("rmat10", "none", "cc"): (5, 25949, 0),
    ("rmat10", "random4", "max"): (6, 32974, 24503),
    ("rmat10", "random4", "sssp"): (6, 16154, 12002),
    ("rmat10", "random4", "pagerank"): (6, 60240, 44745),
    ("rmat10", "random4", "cc"): (5, 25949, 19275),
    ("grid64", "none", "max"): (94, 116053, 0),
    ("grid64", "none", "sssp"): (129, 40218, 0),
    ("grid64", "none", "pagerank"): (6, 80640, 0),
    ("grid64", "none", "cc"): (128, 1032192, 0),
    ("grid64", "random4", "max"): (94, 116053, 87621),
    ("grid64", "random4", "sssp"): (129, 40218, 30621),
    ("grid64", "random4", "pagerank"): (6, 80640, 61000),
    ("grid64", "random4", "cc"): (128, 1032192, 779272),
}


@pytest.fixture(scope="module")
def traffic_graphs():
    from repro.graph.generators import rmat

    return {
        "rmat10": rmat(10, 16, weighted=True, seed=1),
        "grid64": grid_2d(64, 64, weighted=True, seed=1),
    }


@pytest.mark.parametrize("key", sorted(PINNED_TRAFFIC), ids="-".join)
def test_traffic_matches_pinned(traffic_graphs, key):
    from repro.partition import random_partition

    graph_name, part, program = key
    g = traffic_graphs[graph_name]
    n = g.n_vertices
    owner = (
        None if part == "none" else random_partition(g, 4, seed=1).assignment
    )
    prog, init = {
        "max": (MaxValueProgram(), np.random.default_rng(0).random(n)),
        "sssp": (SSSPProgram(0), np.full(n, float(INF))),
        "pagerank": (PageRankProgram(n, rounds=5), np.full(n, 1.0 / n)),
        "cc": (ComponentsProgram(), np.arange(n, dtype=np.float64)),
    }[program]
    engine = PregelEngine(g, owner_of=owner)
    values = engine.run(prog, init)
    stats = engine.stats
    assert (
        stats.supersteps,
        stats.total_messages,
        stats.remote_messages,
    ) == PINNED_TRAFFIC[key]
    assert stats.local_messages == stats.total_messages - stats.remote_messages
    if graph_name == "grid64":  # connected: one value floods everywhere
        if program == "max":
            assert np.all(values == init.max())
        if program == "cc":
            assert np.all(values == 0.0)
