"""Tests for message passing: the Pregel engine on the enactor loop."""

import numpy as np
import pytest

from repro.algorithms.pregel_programs import SSSPProgram, pregel_sssp
from repro.algorithms.sssp import sssp
from repro.comm import PregelEngine, VertexProgram
from repro.errors import CommunicationError, ConvergenceError
from repro.graph import from_edge_list
from repro.graph.generators import chain, grid_2d
from repro.partition import metis_like_partition, random_partition
from repro.types import INF


class _MaxValue(VertexProgram):
    merge = np.maximum

    def apply(self, superstep, values, inbox, has_msg, active, aggregated):
        if superstep == 0:
            return values, active, None
        won = active[inbox[active] > values[active]]
        values[won] = inbox[won]
        return values, won, None


class _Recorder(VertexProgram):
    """Logs what each superstep's ``apply`` sees; superstep 0 sends."""

    def __init__(self, merge=np.minimum):
        self.merge = merge
        self.seen = []

    def apply(self, superstep, values, inbox, has_msg, active, aggregated):
        got = np.flatnonzero(has_msg)
        self.seen.append(
            (superstep, active.tolist(), got.tolist(), inbox[got].tolist())
        )
        return values, (active if superstep == 0 else None), None


class TestPregelEngine:
    def test_max_value_floods_chain(self):
        g = chain(8)
        engine = PregelEngine(g)
        vals = engine.run(_MaxValue(), np.arange(8, dtype=float))
        assert np.all(vals == 7.0)
        # Value must travel the diameter: supersteps >= 7.
        assert engine.stats.supersteps >= 7

    def test_partitioned_matches_single_rank(self):
        g = grid_2d(4, 4)
        single = PregelEngine(g).run(_MaxValue(), np.arange(16, dtype=float))
        owner = np.arange(16) % 4
        multi = PregelEngine(g, owner_of=owner).run(
            _MaxValue(), np.arange(16, dtype=float)
        )
        assert np.array_equal(single, multi)

    def test_remote_traffic_counted_for_partitions(self):
        g = chain(8)
        owner = (np.arange(8) >= 4).astype(int)  # two halves
        engine = PregelEngine(g, owner_of=owner)
        engine.run(_MaxValue(), np.arange(8, dtype=float))
        assert engine.stats.remote_messages > 0
        assert engine.stats.local_messages > engine.stats.remote_messages
        assert (
            engine.stats.local_messages + engine.stats.remote_messages
            == engine.stats.total_messages
        )

    def test_remote_means_owners_differ(self):
        # 0 -> 1 crosses ranks, 0 -> 2 does not.
        g = from_edge_list([(0, 1), (0, 2)], n_vertices=3, directed=True)
        engine = PregelEngine(g, owner_of=np.array([0, 1, 0]))
        engine.run(_Recorder(), np.zeros(3), initially_active=[0])
        assert engine.stats.total_messages == 2
        assert engine.stats.remote_messages == 1
        assert engine.stats.local_messages == 1

    def test_vote_to_halt_terminates_immediately_when_silent(self):
        class HaltNow(VertexProgram):
            def apply(self, superstep, values, inbox, has_msg, active, aggregated):
                return values, None, None

        g = chain(4)
        engine = PregelEngine(g)
        engine.run(HaltNow(), np.zeros(4))
        assert engine.stats.supersteps == 1

    def test_nonterminating_program_raises(self):
        class Chatty(VertexProgram):
            def apply(self, superstep, values, inbox, has_msg, active, aggregated):
                return values, active, active  # never halts

        g = chain(4)
        engine = PregelEngine(g, max_supersteps=5)
        with pytest.raises(ConvergenceError):
            engine.run(Chatty(), np.zeros(4))

    def test_initially_active_restricts_superstep0(self):
        g = chain(4)
        prog = _Recorder()
        PregelEngine(g).run(prog, np.zeros(4), initially_active=[2])
        assert prog.seen[0][:2] == (0, [2])

    def test_superstep_delivery_is_barriered(self):
        g = chain(3)
        prog = _Recorder()
        PregelEngine(g).run(prog, np.array([5.0, 6.0, 7.0]), initially_active=[1])
        # Sent in superstep 0, seen (and only seen) in superstep 1.
        assert prog.seen == [(0, [1], [], []), (1, [0, 2], [0, 2], [6.0, 6.0])]

    @pytest.mark.parametrize(
        "merge,expected", [(np.minimum, 1.0), (np.maximum, 3.0), (np.add, 4.0)]
    )
    def test_merge_folds_at_receiver(self, merge, expected):
        g = from_edge_list([(0, 2), (1, 2)], n_vertices=3, directed=True)
        prog = _Recorder(merge)
        PregelEngine(g).run(prog, np.array([1.0, 3.0, 0.0]), initially_active=[0, 1])
        assert prog.seen[1] == (1, [2], [2], [expected])

    def test_bad_shapes_rejected(self):
        g = chain(4)
        with pytest.raises(CommunicationError):
            PregelEngine(g, owner_of=np.zeros(2, dtype=int))
        with pytest.raises(CommunicationError):
            PregelEngine(g, owner_of=np.array([0, 1, -1, 0]))
        with pytest.raises(CommunicationError):
            PregelEngine(g).run(_MaxValue(), np.zeros(2))
        with pytest.raises(CommunicationError):
            PregelEngine(g).run(_MaxValue(), np.zeros((4, 2)))

    def test_unknown_merge_rejected(self):
        with pytest.raises(CommunicationError):
            PregelEngine(chain(3)).run(_Recorder(np.multiply), np.zeros(3))


class TestAggregators:
    """The Pregel paper's aggregator mechanism: a global reduce over one
    superstep's ``apply`` outputs, visible the next superstep."""

    class _Sum(VertexProgram):
        def __init__(self):
            self.observed = []

        def apply(self, superstep, values, inbox, has_msg, active, aggregated):
            if superstep == 1:
                self.observed.append(aggregated)
            # Superstep 0 keeps everyone active one more round.
            stay = active if superstep == 0 else None
            return values, None, stay

        def aggregate(self, values, senders, stay_active):
            return float(values[stay_active].sum())

    def test_sum_visible_next_superstep(self):
        prog = self._Sum()
        PregelEngine(chain(4)).run(prog, np.arange(4.0))
        assert prog.observed == [0.0 + 1 + 2 + 3]

    def test_default_when_absent(self):
        seen = []

        class NoAgg(VertexProgram):
            def apply(self, superstep, values, inbox, has_msg, active, aggregated):
                seen.append(aggregated)
                return values, None, (active if superstep == 0 else None)

        PregelEngine(chain(3)).run(NoAgg(), np.zeros(3))
        assert seen == [None, None]

    def test_aggregator_folds_across_ranks(self):
        prog = self._Sum()
        owner = np.arange(6) % 3
        PregelEngine(chain(6), owner_of=owner).run(prog, np.ones(6))
        assert prog.observed == [6.0]

    def test_dangling_pagerank_mass_conserved(self):
        """The motivating use: with aggregator redistribution, Pregel
        PageRank sums to 1 even with dangling vertices."""
        from repro.algorithms.pregel_programs import pregel_pagerank

        g = from_edge_list([(0, 1), (0, 2), (3, 0)], n_vertices=4)
        out = pregel_pagerank(g, rounds=40).ranks
        assert out.sum() == pytest.approx(1.0, abs=1e-9)


class TestCommunicationShapes:
    """Table I's communication pillar: shared-memory operators and
    message passing give one answer; placement decides the traffic."""

    @pytest.fixture(scope="class")
    def comm_graph(self, ws10):
        from repro.graph.generators import with_random_weights

        return with_random_weights(ws10, seed=11)

    @staticmethod
    def _remote_messages(graph, assignment):
        engine = PregelEngine(graph, owner_of=assignment)
        engine.run(SSSPProgram(0), np.full(graph.n_vertices, float(INF)))
        return engine.stats.remote_messages

    def test_answers_identical_across_models(self, comm_graph):
        shared = sssp(comm_graph, 0).distances
        finite = shared < INF
        for k in (1, 4):
            owner = (
                None if k == 1 else random_partition(comm_graph, k, seed=1).assignment
            )
            messaged = pregel_sssp(comm_graph, 0, owner_of=owner)
            assert np.allclose(shared[finite], messaged[finite], atol=1e-3)

    def test_remote_traffic_grows_with_k_under_random(self, comm_graph):
        volumes = [
            self._remote_messages(
                comm_graph, random_partition(comm_graph, k, seed=2).assignment
            )
            for k in (2, 4, 8)
        ]
        assert volumes[0] < volumes[-1]

    def test_metis_placement_cuts_remote_traffic(self, comm_graph):
        rand = random_partition(comm_graph, 4, seed=3)
        metis = metis_like_partition(comm_graph, 4, seed=3)
        assert self._remote_messages(comm_graph, metis.assignment) < (
            self._remote_messages(comm_graph, rand.assignment) / 2
        )
