"""Tests for the loop structure: convergence conditions and enactors."""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.frontier import SparseFrontier
from repro.loop import (
    AllOf,
    AnyOf,
    AsyncEnactor,
    EmptyFrontier,
    Enactor,
    HaltFlag,
    LoopState,
    MaxIterations,
    ValuesConverged,
)


class TestConvergenceConditions:
    def test_empty_frontier(self):
        cond = EmptyFrontier()
        assert cond(LoopState(frontier=SparseFrontier(5)))
        assert not cond(LoopState(frontier=SparseFrontier.from_indices([1], 5)))
        assert cond(LoopState(frontier=None))

    def test_max_iterations(self):
        cond = MaxIterations(3)
        assert not cond(LoopState(iteration=2))
        assert cond(LoopState(iteration=3))
        with pytest.raises(ValueError):
            MaxIterations(-1)

    def test_values_converged_l1(self):
        box = {"v": np.array([1.0, 2.0])}
        cond = ValuesConverged(lambda s: box["v"], tolerance=0.05, norm="l1")
        assert not cond(LoopState())  # first call primes history
        box["v"] = box["v"] + 0.01
        assert cond(LoopState())  # moved 0.02 <= 0.05

    def test_values_converged_linf(self):
        box = {"v": np.zeros(3)}
        cond = ValuesConverged(lambda s: box["v"], tolerance=0.5, norm="linf")
        cond(LoopState())
        box["v"] = np.array([0.0, 0.0, 1.0])
        assert not cond(LoopState())

    def test_values_converged_records_delta(self):
        box = {"v": np.zeros(2)}
        cond = ValuesConverged(lambda s: box["v"], tolerance=0.0)
        state = LoopState()
        cond(state)
        box["v"] = np.array([1.0, 1.0])
        cond(state)
        assert state.context["delta"] == pytest.approx(2.0)

    def test_values_converged_reset(self):
        box = {"v": np.zeros(2)}
        cond = ValuesConverged(lambda s: box["v"], tolerance=1.0)
        cond(LoopState())
        cond.reset()
        assert not cond(LoopState())  # history cleared -> priming again

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ValuesConverged(lambda s: None, tolerance=-1)
        with pytest.raises(ValueError):
            ValuesConverged(lambda s: None, norm="l2")

    def test_halt_flag(self):
        cond = HaltFlag()
        assert not cond(LoopState())
        cond.halt()
        assert cond(LoopState())
        cond.reset()
        assert not cond(LoopState())

    def test_any_of_no_short_circuit(self):
        """Stateful sub-conditions must see every superstep."""
        box = {"v": np.zeros(2)}
        values_cond = ValuesConverged(lambda s: box["v"], tolerance=0.1)
        halt = HaltFlag()
        halt.halt()
        combined = AnyOf([halt, values_cond])
        combined(LoopState())  # halts, but values_cond must still prime
        assert values_cond._previous is not None

    def test_operator_composition(self):
        a, b = HaltFlag(), HaltFlag()
        both = a & b
        either = a | b
        a.halt()
        assert either(LoopState())
        assert not both(LoopState())
        b.halt()
        assert both(LoopState())

    def test_empty_composites_rejected(self):
        with pytest.raises(ValueError):
            AnyOf([])
        with pytest.raises(ValueError):
            AllOf([])


class TestEnactor:
    def test_listing4_loop_shape(self, diamond_graph):
        """A trivial shrink-by-one step converges via EmptyFrontier and
        records one IterationStats per superstep."""
        n = diamond_graph.n_vertices

        def step(frontier, state):
            idx = frontier.to_indices()
            return SparseFrontier.from_indices(idx[1:], n)

        enactor = Enactor(diamond_graph)
        stats = enactor.run(SparseFrontier.from_indices([0, 1, 2], n), step)
        assert stats.converged
        assert stats.num_iterations == 3
        assert [s.frontier_size for s in stats.iterations] == [3, 2, 1]

    def test_preconverged_runs_zero_steps(self, diamond_graph):
        calls = []

        def step(frontier, state):
            calls.append(1)
            return frontier

        stats = Enactor(diamond_graph).run(
            SparseFrontier(diamond_graph.n_vertices), step
        )
        assert stats.converged and not calls

    def test_max_iterations_guard_raises(self, diamond_graph):
        def step(frontier, state):
            return frontier  # never converges

        enactor = Enactor(diamond_graph, max_iterations=5)
        with pytest.raises(ConvergenceError, match="max_iterations"):
            enactor.run(
                SparseFrontier.from_indices([0], diamond_graph.n_vertices), step
            )

    def test_custom_convergence(self, diamond_graph):
        enactor = Enactor(diamond_graph, convergence=MaxIterations(2))
        stats = enactor.run(
            SparseFrontier.from_indices([0], diamond_graph.n_vertices),
            lambda f, s: f,
        )
        assert stats.num_iterations == 2

    def test_edges_touched_accounting(self, diamond_graph):
        def step(frontier, state):
            return SparseFrontier(diamond_graph.n_vertices)

        stats = Enactor(diamond_graph).run(
            SparseFrontier.from_indices([0], diamond_graph.n_vertices), step
        )
        assert stats.iterations[0].edges_touched == 2  # deg(0) == 2

    def test_collect_stats_off(self, diamond_graph):
        enactor = Enactor(diamond_graph, collect_stats=False)
        stats = enactor.run(
            SparseFrontier.from_indices([0], diamond_graph.n_vertices),
            lambda f, s: SparseFrontier(diamond_graph.n_vertices),
        )
        assert stats.converged and stats.num_iterations == 0

    def test_context_passes_through(self, diamond_graph):
        seen = {}

        def step(frontier, state):
            seen.update(state.context)
            return SparseFrontier(diamond_graph.n_vertices)

        Enactor(diamond_graph).run(
            SparseFrontier.from_indices([0], diamond_graph.n_vertices),
            step,
            context={"tag": "hello"},
        )
        assert seen["tag"] == "hello"

    def test_state_iteration_advances(self, diamond_graph):
        iterations = []

        def step(frontier, state):
            iterations.append(state.iteration)
            idx = frontier.to_indices()
            return SparseFrontier.from_indices(
                idx[1:], diamond_graph.n_vertices
            )

        Enactor(diamond_graph).run(
            SparseFrontier.from_indices([0, 1], diamond_graph.n_vertices), step
        )
        assert iterations == [0, 1]


def _calls_per_superstep(run) -> float:
    """Python (``call``) plus C (``c_call``) profile events per superstep
    of ``run()``, measured warm."""
    import sys

    run()  # lazy imports and derived caches are not the floor
    events = [0]

    def count(frame, event, arg):
        if event == "call" or event == "c_call":
            events[0] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return events[0] / result.stats.num_iterations


@pytest.mark.parametrize("algorithm, ceiling", [("bfs", 76), ("sssp", 92)])
def test_superstep_call_floor(algorithm, ceiling):
    # The fixed cost of a superstep is interpreter calls, not edge work:
    # on a high-diameter graph it is most of the run.  Pinned here so
    # the floor only moves down (84 and 108 calls before it was cut).
    import repro
    from repro.graph.generators import grid_2d

    g = grid_2d(64, 64, weighted=True, seed=0)
    entry = getattr(repro, algorithm)
    assert _calls_per_superstep(lambda: entry(g, 0)) <= ceiling


class TestAsyncEnactor:
    def test_quiescence(self, diamond_graph):
        import threading

        seen = []
        lock = threading.Lock()

        def process(v, push):
            with lock:
                seen.append(v)
            if v == 0:
                push(1)
                push(2)

        enactor = AsyncEnactor(diamond_graph, num_workers=2, timeout=10)
        total = enactor.run([0], process)
        assert total == 3
        assert sorted(seen) == [0, 1, 2]

    def test_accepts_frontier_input(self, diamond_graph):
        enactor = AsyncEnactor(diamond_graph, num_workers=2, timeout=10)
        total = enactor.run(
            SparseFrontier.from_indices([0, 1], diamond_graph.n_vertices),
            lambda v, push: None,
        )
        assert total == 2

    def test_timeout_enforced(self, diamond_graph):
        def process(v, push):
            push(v)  # livelock: every task re-enqueues itself

        enactor = AsyncEnactor(diamond_graph, num_workers=1, timeout=0.2)
        with pytest.raises(TimeoutError):
            enactor.run([0], process)
