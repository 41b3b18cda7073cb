"""Cooperative cancellation tests: deadlines, tokens, and the guarantee
that a killed query leaves every execution engine reusable.

The service story rests on two properties exercised here:

* **Propagation** — an ambient :class:`CancelToken` stops the BSP
  enactor, the async scheduler, and the Pregel engine at their next
  superstep/quiescence boundary, surfacing
  :class:`DeadlineExceeded` / :class:`QueryCancelled` (never a bare
  ``TimeoutError``, which retry policies would treat as transient).
* **Reusability** — after a cancelled run, thread pools, schedulers,
  and workspaces still work: the same algorithm runs to completion
  immediately afterwards and no worker threads are left behind.
"""

import itertools
import threading
import time

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.ktruss import ktruss_decomposition
from repro.algorithms.pagerank import pagerank
from repro.algorithms.ppr import personalized_pagerank, ppr_forward_push
from repro.algorithms.sssp import sssp, sssp_async
from repro.algorithms.tc import triangle_count
from repro.comm.pregel import PregelEngine, VertexProgram
from repro.errors import (
    CancellationError,
    DeadlineExceeded,
    QueryCancelled,
)
from repro.execution import par
from repro.execution.scheduler import AsyncScheduler
from repro.graph.generators import grid_2d, with_random_weights
from repro.observability import Probe
from repro.operators import intersection
from repro.resilience import (
    CancelToken,
    Deadline,
    RetryPolicy,
    SupervisionConfig,
    active_token,
    check_cancelled,
    clamp_timeout,
    run_with_fallback,
)


@pytest.fixture(scope="module")
def grid():
    return with_random_weights(grid_2d(24, 24), seed=3)


def expired_token(**kwargs):
    return CancelToken.after(0.0, **kwargs)


def settle_threads(baseline, *, timeout=5.0):
    """Wait for transient worker threads to exit; return the final count."""
    deadline = time.monotonic() + timeout
    while (
        threading.active_count() > baseline and time.monotonic() < deadline
    ):
        time.sleep(0.02)
    return threading.active_count()


class TestDeadline:
    def test_after_and_remaining(self):
        d = Deadline.after(10.0)
        assert 9.0 < d.remaining() <= 10.0
        assert not d.expired()

    def test_check_raises_once_expired(self):
        d = Deadline.after(0.0)
        assert d.expired()
        with pytest.raises(DeadlineExceeded, match="over by"):
            d.check("unit")

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)


class TestCancelToken:
    def test_ambient_installation_and_nesting(self):
        assert active_token() is None
        outer = CancelToken.after(60.0, label="outer")
        inner = CancelToken.after(60.0, label="inner")
        with outer:
            assert active_token() is outer
            with inner:
                assert active_token() is inner
            assert active_token() is outer
        assert active_token() is None

    def test_explicit_cancel_raises_query_cancelled(self):
        token = CancelToken()
        token.cancel("client went away")
        with pytest.raises(QueryCancelled, match="client went away"):
            token.check("unit")

    def test_expired_deadline_raises_deadline_exceeded(self):
        with pytest.raises(DeadlineExceeded):
            expired_token().check("unit")

    def test_cancel_is_idempotent_first_reason_wins(self):
        token = CancelToken()
        token.cancel("first")
        token.cancel("second")
        assert token.reason == "first"

    def test_should_stop_never_raises(self):
        token = CancelToken()
        assert not token.should_stop()
        token.cancel()
        assert token.should_stop()

    def test_check_cancelled_helper_noop_without_token(self):
        check_cancelled("nowhere")  # must not raise

    def test_clamp_timeout_folds_ambient_budget(self):
        assert clamp_timeout(5.0) == 5.0
        assert clamp_timeout(None) is None
        with CancelToken.after(1.0):
            clamped = clamp_timeout(100.0)
            assert clamped is not None and clamped <= 1.0
            assert clamp_timeout(None) is not None

    def test_ambient_is_thread_local(self):
        seen = []
        with CancelToken.after(60.0):
            t = threading.Thread(target=lambda: seen.append(active_token()))
            t.start()
            t.join()
        assert seen == [None]


class TestRetryInteraction:
    def test_cancellation_is_not_retried(self):
        """DeadlineExceeded must pass straight through a retry policy —
        it is not an OSError/TimeoutError, so DEFAULT_RETRYABLE misses
        it by construction."""
        calls = []

        def fail():
            calls.append(1)
            raise DeadlineExceeded("budget gone")

        policy = RetryPolicy(max_attempts=5, base_delay=0.0, max_delay=0.0)
        with pytest.raises(DeadlineExceeded):
            policy.execute(fail, site="unit")
        assert len(calls) == 1

    def test_fallback_does_not_degrade_on_cancellation(self):
        """Degrading a cancelled parallel run to sequential would
        overshoot the deadline by design; it must re-raise instead."""
        attempts = []

        def parallel():
            attempts.append(1)
            raise QueryCancelled("cancelled mid-run")

        def sequential():  # pragma: no cover - must not be reached
            raise AssertionError("degraded despite cancellation")

        with pytest.raises(QueryCancelled):
            run_with_fallback(
                parallel,
                sequential,
                config=SupervisionConfig(max_parallel_failures=3),
            )
        assert len(attempts) == 1


class TestEnactorCancellation:
    """Every engine stops at its next boundary under a fired token."""

    def test_bsp_enactor_deadline(self, grid):
        with expired_token():
            with pytest.raises(DeadlineExceeded, match="superstep"):
                sssp(grid, 0, policy="par_vector")

    def test_bsp_enactor_explicit_cancel(self, grid):
        token = CancelToken()
        token.cancel("test cancel")
        with token:
            with pytest.raises(QueryCancelled):
                bfs(grid, 0)

    def test_async_enactor_deadline(self, grid):
        baseline = threading.active_count()
        with expired_token():
            with pytest.raises(CancellationError):
                sssp_async(grid, 0, num_workers=4)
        assert settle_threads(baseline) <= baseline

    def test_pregel_deadline(self, grid):
        class Slow(VertexProgram):
            def apply(self, superstep, values, inbox, has_msg, active, aggregated):
                time.sleep(0.05)  # outlive the deadline inside superstep 0
                return values, active, active

        probe = Probe()
        with probe, CancelToken.after(0.02):
            with pytest.raises(DeadlineExceeded, match="superstep:"):
                PregelEngine(grid).run(Slow(), np.zeros(grid.n_vertices))
        assert any(s.name == "superstep" for s in probe.tracer.spans())


class TestIntersectionCancellation:
    """The intersection operator is ktruss's pre-loop support phase and
    the whole of tc's one superstep: it polls the token itself, in the
    pool threads too, every ``CANCEL_CHECK_PAIRS`` pairs."""

    FIRE_AFTER = 100

    @pytest.mark.parametrize(
        "policy", ["par_vector", par.with_workers(1)], ids=["in_thread", "pool"]
    )
    @pytest.mark.parametrize("algorithm", [ktruss_decomposition, triangle_count])
    def test_deadline_interrupts_the_pair_loop(
        self, monkeypatch, rmat10, algorithm, policy
    ):
        token = CancelToken.after(3600.0)
        calls = itertools.count()
        real = intersection._intersect_size

        def fire_after_k_calls(a, b):
            if next(calls) == self.FIRE_AFTER:
                token.deadline = Deadline(0.0)  # long past
            return real(a, b)

        monkeypatch.setattr(intersection, "_intersect_size", fire_after_k_calls)
        with token:
            with pytest.raises(DeadlineExceeded, match="operator:intersection"):
                algorithm(rmat10, policy=policy)
        further = next(calls) - (self.FIRE_AFTER + 1)
        assert further < intersection.CANCEL_CHECK_PAIRS


class TestSchedulerCancellation:
    """The quiescence engines abort their wait, drain, and join."""

    def _endless(self, capacity):
        def process(item, push):
            time.sleep(0.001)
            push((item + 1) % capacity)

        return process

    def test_async_scheduler_explicit_cancel_aborts(self):
        baseline = threading.active_count()
        scheduler = AsyncScheduler(num_workers=3, poll_timeout=0.005)
        token = CancelToken(label="abort-test")
        token.cancel("test abort")
        with token:
            with pytest.raises(QueryCancelled):
                scheduler.run(self._endless(64), range(8), 64)
        assert settle_threads(baseline) <= baseline

    def test_async_scheduler_deadline_aborts(self):
        scheduler = AsyncScheduler(num_workers=3, poll_timeout=0.005)
        with CancelToken.after(0.1):
            with pytest.raises(DeadlineExceeded):
                scheduler.run(self._endless(64), range(8), 64)


class TestReusabilityAfterCancellation:
    """The acceptance property: kill a query, the engines still work."""

    @pytest.mark.parametrize("policy", ["seq", "par", "par_nosync", "par_vector"])
    def test_sssp_pool_reusable_after_kill(self, grid, policy):
        baseline = threading.active_count()
        with expired_token():
            with pytest.raises(CancellationError):
                sssp(grid, 0, policy=policy)
        # Same policy, no token: must produce the full correct result.
        result = sssp(grid, 0, policy=policy)
        oracle = sssp(grid, 0, policy="seq")
        np.testing.assert_allclose(result.distances, oracle.distances)
        assert settle_threads(baseline + 8) <= baseline + 8

    def test_async_engine_reusable_after_kill(self, grid):
        with expired_token():
            with pytest.raises(CancellationError):
                sssp_async(grid, 0, num_workers=4)
        result = sssp_async(grid, 0, num_workers=4)
        oracle = sssp(grid, 0, policy="seq")
        np.testing.assert_allclose(result.distances, oracle.distances)

    def test_scheduler_object_reusable_after_cancel(self):
        scheduler = AsyncScheduler(num_workers=2, poll_timeout=0.005)
        token = CancelToken()
        token.cancel()
        with token:
            with pytest.raises(QueryCancelled):
                scheduler.run(
                    lambda i, push: time.sleep(0.001) or push((i + 1) % 32),
                    range(4),
                    32,
                )
        done = []
        processed = scheduler.run(
            lambda i, push: done.append(i), range(10), 32
        )
        assert processed == 10 and len(done) == 10


class TestPartialResults:
    """Anytime algorithms return their last iterate, flagged unconverged."""

    def test_pagerank_partial_under_deadline(self, grid):
        with CancelToken.after(0.03):
            partial = pagerank(
                grid, tolerance=0.0, max_iterations=100_000
            )
        assert partial.converged is False
        assert partial.iterations < 100_000
        assert partial.ranks.shape == (grid.n_vertices,)
        assert np.all(np.isfinite(partial.ranks))

    def test_pagerank_partial_ranks_are_last_iterate(self, grid):
        """The partial after k supersteps equals an honest k-iteration
        run — deterministic via a deadline that fires on the (k+1)-th
        cooperative check instead of a wall-clock race."""

        class CountdownDeadline(Deadline):
            __slots__ = ("left",)

            def __init__(self, checks):
                super().__init__(float("inf"))
                self.left = checks

            def expired(self):
                return self.left < 0

            def remaining(self):
                return float("inf") if self.left >= 0 else -1.0

            def check(self, site=""):
                self.left -= 1
                if self.left < 0:
                    raise DeadlineExceeded(f"countdown fired at {site}")

        with CancelToken(CountdownDeadline(3)):
            partial = pagerank(grid, tolerance=0.0, max_iterations=1000)
        assert partial.converged is False
        assert partial.iterations == 3
        capped = pagerank(grid, tolerance=0.0, max_iterations=3)
        np.testing.assert_allclose(partial.ranks, capped.ranks)

    def test_ppr_power_iteration_partial(self, grid):
        token = CancelToken()
        token.cancel("budget")
        with token:
            result = personalized_pagerank(grid, 0, max_iterations=50)
        assert result.converged is False
        assert result.iterations == 0

    def test_ppr_forward_push_partial(self, grid):
        token = CancelToken()
        token.cancel("budget")
        with token:
            result = ppr_forward_push(grid, 0)
        assert result.converged is False

    def test_pagerank_unaffected_without_token(self, grid):
        full = pagerank(grid)
        assert full.converged is True
