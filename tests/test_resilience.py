"""Resilience layer tests: chaos equivalence, checkpoint/resume,
retry/backoff, worker supervision, and the fault-injection machinery.

The headline property (deliverable c): running SSSP / BFS / CC under a
seeded fault injector **with retry enabled** produces results identical
to the fault-free baselines — the monotone-task contract plus
inject-before-mutate means a retried operation replays exactly.  The
``chaos`` marker lets CI sweep extra seeds via ``REPRO_CHAOS_SEED``.
"""

import math
import os
import threading
import time

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.cc import connected_components
from repro.algorithms.sssp import sssp, sssp_async
from repro.errors import (
    AggregateWorkerError,
    CheckpointError,
    FaultInjected,
    RetryExhausted,
    StallDetected,
)
from repro.execution.scheduler import AsyncScheduler
from repro.frontier.sparse import SparseFrontier
from repro.graph.generators import grid_2d, rmat, with_random_weights
from repro.graph.io import read_edgelist
from repro.loop.enactor import Enactor
from repro.resilience import (
    Checkpoint,
    CheckpointStore,
    FaultInjector,
    ResiliencePolicy,
    RetryPolicy,
    SupervisionConfig,
    active_injector,
    run_with_fallback,
    snapshot_arrays,
)
from repro.utils.counters import ResilienceCounters

#: CI sweeps additional chaos seeds by exporting REPRO_CHAOS_SEED.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Rate the issue pins for the equivalence guarantee.
CHAOS_RATE = 0.1

#: Attempts such that the chance of a single operation exhausting retry
#: is rate**attempts ~ 1e-12 — with the pinned seeds it never happens.
ATTEMPTS = 12


def _fast_retry(max_attempts=ATTEMPTS):
    return RetryPolicy(max_attempts=max_attempts, base_delay=0.0, max_delay=0.0)


def _chaos_policy(seed, rate=CHAOS_RATE, **kwargs):
    return ResiliencePolicy(
        chaos=FaultInjector.uniform(seed=seed, rate=rate),
        retry=_fast_retry(),
        **kwargs,
    )


@pytest.fixture
def weighted_rmat():
    return with_random_weights(rmat(8, 8, seed=3), seed=3)


@pytest.fixture
def weighted_grid():
    return with_random_weights(grid_2d(12, 12), seed=1)


# -- fault injector ------------------------------------------------------------------


class TestFaultInjector:
    def test_rates_validated(self):
        with pytest.raises(Exception):
            FaultInjector(task_rate=1.5)
        with pytest.raises(Exception):
            FaultInjector(max_faults=-1)

    def test_decisions_deterministic_per_seed(self):
        a = FaultInjector.uniform(seed=7, rate=0.3)
        b = FaultInjector.uniform(seed=7, rate=0.3)
        seq_a = [a.decide("task") for _ in range(100)]
        seq_b = [b.decide("task") for _ in range(100)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_streams_independent_across_kinds(self):
        # Interleaving decisions of other kinds must not perturb a
        # kind's stream: the k-th task decision depends only on
        # (seed, "task", k).
        a = FaultInjector.uniform(seed=11, rate=0.3)
        b = FaultInjector.uniform(seed=11, rate=0.3)
        seq_a = [a.decide("task") for _ in range(50)]
        seq_b = []
        for _ in range(50):
            b.decide("io")
            seq_b.append(b.decide("task"))
            b.decide("message_drop")
        assert seq_a == seq_b

    def test_decide_many_matches_scalar_stream(self):
        a = FaultInjector(seed=5, message_drop_rate=0.4)
        b = FaultInjector(seed=5, message_drop_rate=0.4)
        bulk = a.decide_many("message_drop", 64)
        scalar = np.array([b.decide("message_drop") for _ in range(64)])
        assert np.array_equal(bulk, scalar)

    def test_max_faults_budget(self):
        inj = FaultInjector(seed=0, task_rate=1.0, max_faults=3)
        hits = sum(inj.decide("task") for _ in range(10))
        assert hits == 3
        assert inj.total_faults == 3

    def test_ambient_installation_nests(self):
        assert active_injector() is None
        outer = FaultInjector(seed=1)
        inner = FaultInjector(seed=2)
        with outer:
            assert active_injector() is outer
            with inner:
                assert active_injector() is inner
            assert active_injector() is outer
        assert active_injector() is None

    def test_split_messages_partitions_batch(self):
        inj = FaultInjector(
            seed=3, message_drop_rate=0.5, message_duplicate_rate=0.3
        )
        d = np.arange(200)
        v = np.arange(200, dtype=float)
        kept_d, kept_v, drop_d, drop_v, n_dup = inj.split_messages(d, v)
        assert kept_d.shape == kept_v.shape
        assert drop_d.shape == drop_v.shape
        # every original message is either kept or dropped exactly once
        assert kept_d.size - n_dup + drop_d.size == d.size
        assert 0 < drop_d.size < d.size
        assert n_dup > 0


# -- retry policy --------------------------------------------------------------------


class TestRetryPolicy:
    def test_succeeds_after_transient_faults(self):
        calls = [0]

        def flaky():
            calls[0] += 1
            if calls[0] < 3:
                raise FaultInjected("transient")
            return "ok"

        counters = ResilienceCounters()
        policy = _fast_retry(max_attempts=5)
        assert policy.execute(flaky, counters=counters) == "ok"
        assert calls[0] == 3
        assert counters["tasks_retried"] == 2

    def test_exhaustion_raises_with_attempt_count(self):
        policy = _fast_retry(max_attempts=4)
        counters = ResilienceCounters()
        with pytest.raises(RetryExhausted) as ei:
            policy.execute(
                lambda: (_ for _ in ()).throw(FaultInjected("always")),
                counters=counters,
            )
        assert ei.value.attempts == 4
        assert counters["retries_exhausted"] == 1

    def test_non_retryable_errors_pass_through(self):
        policy = _fast_retry()

        def boom():
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            policy.execute(boom)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=10,
            base_delay=0.01,
            multiplier=2.0,
            max_delay=0.05,
            jitter=0.0,
        )
        delays = [policy.delay_for(i) for i in range(6)]
        assert delays[0] == pytest.approx(0.01)
        assert delays[1] == pytest.approx(0.02)
        assert max(delays) == pytest.approx(0.05)

    def test_deadline_stops_retrying(self):
        policy = RetryPolicy(
            max_attempts=1000, base_delay=0.01, max_delay=0.01, deadline=0.05
        )
        t0 = time.monotonic()
        with pytest.raises(RetryExhausted):
            policy.execute(
                lambda: (_ for _ in ()).throw(FaultInjected("always"))
            )
        assert time.monotonic() - t0 < 2.0


# -- chaos equivalence (the headline property) ---------------------------------------


@pytest.mark.chaos
class TestChaosEquivalence:
    @pytest.mark.parametrize("seed_offset", [0, 1, 2])
    def test_sssp_identical_under_chaos(self, weighted_rmat, seed_offset):
        base = sssp(weighted_rmat, 0).distances
        pol = _chaos_policy(CHAOS_SEED + seed_offset)
        out = sssp(weighted_rmat, 0, resilience=pol)
        assert np.array_equal(base, out.distances)
        assert pol.chaos.decisions["task"] > 0

    @pytest.mark.parametrize("seed_offset", [0, 1, 2])
    def test_bfs_identical_under_chaos(self, weighted_rmat, seed_offset):
        base = bfs(weighted_rmat, 0)
        pol = _chaos_policy(CHAOS_SEED + seed_offset)
        out = bfs(weighted_rmat, 0, resilience=pol)
        assert np.array_equal(base.levels, out.levels)

    @pytest.mark.parametrize("seed_offset", [0, 1, 2])
    def test_cc_identical_under_chaos(self, weighted_rmat, seed_offset):
        base = connected_components(weighted_rmat).labels
        pol = _chaos_policy(CHAOS_SEED + seed_offset)
        out = connected_components(weighted_rmat, resilience=pol)
        assert np.array_equal(base, out.labels)
        assert pol.chaos.decisions["task"] > 0

    def test_near_far_identical_under_chaos(self, weighted_grid):
        # Retried supersteps re-split from the same far pile and
        # threshold, so the schedule (and every bit) replays.
        base = sssp(weighted_grid, 0, delta=math.inf).distances
        pol = _chaos_policy(CHAOS_SEED)
        out = sssp(weighted_grid, 0, resilience=pol)
        assert np.array_equal(base, out.distances)
        assert pol.chaos.decisions["task"] > 0

    def test_async_identical_under_task_chaos(self, weighted_rmat):
        base = sssp(weighted_rmat, 0).distances
        pol = ResiliencePolicy(
            chaos=FaultInjector(seed=CHAOS_SEED, task_rate=CHAOS_RATE),
            retry=_fast_retry(),
        )
        out = sssp_async(
            weighted_rmat, 0, num_workers=4, timeout=60.0, resilience=pol
        )
        assert np.array_equal(base, out.distances)
        assert pol.counters["tasks_retried"] > 0

    def test_unprotected_chaos_aborts_the_run(self, weighted_rmat):
        # Without retry, the same injector is fatal — the protection is
        # doing real work in the equivalence tests above.
        inj = FaultInjector(seed=CHAOS_SEED, task_rate=1.0)
        with inj:
            with pytest.raises(FaultInjected):
                sssp(weighted_rmat, 0)

    def test_io_fault_point_retries_reads(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        inj = FaultInjector(seed=CHAOS_SEED, io_rate=0.5, max_faults=5)
        retry = _fast_retry()
        with inj:
            g = retry.execute(lambda: read_edgelist(str(path)))
        assert g.n_edges == 3


# -- message chaos and the loop's resilience, on Pregel runs ------------------------


def _pregel_sssp(graph, policy=None):
    from repro.algorithms.pregel_programs import SSSPProgram
    from repro.comm.pregel import PregelEngine
    from repro.types import INF

    engine = PregelEngine(graph, resilience=policy)
    values = engine.run(
        SSSPProgram(0), np.full(graph.n_vertices, float(INF))
    )
    return values, engine


@pytest.mark.chaos
class TestMessageChaos:
    """Drop / duplicate / delay act on each superstep's message arrays."""

    def test_drop_without_retry_loses_messages(self):
        g = grid_2d(6, 6, weighted=True, seed=1)
        clean, _ = _pregel_sssp(g)
        inj = FaultInjector(seed=1, message_drop_rate=1.0, max_faults=3)
        with inj:
            lossy, _ = _pregel_sssp(g)
        assert inj.counts["message_drop"] > 0
        assert not np.array_equal(lossy, clean)

    def test_drop_with_retry_is_at_least_once(self, weighted_grid):
        clean, _ = _pregel_sssp(weighted_grid)
        pol = ResiliencePolicy(
            chaos=FaultInjector(seed=CHAOS_SEED, message_drop_rate=0.2),
            retry=_fast_retry(),
        )
        chaotic, _ = _pregel_sssp(weighted_grid, pol)
        assert np.array_equal(chaotic, clean)
        assert pol.counters["messages_dropped"] > 0
        assert pol.counters["messages_redelivered"] > 0

    def test_redelivery_exhaustion_raises(self, weighted_grid):
        pol = ResiliencePolicy(
            chaos=FaultInjector(seed=2, message_drop_rate=1.0),
            retry=_fast_retry(max_attempts=3),
        )
        with pytest.raises(RetryExhausted):
            _pregel_sssp(weighted_grid, pol)
        assert pol.counters["retries_exhausted"] == 1

    def test_delayed_messages_arrive_and_keep_run_alive(self, weighted_grid):
        clean, clean_engine = _pregel_sssp(weighted_grid)
        pol = ResiliencePolicy(
            chaos=FaultInjector(seed=CHAOS_SEED, message_delay_rate=0.5)
        )
        delayed, engine = _pregel_sssp(weighted_grid, pol)
        assert pol.counters["messages_delayed"] > 0
        # Held messages kept the run going until every one arrived.
        assert np.array_equal(delayed, clean)
        assert engine.stats.supersteps > clean_engine.stats.supersteps

    def test_duplicates_tolerated_by_min_combiner(self, weighted_grid):
        clean, _ = _pregel_sssp(weighted_grid)
        pol = ResiliencePolicy(
            chaos=FaultInjector(seed=CHAOS_SEED, message_duplicate_rate=0.5)
        )
        duplicated, _ = _pregel_sssp(weighted_grid, pol)
        assert pol.counters["messages_duplicated"] > 0
        assert np.array_equal(duplicated, clean)


class TestPregelOnTheLoop:
    """Pregel runs inherit the enactor's retry and checkpoints."""

    @pytest.mark.chaos
    def test_task_faults_retried_to_identical_answer(self, weighted_rmat):
        clean, _ = _pregel_sssp(weighted_rmat)
        inj = FaultInjector(seed=CHAOS_SEED, task_rate=0.3)
        pol = ResiliencePolicy(chaos=inj, retry=_fast_retry())
        chaotic, _ = _pregel_sssp(weighted_rmat, pol)
        assert inj.counts["task"] > 0
        assert np.array_equal(chaotic, clean)

    def test_checkpoints_hold_values(self, weighted_grid):
        pol = ResiliencePolicy(checkpoint_every=2)
        values, engine = _pregel_sssp(weighted_grid, pol)
        assert engine.stats.supersteps > 4
        assert pol.counters["checkpoints_saved"] >= 2
        latest = pol.store.latest()
        assert latest.superstep % 2 == 0
        snap = latest.arrays["values"]
        assert snap.shape == values.shape
        # A checkpoint is a past superstep: never better than the answer.
        assert np.all(snap >= values)


# -- checkpoint / resume -------------------------------------------------------------


def _sssp_pieces(graph):
    """The BSP SSSP loop unrolled so tests can crash and resume it."""
    from repro.execution.atomics import bulk_min_relax
    from repro.execution.policy import resolve_policy
    from repro.operators.advance import neighbors_expand
    from repro.operators.conditions import bulk_condition
    from repro.operators.uniquify import uniquify
    from repro.types import INF, VALUE_DTYPE

    policy = resolve_policy("par_vector")
    n = graph.n_vertices
    dist = np.full(n, INF, dtype=VALUE_DTYPE)
    dist[0] = 0.0

    @bulk_condition
    def condition(srcs, dsts, edges, weights):
        return bulk_min_relax(dist, dsts, dist[srcs] + weights)

    def step(f, state):
        return uniquify(policy, neighbors_expand(policy, graph, f, condition))

    return dist, step, SparseFrontier.from_indices([0], n)


class TestCheckpointResume:
    def test_checkpointed_run_matches_plain_run(self, weighted_grid):
        base = sssp(weighted_grid, 0).distances
        pol = ResiliencePolicy(checkpoint_every=2)
        out = sssp(weighted_grid, 0, resilience=pol)
        assert np.array_equal(base, out.distances)
        assert pol.counters["checkpoints_saved"] > 0
        assert len(pol.store) > 0

    def test_mid_run_kill_then_resume(self, weighted_grid):
        base = sssp(weighted_grid, 0).distances
        dist, step, frontier = _sssp_pieces(weighted_grid)

        class Bomb(RuntimeError):
            pass

        calls = [0]

        def bomb_step(f, state):
            calls[0] += 1
            if calls[0] == 5:
                raise Bomb("killed mid-loop")
            return step(f, state)

        pol = ResiliencePolicy(checkpoint_every=2)
        enactor = Enactor(weighted_grid)
        with pytest.raises(Bomb):
            enactor.run(
                frontier, bomb_step, resilience=pol, state_arrays={"dist": dist}
            )
        assert len(pol.store) > 0
        # trash the live state to prove the snapshot is what restores it
        dist[:] = -1.0
        stats = enactor.resume_from_checkpoint(
            step, resilience=pol, state_arrays={"dist": dist}
        )
        assert stats.converged
        assert np.array_equal(base, dist)
        assert pol.counters["checkpoints_restored"] == 1
        # resumed portion restarts at the snapshot, not superstep 0
        assert stats.iterations[0].iteration >= 4

    def test_resume_without_checkpoint_raises(self, weighted_grid):
        dist, step, _ = _sssp_pieces(weighted_grid)
        pol = ResiliencePolicy(checkpoint_every=2)
        with pytest.raises(CheckpointError):
            Enactor(weighted_grid).resume_from_checkpoint(
                step, resilience=pol, state_arrays={"dist": dist}
            )

    def test_store_keep_last_bounds_memory(self):
        store = CheckpointStore(keep_last=2)
        for i in range(5):
            store.save(
                Checkpoint(
                    superstep=i,
                    frontier_indices=np.arange(i),
                    capacity=10,
                    arrays={"x": np.full(4, float(i))},
                )
            )
        assert len(store) == 2
        assert store.latest().superstep == 4

    def test_store_dump_and_load_roundtrip(self, tmp_path):
        store = CheckpointStore()
        ckpt = Checkpoint(
            superstep=7,
            frontier_indices=np.array([1, 3, 5]),
            capacity=16,
            arrays={"dist": np.arange(16, dtype=np.float32)},
            context={"alpha": 0.85},
        )
        store.save(ckpt)
        path = str(tmp_path / "snap.npz")
        store.dump(path)
        loaded = CheckpointStore.load(path)
        assert loaded.superstep == 7
        assert loaded.capacity == 16
        assert np.array_equal(loaded.frontier_indices, ckpt.frontier_indices)
        assert np.array_equal(loaded.arrays["dist"], ckpt.arrays["dist"])
        assert loaded.context == {"alpha": 0.85}

    def test_snapshot_arrays_shares_unchanged_buffers(self):
        a = {"x": np.arange(8.0), "y": np.zeros(4)}
        first = Checkpoint(
            superstep=0,
            frontier_indices=np.empty(0, dtype=np.int64),
            capacity=8,
            arrays=snapshot_arrays(a, None),
        )
        a["y"][0] = 9.0
        second = snapshot_arrays(a, first)
        # x unchanged -> buffer shared copy-on-write; y changed -> fresh
        assert second["x"] is first.arrays["x"]
        assert second["y"] is not first.arrays["y"]
        # snapshots are decoupled from live mutation either way
        a["x"][0] = -1.0
        assert first.arrays["x"][0] == 0.0

    def test_restore_rejects_mismatched_arrays(self):
        ckpt = Checkpoint(
            superstep=0,
            frontier_indices=np.empty(0, dtype=np.int64),
            capacity=4,
            arrays={"x": np.zeros(4)},
        )
        with pytest.raises(CheckpointError):
            ckpt.restore_arrays({"x": np.zeros(5)})
        with pytest.raises(CheckpointError):
            ckpt.restore_arrays({"wrong_name": np.zeros(4)})


# -- scheduler failure semantics (satellites a, b) -----------------------------------


class TestSchedulerFailures:
    def test_all_worker_errors_aggregated(self):
        def bad(item, push):
            raise RuntimeError(f"boom {item}")

        with pytest.raises((AggregateWorkerError, RuntimeError)) as ei:
            AsyncScheduler(4, poll_timeout=0.005).run(
                bad, list(range(16)), 100, timeout=10.0
            )
        if isinstance(ei.value, AggregateWorkerError):
            assert len(ei.value.failures) >= 2
            for worker_id, exc in ei.value.failures:
                assert isinstance(worker_id, int)
                assert "boom" in str(exc)
            assert "worker" in str(ei.value)

    def test_single_error_reraised_verbatim(self):
        fired = threading.Event()

        def bad_once(item, push):
            if item == 0 and not fired.is_set():
                fired.set()
                raise RuntimeError("task failed")

        with pytest.raises(RuntimeError, match="task failed"):
            AsyncScheduler(2).run(bad_once, [0], 10, timeout=10.0)

    @pytest.mark.slow
    def test_timeout_shuts_workers_down(self):
        release = threading.Event()
        before = threading.active_count()

        def stuck(item, push):
            release.wait(timeout=30.0)

        sched = AsyncScheduler(2, poll_timeout=0.005)
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            sched.run(stuck, [1, 2], 10, timeout=0.2)
        # the scheduler must give up promptly, not block on stuck joins
        assert time.monotonic() - t0 < 5.0
        release.set()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if threading.active_count() <= before:
                break
            time.sleep(0.01)
        assert threading.active_count() <= before, (
            "worker threads left running after TimeoutError"
        )

    @pytest.mark.slow
    def test_worker_death_without_supervision_times_out(self):
        inj = FaultInjector(seed=0, worker_death_rate=1.0)
        pol = ResiliencePolicy(chaos=inj)
        sched = AsyncScheduler(2, poll_timeout=0.005, resilience=pol)
        with pytest.raises(TimeoutError):
            sched.run(lambda i, push: None, [1, 2, 3], 10, timeout=0.3)


# -- supervision ---------------------------------------------------------------------


class TestSupervision:
    def test_dead_workers_restarted_and_run_completes(self, weighted_rmat):
        base = sssp(weighted_rmat, 0).distances
        pol = ResiliencePolicy(
            chaos=FaultInjector(
                seed=5, worker_death_rate=0.2, max_faults=6
            ),
            retry=_fast_retry(),
            supervision=SupervisionConfig(max_restarts=16),
        )
        out = sssp_async(
            weighted_rmat, 0, num_workers=4, timeout=60.0, resilience=pol
        )
        assert np.array_equal(base, out.distances)
        assert pol.counters["workers_restarted"] > 0

    @pytest.mark.slow
    def test_stall_detected_and_degrades_to_sequential(self, weighted_rmat):
        base = sssp(weighted_rmat, 0).distances
        pol = ResiliencePolicy(
            chaos=FaultInjector(seed=7, worker_death_rate=1.0),
            supervision=SupervisionConfig(
                restart_workers=False,
                max_parallel_failures=1,
                degrade_to_sequential=True,
                stall_timeout=0.5,
            ),
        )
        t0 = time.monotonic()
        out = sssp_async(
            weighted_rmat, 0, num_workers=4, timeout=60.0, resilience=pol
        )
        assert np.array_equal(base, out.distances)
        assert pol.counters["stalls_detected"] >= 1
        assert pol.counters["degraded_runs"] == 1
        # the stall watchdog aborts the parallel attempt long before the
        # 60s quiescence timeout
        assert time.monotonic() - t0 < 30.0

    def test_degradation_disabled_reraises(self):
        cfg = SupervisionConfig(
            degrade_to_sequential=False, max_parallel_failures=2
        )
        calls = [0]

        def parallel():
            calls[0] += 1
            raise StallDetected("wedged")

        with pytest.raises(StallDetected):
            run_with_fallback(parallel, lambda: 42, config=cfg)
        assert calls[0] == 2

    def test_fallback_returns_sequential_result(self):
        cfg = SupervisionConfig(max_parallel_failures=2)
        counters = ResilienceCounters()

        def parallel():
            raise StallDetected("wedged")

        assert (
            run_with_fallback(
                parallel, lambda: 42, config=cfg, counters=counters
            )
            == 42
        )
        assert counters["parallel_failures"] == 2
        assert counters["degraded_runs"] == 1


class TestRetryAbsoluteDeadline:
    """Regression coverage for ``deadline_at`` (absolute monotonic) and
    its interaction with ambient cancel tokens — the service-path
    guarantee that nested retry scopes cannot overshoot a shared
    deadline the way stacked *relative* deadlines can."""

    def _policy(self, **kwargs):
        return RetryPolicy(
            max_attempts=50, base_delay=0.01, max_delay=0.01, jitter=0.0,
            **kwargs,
        )

    def test_deadline_at_stops_attempts(self):
        calls = [0]

        def fail():
            calls[0] += 1
            raise FaultInjected("transient")

        policy = self._policy().with_deadline_at(time.monotonic() + 0.05)
        t0 = time.monotonic()
        with pytest.raises(RetryExhausted):
            policy.execute(fail, site="unit")
        # Stopped by the budget, far short of the 50-attempt ceiling,
        # and promptly (sleeps are clamped to the budget's edge).
        assert calls[0] < 50
        assert time.monotonic() - t0 < 1.0

    def test_with_deadline_at_only_tightens(self):
        soon = time.monotonic() + 1.0
        later = time.monotonic() + 100.0
        policy = self._policy().with_deadline_at(soon)
        assert policy.with_deadline_at(later).deadline_at == soon
        assert policy.with_deadline_at(soon - 0.5).deadline_at == soon - 0.5

    def test_nested_scopes_share_the_instant(self):
        """Two sequential execute() calls under one ``deadline_at``
        consume ONE budget — the second starts already exhausted.  The
        same pattern with relative deadlines would grant a fresh budget
        to each call (the overshoot bug this field exists to fix)."""
        at = time.monotonic() + 0.05
        policy = self._policy().with_deadline_at(at)

        def fail():
            raise FaultInjected("transient")

        with pytest.raises(RetryExhausted):
            policy.execute(fail, site="first")
        time.sleep(max(0.0, at - time.monotonic()) + 0.01)
        t0 = time.monotonic()
        with pytest.raises(RetryExhausted) as info:
            policy.execute(fail, site="second")
        # Second scope: one attempt, no sleeping — budget already spent.
        assert info.value.attempts == 1
        assert time.monotonic() - t0 < 0.05

        # Relative-deadline contrast: the same second call under
        # deadline=0.05 happily retries on its own fresh budget.
        relative = self._policy(deadline=0.05)
        with pytest.raises(RetryExhausted) as info2:
            relative.execute(fail, site="relative")
        assert info2.value.attempts > 1

    def test_ambient_token_bounds_retries(self):
        from repro.resilience import CancelToken

        calls = [0]

        def fail():
            calls[0] += 1
            raise FaultInjected("transient")

        with CancelToken.after(0.05):
            with pytest.raises(RetryExhausted):
                self._policy().execute(fail, site="unit")
        assert calls[0] < 50

    def test_explicit_cancel_stops_next_attempt(self):
        from repro.resilience import CancelToken

        token = CancelToken()
        calls = [0]

        def fail():
            calls[0] += 1
            token.cancel("caller gave up")
            raise FaultInjected("transient")

        with token:
            with pytest.raises(RetryExhausted):
                self._policy().execute(fail, site="unit")
        assert calls[0] == 1
