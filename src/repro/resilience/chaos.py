"""Deterministic, seed-driven fault injection — the chaos harness.

A :class:`FaultInjector` is the simulated hostile environment: it decides,
from a seeded per-kind random stream, whether the k-th operation of each
kind fails.  Decisions depend only on ``(seed, kind, decision index)``,
never on thread interleaving, so a failing chaos run replays from its
seed.

Fault kinds cover the seams the paper's essential components expose:

* ``task``              — raise :class:`~repro.errors.FaultInjected` at a
  task/superstep boundary (enactors, async scheduler);
* ``worker_death``      — a scheduler worker thread silently dies;
* ``message_drop``      — a sent message is lost in flight;
* ``message_duplicate`` — a sent message is delivered twice;
* ``message_delay``     — a Pregel message slips one superstep barrier;
* ``io``                — a transient graph-file read error.

Faults are injected *at operation boundaries* (before a task runs, as a
superstep's messages are sent), never mid-mutation — re-execution is therefore
safe exactly when the documented monotone-task contract holds, which is
what lets :mod:`repro.resilience.retry` recover to bit-identical results.

Installing an injector as a context manager makes it *ambient*: every
instrumented seam (enactors, the async scheduler, the Pregel step's
message arrays, graph I/O readers) consults :func:`active_injector`, so any existing test
or benchmark runs under chaos by wrapping it in ``with injector:``.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import FaultInjected, ResilienceError
from repro.observability.probe import active_probe
from repro.utils.rng import spawn_rngs

#: Every fault kind an injector can produce, in stream-derivation order
#: (the order matters: kind i draws from the i-th spawned child stream).
FAULT_KINDS = (
    "task",
    "worker_death",
    "message_drop",
    "message_duplicate",
    "message_delay",
    "io",
)

_active_lock = threading.Lock()
_active: Optional["FaultInjector"] = None


def active_injector() -> Optional["FaultInjector"]:
    """The ambient injector installed by ``with FaultInjector(...):``, or
    ``None`` outside any chaos context (the zero-overhead common case)."""
    return _active


class FaultInjector:
    """Seeded fault-decision source, installable as a context manager.

    Parameters
    ----------
    seed:
        Drives every decision stream; same seed + same call sequence =
        same faults.
    task_rate, worker_death_rate, message_drop_rate,
    message_duplicate_rate, message_delay_rate, io_rate:
        Per-decision fault probabilities in ``[0, 1]``.
    max_faults:
        Optional cap on *total* injected faults across all kinds; after
        the budget is spent the injector goes quiet.  Keeps e.g.
        ``worker_death_rate=1.0`` from killing every restarted worker
        forever.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        *,
        task_rate: float = 0.0,
        worker_death_rate: float = 0.0,
        message_drop_rate: float = 0.0,
        message_duplicate_rate: float = 0.0,
        message_delay_rate: float = 0.0,
        io_rate: float = 0.0,
        max_faults: Optional[int] = None,
    ) -> None:
        rates = {
            "task": task_rate,
            "worker_death": worker_death_rate,
            "message_drop": message_drop_rate,
            "message_duplicate": message_duplicate_rate,
            "message_delay": message_delay_rate,
            "io": io_rate,
        }
        for kind, rate in rates.items():
            if not (0.0 <= rate <= 1.0):
                raise ResilienceError(
                    f"{kind} fault rate must be in [0, 1], got {rate}"
                )
        if max_faults is not None and max_faults < 0:
            raise ResilienceError(
                f"max_faults must be >= 0, got {max_faults}"
            )
        if seed is None:
            # Unseeded injectors follow the ambient chaos seed so the
            # test harness can replay a whole chaotic run from one env
            # var; outside tests the fallback keeps the old default.
            seed = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
        self.seed = seed
        self.rates = rates
        self.max_faults = max_faults
        self._lock = threading.Lock()
        self._rngs = dict(zip(FAULT_KINDS, spawn_rngs(seed, len(FAULT_KINDS))))
        #: Faults injected so far, by kind.
        self.counts: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        #: Decisions asked so far, by kind (faulting or not).
        self.decisions: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._prev: Optional[FaultInjector] = None

    @classmethod
    def uniform(
        cls, seed: int = 0, rate: float = 0.05, *, max_faults: Optional[int] = None
    ) -> "FaultInjector":
        """Injector with the same rate on every recoverable fault kind
        (worker death excluded — that one needs supervision, not retry,
        so it stays opt-in)."""
        return cls(
            seed,
            task_rate=rate,
            message_drop_rate=rate,
            message_duplicate_rate=rate,
            message_delay_rate=rate,
            io_rate=rate,
            max_faults=max_faults,
        )

    # -- decision streams --------------------------------------------------------------

    @property
    def total_faults(self) -> int:
        with self._lock:
            return sum(self.counts.values())

    def decide(self, kind: str) -> bool:
        """Whether the next operation of ``kind`` faults.

        The k-th decision for a kind is a pure function of
        ``(seed, kind, k)``; the lock serializes stream access so the
        mapping holds under any thread interleaving of *other* kinds.
        """
        if kind not in self.rates:
            raise ResilienceError(f"unknown fault kind {kind!r}")
        with self._lock:
            self.decisions[kind] += 1
            rate = self.rates[kind]
            if rate <= 0.0:
                return False
            if (
                self.max_faults is not None
                and sum(self.counts.values()) >= self.max_faults
            ):
                return False
            hit = bool(self._rngs[kind].random() < rate)
            if hit:
                self.counts[kind] += 1
            return hit

    def decide_many(self, kind: str, n: int) -> np.ndarray:
        """Vectorized :meth:`decide`: one boolean per operation, budget-aware."""
        if n <= 0:
            return np.zeros(0, dtype=bool)
        with self._lock:
            self.decisions[kind] += n
            rate = self.rates[kind]
            if rate <= 0.0:
                return np.zeros(n, dtype=bool)
            hits = self._rngs[kind].random(n) < rate
            if self.max_faults is not None:
                budget = self.max_faults - sum(self.counts.values())
                if budget <= 0:
                    return np.zeros(n, dtype=bool)
                hit_idx = np.nonzero(hits)[0]
                if hit_idx.size > budget:
                    hits[hit_idx[budget:]] = False
            self.counts[kind] += int(np.count_nonzero(hits))
            return hits

    # -- convenience fault points ------------------------------------------------------

    def maybe_fail_task(self, site: str = "task") -> None:
        """Raise :class:`FaultInjected` at a task/superstep boundary."""
        if self.decide("task"):
            active_probe().event("fault", kind="task", site=site)
            raise FaultInjected(
                f"injected task fault at {site} "
                f"(fault #{self.counts['task']}, seed={self.seed})"
            )

    def maybe_fail_io(self, site: str = "io") -> None:
        """Raise :class:`FaultInjected` at a graph-I/O boundary."""
        if self.decide("io"):
            active_probe().event("fault", kind="io", site=site)
            raise FaultInjected(
                f"injected transient I/O fault at {site} "
                f"(fault #{self.counts['io']}, seed={self.seed})"
            )

    def should_kill_worker(self) -> bool:
        """Whether the asking worker thread dies now (silently exits)."""
        if self.decide("worker_death"):
            active_probe().event("fault", kind="worker_death")
            return True
        return False

    def split_messages(
        self, destinations: np.ndarray, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Apply drop/duplicate faults to a batch of sent messages.

        Returns ``(kept_dsts, kept_vals, dropped_dsts, dropped_vals,
        n_duplicated)``.  Kept messages include the extra copies of
        duplicated ones (at-least-once semantics downstream merges
        must tolerate); the dropped subset is returned so a retrying
        sender can re-offer it.
        """
        n = int(destinations.shape[0])
        dropped = self.decide_many("message_drop", n)
        duplicated = self.decide_many("message_duplicate", n)
        n_duplicated = int(np.count_nonzero(duplicated & ~dropped))
        if not dropped.any() and n_duplicated == 0:
            return destinations, values, destinations[:0], values[:0], 0
        keep = ~dropped
        dup = duplicated & keep
        kept_d = np.concatenate([destinations[keep], destinations[dup]])
        kept_v = np.concatenate([values[keep], values[dup]])
        return kept_d, kept_v, destinations[dropped], values[dropped], n_duplicated

    def delay_mask(self, n: int) -> np.ndarray:
        """Per-message "slips one superstep barrier" mask."""
        return self.decide_many("message_delay", n)

    # -- ambient installation ----------------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        global _active
        with _active_lock:
            self._prev = _active
            _active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active
        with _active_lock:
            _active = self._prev
            self._prev = None

    def __repr__(self) -> str:
        knobs = ", ".join(
            f"{kind}={rate}" for kind, rate in self.rates.items() if rate > 0
        )
        return f"FaultInjector(seed={self.seed}, {knobs or 'quiet'})"


def io_fault_point(site: str) -> None:
    """Module-level hook graph I/O readers call: raises under an ambient
    injector with a nonzero ``io`` rate, no-op otherwise."""
    injector = active_injector()
    if injector is not None:
        injector.maybe_fail_io(site)
