"""Execution policies as unique types (the C++ ``std::execution`` analog).

Each policy is its own class so operator implementations can be selected
by ``type(policy)`` — the Python equivalent of the paper's
``enable_if``-disambiguated overloads in Listing 3.  Policy *instances*
carry tuning knobs (worker count, chunk size, load-balance mode) while
the *type* fixes the synchronization contract, so
``neighbors_expand(par, ...)`` and
``neighbors_expand(par.with_workers(8), ...)`` run the same overload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.errors import ExecutionPolicyError


@dataclass(frozen=True)
class ExecutionPolicy:
    """Base class for all execution policies.

    Attributes
    ----------
    num_workers:
        Worker threads (or processes, for ``par_proc``); ``None`` = use
        the pool default (``REPRO_NUM_WORKERS`` when set, else
        ``os.cpu_count()``).
    chunk_size:
        Work items per task for the threaded policies; ``None`` = divide
        evenly among workers.
    load_balance:
        ``"vertex"`` (equal vertex counts per chunk) or ``"edge"``
        (equal edge work per chunk, the merge-path-style schedule).
    """

    num_workers: Optional[int] = None
    chunk_size: Optional[int] = None
    load_balance: str = "vertex"

    def __post_init__(self):
        if self.num_workers is not None and self.num_workers < 1:
            raise ExecutionPolicyError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ExecutionPolicyError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.load_balance not in ("vertex", "edge"):
            raise ExecutionPolicyError(
                f"load_balance must be 'vertex' or 'edge', got "
                f"{self.load_balance!r}"
            )

    # Frozen dataclass "builders": policy identity (the type) never changes,
    # only the knobs.
    def with_workers(self, num_workers: int) -> "ExecutionPolicy":
        """Copy of this policy pinned to ``num_workers`` threads."""
        return replace(self, num_workers=num_workers)

    def with_chunk_size(self, chunk_size: int) -> "ExecutionPolicy":
        """Copy of this policy with a fixed task granularity."""
        return replace(self, chunk_size=chunk_size)

    def with_load_balance(self, mode: str) -> "ExecutionPolicy":
        """Copy of this policy using the given chunking mode."""
        return replace(self, load_balance=mode)

    @property
    def synchronous(self) -> bool:
        """Whether the operator barriers before returning (BSP contract)."""
        return True

    @property
    def parallel(self) -> bool:
        """Whether work may run outside the invoking thread."""
        return True

    def __repr__(self) -> str:
        knobs = []
        if self.num_workers is not None:
            knobs.append(f"num_workers={self.num_workers}")
        if self.chunk_size is not None:
            knobs.append(f"chunk_size={self.chunk_size}")
        if self.load_balance != "vertex":
            knobs.append(f"load_balance={self.load_balance!r}")
        return f"execution.{self.name}({', '.join(knobs)})"

    name = "policy"


class SequencedPolicy(ExecutionPolicy):
    """Run in the invoking thread, element at a time (``std::execution::seq``)."""

    name = "seq"

    @property
    def parallel(self) -> bool:
        return False


class ParallelPolicy(ExecutionPolicy):
    """Parallel synchronous: thread-pool chunks + barrier (``par``)."""

    name = "par"


class ParallelNoSyncPolicy(ExecutionPolicy):
    """Parallel asynchronous: queue-fed tasks, no inter-item barrier
    (the paper's ``par_nosync``).  Completion is detected by quiescence.
    """

    name = "par_nosync"

    @property
    def synchronous(self) -> bool:
        return False


class VectorPolicy(ExecutionPolicy):
    """Data-parallel bulk execution via NumPy kernels (device-wide analog)."""

    name = "par_vector"


class ProcPolicy(VectorPolicy):
    """Multiprocess sharded execution over shared memory (``par_proc``).

    Supersteps run as bulk-synchronous rounds across a persistent pool
    of worker *processes* (no shared GIL): the graph and per-round state
    live in ``multiprocessing.shared_memory``, each worker owns a
    contiguous destination range and folds every update aimed at it
    (owner computes), and the parent concatenates the ranges' winners.
    Subclassing the vectorized policy is deliberate — wherever a round
    cannot be sharded (no fused kernel for the condition, fusion
    disabled, or already inside a worker process) the policy degrades to
    the in-process vectorized overload, so every algorithm that accepts
    ``par_vector`` accepts ``par_proc`` unmodified.

    ``num_workers`` here means worker *processes*; ``None`` uses
    ``REPRO_NUM_WORKERS`` or every CPU (see
    :func:`~repro.execution.proc_pool.default_proc_workers`).
    """

    name = "par_proc"


#: Canonical policy instances, mirroring ``std::execution::seq`` etc.
seq = SequencedPolicy()
par = ParallelPolicy()
par_nosync = ParallelNoSyncPolicy()
par_vector = VectorPolicy()
par_proc = ProcPolicy()

_BY_NAME = {
    "seq": seq,
    "par": par,
    "par_nosync": par_nosync,
    "par_vector": par_vector,
    "par_proc": par_proc,
}


def resolve_policy(policy: Union[str, ExecutionPolicy]) -> ExecutionPolicy:
    """Accept a policy object or its name; return the policy object."""
    if isinstance(policy, ExecutionPolicy):
        return policy
    if isinstance(policy, str):
        got = _BY_NAME.get(policy)
        if got is None:
            raise ExecutionPolicyError(
                f"unknown execution policy {policy!r}; expected one of "
                f"{sorted(_BY_NAME)}"
            )
        return got
    raise ExecutionPolicyError(
        f"policy must be an ExecutionPolicy or name, got {type(policy).__name__}"
    )
