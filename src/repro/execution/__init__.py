"""Execution policies and engines — the timing-pillar mechanism (§III-A).

"Our abstraction additionally allows [operators] to be expressed with
different execution policies as a parameter to control synchronization
behavior and parallelism.  Much like the C++ standard library's
execution policies, these policies are unique types to allow for
overloading of traversal and transformation operators."

Five synchronous-pillar policies are provided (a sixth mode, ``async``,
lives in the loop layer):

* :data:`seq` — sequential, in the invoking thread.
* :data:`par` — parallel synchronous: work is chunked across a thread
  pool and a barrier joins all chunks before the operator returns (the
  BSP superstep contract).
* :data:`par_nosync` — parallel asynchronous: work items are tasks on a
  shared queue with **no barrier between work items**; completion is
  detected by quiescence (outstanding-work counting), the Atos model.
* :data:`par_vector` — data-parallel bulk execution via NumPy array
  kernels: every frontier element is processed "simultaneously" by
  vectorized operations with a single implicit barrier at the end.  This
  is the honest Python analog of the paper's device-wide GPU kernels and
  the performance path (DESIGN.md substitution table).
* :data:`par_proc` — multiprocess sharded execution over shared memory:
  supersteps run as BSP rounds across persistent worker *processes*
  (escaping the GIL entirely), with the graph and per-round state in
  ``multiprocessing.shared_memory``; each worker folds the updates aimed
  at the destination range it owns.  Degrades to :data:`par_vector`
  wherever a round cannot be sharded.
"""

from repro.execution.policy import (
    ExecutionPolicy,
    SequencedPolicy,
    ParallelPolicy,
    ParallelNoSyncPolicy,
    VectorPolicy,
    ProcPolicy,
    seq,
    par,
    par_nosync,
    par_vector,
    par_proc,
    resolve_policy,
)
from repro.execution.atomics import AtomicArray, bulk_min_relax, bulk_max_relax
from repro.execution.thread_pool import ThreadPool, get_pool
from repro.execution.scheduler import AsyncScheduler

__all__ = [
    "ExecutionPolicy",
    "SequencedPolicy",
    "ParallelPolicy",
    "ParallelNoSyncPolicy",
    "VectorPolicy",
    "ProcPolicy",
    "seq",
    "par",
    "par_nosync",
    "par_vector",
    "par_proc",
    "resolve_policy",
    "AtomicArray",
    "bulk_min_relax",
    "bulk_max_relax",
    "ThreadPool",
    "get_pool",
    "AsyncScheduler",
]
