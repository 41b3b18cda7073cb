"""Fault tolerance for the iterative loop — chaos, retry, checkpoint,
supervision.

The paper's essential component 4 (the loop with convergence conditions)
is where this reproduction adds recovery, in the spirit of GraphX's
checkpoint/lineage recovery for iterative graph computation and enabled
by the Gunrock-style operator/enactor separation — algorithms never see
any of it.  Four cooperating pieces:

* :mod:`~repro.resilience.chaos` — :class:`FaultInjector`, a
  deterministic seed-driven fault source (task raises, worker death,
  message drop/duplicate/delay on a Pregel step's message arrays,
  transient I/O errors) installable as a context manager so any test or
  benchmark runs under chaos;
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy`, exponential
  backoff + jitter + deadline re-execution, sound under the documented
  monotone-task contract;
* :mod:`~repro.resilience.checkpoint` — periodic superstep snapshots
  (frontier + value arrays, copy-on-write) with resume;
* :mod:`~repro.resilience.supervisor` — worker restart, a progress
  watchdog, and graceful degradation to the sequential execution policy;
* :mod:`~repro.resilience.deadline` — absolute monotonic
  :class:`Deadline` and :class:`CancelToken`, the cooperative
  cancellation substrate the query service threads through every
  enactor, scheduler, and retry scope.

A :class:`ResiliencePolicy` bundles them; every enactor, the async
scheduler, and the Pregel engine (whose supersteps are an enactor's)
accept one via ``resilience=``.
"""

from repro.resilience.chaos import (
    FAULT_KINDS,
    FaultInjector,
    active_injector,
    io_fault_point,
)
from repro.resilience.deadline import (
    CancelToken,
    Deadline,
    active_token,
    check_cancelled,
    clamp_timeout,
)
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointStore,
    snapshot_arrays,
)
from repro.resilience.policy import ResiliencePolicy, protective
from repro.resilience.retry import DEFAULT_RETRYABLE, RetryPolicy, with_retry
from repro.resilience.supervisor import (
    SupervisionConfig,
    WorkerSupervisor,
    run_with_fallback,
)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "active_injector",
    "io_fault_point",
    "CancelToken",
    "Deadline",
    "active_token",
    "check_cancelled",
    "clamp_timeout",
    "Checkpoint",
    "CheckpointStore",
    "snapshot_arrays",
    "ResiliencePolicy",
    "protective",
    "DEFAULT_RETRYABLE",
    "RetryPolicy",
    "with_retry",
    "SupervisionConfig",
    "WorkerSupervisor",
    "run_with_fallback",
]
