"""The :class:`ResiliencePolicy` — one object bundling a run's fault
tolerance configuration.

Mirrors the execution-policy design (:mod:`repro.execution.policy`): the
enactors and schedulers take an optional ``resilience=`` parameter the
same way operators take an execution policy, and algorithm code never
changes — recovery lives entirely at the loop/execution/comm layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ResilienceError
from repro.resilience.chaos import FaultInjector, active_injector
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import SupervisionConfig
from repro.utils.counters import ResilienceCounters


@dataclass
class ResiliencePolicy:
    """What an enactor/scheduler/Pregel run does about failure.

    Attributes
    ----------
    chaos:
        Fault injector for this run; when ``None`` the ambient injector
        installed via ``with FaultInjector(...):`` (if any) applies.
    retry:
        Retry/backoff policy for tasks, supersteps, and message
        delivery; ``None`` disables retries.
    checkpoint_every:
        Snapshot the loop state every N completed supersteps (0 = off).
    store:
        Checkpoint destination; auto-created when checkpointing is on.
    supervision:
        Worker restart / watchdog / degradation knobs; ``None`` disables
        supervision.
    counters:
        Shared event counters the whole resilience machinery reports to.
    """

    chaos: Optional[FaultInjector] = None
    retry: Optional[RetryPolicy] = None
    checkpoint_every: int = 0
    store: Optional[CheckpointStore] = None
    supervision: Optional[SupervisionConfig] = None
    counters: ResilienceCounters = field(default_factory=ResilienceCounters)

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ResilienceError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.checkpoint_every and self.store is None:
            self.store = CheckpointStore()

    def active_chaos(self) -> Optional[FaultInjector]:
        """This policy's injector, else the ambient one, else ``None``."""
        return self.chaos if self.chaos is not None else active_injector()

    def execute(self, fn, *, site: str = ""):
        """Run ``fn`` under this policy's retry (or directly without one)."""
        if self.retry is None:
            return fn()
        return self.retry.execute(fn, site=site, counters=self.counters)


def protective(
    *,
    seed: Optional[int] = None,
    chaos_rate: float = 0.0,
    max_attempts: int = 5,
    checkpoint_every: int = 0,
    supervise: bool = False,
) -> ResiliencePolicy:
    """Convenience constructor the CLI and tests share: retry always on,
    chaos only when a rate is given, supervision opt-in."""
    chaos = None
    if chaos_rate > 0.0:
        chaos = FaultInjector.uniform(seed or 0, chaos_rate)
    return ResiliencePolicy(
        chaos=chaos,
        retry=RetryPolicy(max_attempts=max_attempts),
        checkpoint_every=checkpoint_every,
        supervision=SupervisionConfig() if supervise else None,
    )
