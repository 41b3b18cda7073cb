"""Deadlines and cooperative cancellation — the serving-path substrate.

A one-shot CLI run can afford to let an algorithm finish; a multi-tenant
service cannot.  Every query the service layer admits carries a
:class:`CancelToken` — an *absolute monotonic* :class:`Deadline` plus an
explicit cancel flag — and the loop/execution layers consult it at their
natural safe points:

* the BSP enactor checks at superstep boundaries;
* the async schedulers fold the remaining budget into their quiescence
  timeout and abort their wait when the token fires;
* :class:`~repro.resilience.retry.RetryPolicy` stops retrying (and
  clamps its backoff sleeps) so nested retries can never overshoot a
  service-level deadline.

Checks happen only *between* mutations — the same boundary discipline
the chaos injector uses — so a cancelled run leaves thread pools,
schedulers, and workspaces reusable for the next query instead of
stranding threads or poisoning shared state.

The token is installed *ambiently per thread* (``with token: ...``),
mirroring :func:`~repro.resilience.chaos.active_injector` but
thread-local rather than process-global: concurrent queries on different
server threads each see only their own deadline, and algorithm
signatures never change.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import DeadlineExceeded, QueryCancelled


class Deadline:
    """An absolute point on the monotonic clock.

    Absolute (not "seconds from now") so it can be handed down through
    nested layers — admission wait, retry attempts, supersteps — without
    each layer restarting the budget.
    """

    __slots__ = ("at",)

    def __init__(self, at: float) -> None:
        self.at = float(at)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """Deadline ``seconds`` from now on the monotonic clock."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        return cls(time.monotonic() + seconds)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.at - time.monotonic()

    def expired(self) -> bool:
        """Whether the instant has passed."""
        return time.monotonic() >= self.at

    def check(self, site: str = "") -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` once expired."""
        over = time.monotonic() - self.at
        if over >= 0:
            where = f" at {site}" if site else ""
            raise DeadlineExceeded(
                f"deadline exceeded{where} (over by {over * 1e3:.1f} ms)"
            )

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.3f}s)"


class CancelToken:
    """Deadline + explicit cancel flag, shared across a query's layers.

    Thread-safe: any thread may :meth:`cancel`; the running query's
    thread observes it at the next cooperative checkpoint.  Install as
    ambient for the current thread with ``with token: ...``.
    """

    __slots__ = ("deadline", "label", "reason", "_cancelled", "_prev")

    def __init__(
        self, deadline: Optional[Deadline] = None, *, label: str = ""
    ) -> None:
        self.deadline = deadline
        self.label = label
        self.reason = ""
        self._cancelled = threading.Event()
        self._prev: Optional[CancelToken] = None

    @classmethod
    def after(cls, seconds: float, *, label: str = "") -> "CancelToken":
        return cls(Deadline.after(seconds), label=label)

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation (idempotent; first reason wins)."""
        if not self._cancelled.is_set():
            self.reason = reason or "cancelled"
            self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def expired(self) -> bool:
        """Whether the token's deadline (if any) has passed."""
        return self.deadline is not None and self.deadline.expired()

    def should_stop(self) -> bool:
        """Cheap poll: cancelled or past deadline (never raises)."""
        return self._cancelled.is_set() or (
            self.deadline is not None and self.deadline.expired()
        )

    def remaining(self) -> Optional[float]:
        """Seconds to the deadline, or ``None`` when unbounded."""
        return None if self.deadline is None else self.deadline.remaining()

    def check(self, site: str = "") -> None:
        """Raise at a cooperative checkpoint if the token has fired."""
        if self._cancelled.is_set():
            self._note_fired(site, "cancelled")
            where = f" at {site}" if site else ""
            what = f" ({self.reason})" if self.reason else ""
            raise QueryCancelled(f"query cancelled{where}{what}")
        if self.deadline is not None:
            try:
                self.deadline.check(site)
            except DeadlineExceeded:
                self._note_fired(site, "deadline")
                raise

    def _note_fired(self, site: str, kind: str) -> None:
        """Mark the raise on the open span — a trace of a 504 then shows
        exactly which checkpoint observed the fired token.  Lazy import:
        this module sits below observability in the dependency order,
        and the cold path (the token fired) can afford the lookup."""
        from repro.observability.probe import active_probe

        probe = active_probe()
        if probe.enabled:
            probe.event(
                "resilience:cancelled",
                kind=kind,
                site=site,
                label=self.label,
            )

    # -- ambient installation (per thread) ---------------------------------------------

    def __enter__(self) -> "CancelToken":
        self._prev = getattr(_tls, "token", None)
        _tls.token = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tls.token = self._prev
        self._prev = None

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "live"
        return (
            f"CancelToken({self.label or 'anonymous'}, {state}, "
            f"deadline={self.deadline!r})"
        )


_tls = threading.local()


def active_token() -> Optional[CancelToken]:
    """The current thread's ambient token, or ``None`` outside any query
    scope (the zero-overhead common case — one thread-local read)."""
    return getattr(_tls, "token", None)


def check_cancelled(site: str = "") -> None:
    """Module-level cooperative checkpoint: raises if the current
    thread's ambient token (if any) has fired, no-op otherwise."""
    token = getattr(_tls, "token", None)
    if token is not None:
        token.check(site)


def clamp_timeout(timeout: Optional[float]) -> Optional[float]:
    """Fold the ambient deadline into a relative timeout.

    Returns the smaller of ``timeout`` and the ambient token's remaining
    budget (floored at 0 so expired deadlines surface immediately rather
    than blocking).  ``None`` in, no token → ``None`` out.
    """
    token = getattr(_tls, "token", None)
    if token is None or token.deadline is None:
        return timeout
    remaining = max(0.0, token.deadline.remaining())
    return remaining if timeout is None else min(timeout, remaining)
