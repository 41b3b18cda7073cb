"""The :class:`Probe` — the single instrumentation handle, null by default.

Every instrumented seam (enactors, schedulers, the thread pool, the
Pregel step, operators, the resilience layer) asks
:func:`active_probe` for the current probe and reports through it.
Outside any profiling context that returns the process-wide
:data:`NULL_PROBE`, whose every method is a no-op returning shared
singletons — the disabled path costs one module-global read plus a
no-op call, which the overhead test bounds at under 2% of a grid-SSSP
run.

Installing a real probe is a context manager, mirroring the resilience
layer's ambient :class:`~repro.resilience.chaos.FaultInjector`::

    probe = Probe()
    with probe:
        sssp(g, 0)
    print(render_summary(probe))

Installation also bridges the legacy path: while a probe is installed,
``ResilienceCounters.increment`` forwards every count into the probe's
:class:`~repro.observability.metrics.MetricsRegistry` under the same
name, so resilience activity and loop telemetry land in one sink.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator, Optional, Union

from repro.observability.metrics import MetricsRegistry
from repro.observability.span import Span
from repro.observability.tracer import Tracer
from repro.utils.counters import set_metrics_sink


class _NullContext:
    """Reusable no-op context manager yielding a shared inert span.

    ``__enter__``/``__exit__`` are staticmethods: the with-statement
    machinery then skips binding ``self``, shaving ~25% off the
    disabled-path span cost (this context runs once per instrumentation
    touchpoint on every un-probed superstep).
    """

    __slots__ = ()

    @staticmethod
    def __enter__() -> "Span":
        return NULL_SPAN

    @staticmethod
    def __exit__(*exc_info) -> bool:
        return False


class _NullSpan(Span):
    """The span handed out on the disabled path; ``set`` discards."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(span_id=-1, name="null", start=0.0)

    def set(self, key: str, value: Any) -> "Span":
        return self

    def add_event(self, event) -> None:
        pass


NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()


class Probe:
    """A tracer plus a metrics registry behind one reporting surface.

    Parameters
    ----------
    tracer:
        Span collector (created fresh when omitted).
    metrics:
        Metrics sink (created fresh when omitted).
    trace:
        When ``False`` the probe collects metrics only — span calls
        become no-ops.  Cheap profiles that only need the summary table
        can skip span buffering entirely.
    """

    enabled = True

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        *,
        trace: bool = True,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace
        # Mirror buffer overflow into the metrics sink: a live scrape
        # then exposes ``trace.dropped_spans`` without reading exports.
        self.tracer.metrics = self.metrics

    # -- tracing ----------------------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a nested span (a context manager yielding the span)."""
        if not self.trace:
            return _NULL_CONTEXT
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Mark an instant on the calling thread's open span."""
        if self.trace:
            self.tracer.event(name, **attrs)

    def record_span(self, name: str, *, duration: float, **attrs: Any) -> None:
        """Record a span for work already timed elsewhere (a worker
        process's busy interval), ending now and parented to the calling
        thread's open span."""
        if self.trace:
            end = self.tracer.now()
            self.tracer.record(name, max(0.0, end - duration), end, **attrs)

    # -- metrics ----------------------------------------------------------------------

    def counter(self, name: str, n: Union[int, float] = 1) -> None:
        """Increment the named counter by ``n``."""
        self.metrics.counter(name).increment(n)

    def gauge(self, name: str, value: Union[int, float]) -> None:
        """Set the named gauge."""
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: Union[int, float]) -> None:
        """Record into the named histogram."""
        self.metrics.histogram(name).observe(value)

    # -- ambient installation ----------------------------------------------------------

    def __enter__(self) -> "Probe":
        install_probe(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        uninstall_probe(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"Probe(spans={len(self.tracer)}, "
            f"metrics={len(self.metrics.as_dict())})"
        )


class NullProbe(Probe):
    """The disabled probe: every call is a no-op on shared singletons."""

    enabled = False

    def __init__(self) -> None:
        # No tracer/registry allocated: the null probe must be free.
        self.trace = False

    def span(self, name: str, **attrs: Any):
        return _NULL_CONTEXT

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def record_span(self, name: str, *, duration: float, **attrs: Any) -> None:
        pass

    def counter(self, name: str, n: Union[int, float] = 1) -> None:
        pass

    def gauge(self, name: str, value: Union[int, float]) -> None:
        pass

    def observe(self, name: str, value: Union[int, float]) -> None:
        pass

    def __enter__(self) -> "NullProbe":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: Process-wide disabled probe — what :func:`active_probe` returns
#: outside any installation, so call sites never branch on ``None``.
NULL_PROBE = NullProbe()

_install_lock = threading.Lock()
_active: Probe = NULL_PROBE


def active_probe() -> Probe:
    """The ambient probe (the :data:`NULL_PROBE` when none installed)."""
    return _active


def install_probe(probe: Probe) -> None:
    """Make ``probe`` ambient; nested installs are rejected (one probe
    observes one session, matching the chaos injector's discipline)."""
    global _active
    with _install_lock:
        if _active is not NULL_PROBE:
            raise RuntimeError("a probe is already installed")
        _active = probe
        set_metrics_sink(
            lambda name, n: probe.metrics.counter(name).increment(n)
        )


def uninstall_probe(probe: Probe) -> None:
    """Remove ``probe`` if it is the ambient one (idempotent otherwise)."""
    global _active
    with _install_lock:
        if _active is probe:
            _active = NULL_PROBE
            set_metrics_sink(None)
