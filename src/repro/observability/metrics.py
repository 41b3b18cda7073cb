"""The :class:`MetricsRegistry` — one sink for every layer's numbers.

Before this subsystem the repo had three disjoint accounting mechanisms:
``ResilienceCounters`` (named event counts), ``IterationStats``/
``RunStats`` (per-superstep records), and ad-hoc benchmark prints.  The
registry unifies them: every layer reports named **counters** (monotone
event counts), **gauges** (last-written values), and **histograms**
(value distributions with count/sum/min/max/percentiles), and one
snapshot shows the whole run.

Legacy compatibility: ``ResilienceCounters.increment`` forwards into the
ambient probe's registry (see :func:`repro.utils.counters.set_metrics_sink`),
so the canonical resilience counter names
(:data:`repro.utils.counters.RESILIENCE_COUNTER_NAMES`) appear here
unchanged, and :func:`MetricsRegistry.record_run` folds a ``RunStats``
into the standard loop metrics.
"""

from __future__ import annotations

import random
import threading
import zlib
from typing import Dict, List, Optional, Union


class Counter:
    """A monotone named count (thread-safe)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, n: Union[int, float] = 1) -> None:
        """Add ``n`` (>= 0) to the count."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> Union[int, float]:
        with self._lock:
            return self._value


class Gauge:
    """A last-value-wins named reading (thread-safe)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: Union[int, float]) -> None:
        """Overwrite the reading."""
        with self._lock:
            self._value = value

    @property
    def value(self) -> Union[int, float]:
        with self._lock:
            return self._value


class Histogram:
    """A bounded-reservoir distribution of observed values.

    Count/sum/min/max are exact.  Percentiles come from a **uniform**
    reservoir maintained with Vitter's algorithm R: once the reservoir
    is full, observation *i* replaces a random slot with probability
    ``reservoir / i``, so every observation — early superstep or late —
    is equally likely to be retained.  (Keeping the *first* N instead
    would skew long-run percentiles toward warm-up supersteps.)  The RNG
    is seeded from the histogram name, so a given observation sequence
    always yields the same sample — reports are reproducible.
    """

    __slots__ = ("name", "count", "total", "_min", "_max", "_sample",
                 "reservoir", "_rng", "_lock")

    def __init__(self, name: str, reservoir: int = 4096,
                 seed: Optional[int] = None) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._sample: List[float] = []
        self.reservoir = reservoir
        # Deterministic per-name seed (zlib.crc32, unlike hash(), is
        # stable across processes), overridable for tests.
        self._rng = random.Random(
            zlib.crc32(name.encode("utf-8")) if seed is None else seed
        )
        self._lock = threading.Lock()

    def observe(self, value: Union[int, float]) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if len(self._sample) < self.reservoir:
                self._sample.append(value)
            else:
                # Vitter's algorithm R: keep with probability k/i.
                slot = self._rng.randrange(self.count)
                if slot < self.reservoir:
                    self._sample[slot] = value

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained sample (0 if empty)."""
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if not self._sample:
                return 0.0
            ordered = sorted(self._sample)
            rank = max(0, min(len(ordered) - 1,
                              round(q / 100.0 * (len(ordered) - 1))))
            return ordered[rank]

    def summary(self) -> Dict[str, float]:
        """Exact count/sum/min/max/mean of everything observed."""
        with self._lock:
            if self.count == 0:
                return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                        "mean": 0.0}
            return {
                "count": self.count,
                "sum": self.total,
                "min": self._min,
                "max": self._max,
                "mean": self.total / self.count,
            }


class MetricsRegistry:
    """Named counters/gauges/histograms behind one lock-guarded namespace.

    Instruments are created on first use; a name is bound to one kind for
    the registry's lifetime (asking for the same name as a different
    kind raises, catching report-path typos early).
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, requested {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created on first use."""
        return self._get(name, Histogram)

    # -- legacy-shape unification --------------------------------------------------------

    def record_run(self, stats, prefix: str = "loop") -> None:
        """Fold a :class:`~repro.utils.counters.RunStats` into the
        standard loop metrics (the BSP/async parity shape)."""
        self.counter(f"{prefix}.supersteps").increment(stats.num_iterations)
        self.counter(f"{prefix}.edges_expanded").increment(
            stats.total_edges_touched
        )
        self.gauge(f"{prefix}.converged").set(1.0 if stats.converged else 0.0)
        for it in stats.iterations:
            self.histogram(f"{prefix}.frontier_size").observe(it.frontier_size)
            self.histogram(f"{prefix}.superstep_seconds").observe(it.seconds)

    # -- snapshots ---------------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot of every instrument."""
        with self._lock:
            instruments = dict(self._instruments)
        out: Dict[str, object] = {}
        for name, inst in sorted(instruments.items()):
            if isinstance(inst, (Counter, Gauge)):
                out[name] = inst.value
            else:
                out[name] = inst.summary()
        return out

    def counters_dict(self) -> Dict[str, Union[int, float]]:
        """Snapshot of counters only — comparable to
        ``ResilienceCounters.as_dict()`` for the legacy-equivalence tests."""
        with self._lock:
            instruments = dict(self._instruments)
        return {
            name: inst.value
            for name, inst in sorted(instruments.items())
            if isinstance(inst, Counter)
        }

    def reset(self) -> None:
        """Drop every instrument (a fresh namespace)."""
        with self._lock:
            self._instruments.clear()
