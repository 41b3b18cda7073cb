"""Measurement machinery shared by every workload of the suite.

Nothing here knows what an op is: a workload hands :func:`closed_loop`
a callable and gets back per-op wall times; :func:`summarize` folds the
passes into the four end-to-end metrics.  The suite's own spans
(:class:`SpanLog`) wrap public calls from the outside — ``src/`` is not
edited by the benchmark — and are written once, at exit.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
OUT_DIR = os.path.join(SUITE_DIR, "out")

#: Passes per run; a reported value is the median over the passes.
PASSES = 3
#: Set-up is repeated at least this many times per untraced run and the
#: median reported, so one slow process spawn does not decide
#: ``setup_s``; quick set-ups repeat until they add up to
#: ``SETUP_SECONDS``, at most ``SETUP_REPEATS_MAX`` times.
SETUP_REPEATS = 5
SETUP_REPEATS_MAX = 7
SETUP_SECONDS = 3.0

#: Environment the suite pins.  ``None`` means "must be unset".  A caller
#: whose environment disagrees is refused rather than silently measured
#: on a different configuration.
PINNED_ENV = {
    "REPRO_NO_SCIPY": None,
    "REPRO_PROC_START": None,
    "REPRO_NUM_WORKERS": str(min(2, os.cpu_count() or 1)),
}


class SuiteError(Exception):
    """A condition that stops the run with a message, not a traceback."""


def bootstrap() -> None:
    """Put this checkout's ``src`` first on ``sys.path``.

    The suite measures the program in *this* checkout, so an installed
    ``repro`` from elsewhere must never satisfy the import.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SuiteError(
            f"no program to measure: {src}/repro does not exist (the suite "
            f"builds nothing; it imports the checkout it sits in)"
        )
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SuiteError(
            f"imported repro from {repro.__file__}, not from {src}"
        )


def workers() -> int:
    return int(PINNED_ENV["REPRO_NUM_WORKERS"])


def pin_environment(tmp_dir: str) -> None:
    """Refuse a conflicting caller environment, then apply the pins."""
    for key, pinned in PINNED_ENV.items():
        got = os.environ.get(key)
        if got is not None and got != pinned:
            raise SuiteError(
                f"{key}={got!r} is set in the environment, but the suite "
                f"pins it to {'unset' if pinned is None else repr(pinned)}; "
                f"unset it and run again"
            )
        if pinned is not None:
            os.environ[key] = pinned
    # Run-ledger records of anything the suite calls land in the temp
    # dir, never in the caller's ~/.repro or the checkout's .repro/.
    os.environ["REPRO_LEDGER_DIR"] = os.path.join(tmp_dir, "ledger")


def child_env() -> Dict[str, str]:
    """Environment for a ``repro serve`` subprocess of this checkout."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def metadata(seed: int) -> Dict[str, object]:
    """What a later reader needs to judge whether two files compare."""
    import numpy

    from repro.linalg import scipy_available

    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        sha: Optional[str] = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # an exported checkout has no .git
    return {
        "cores": {
            "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        },
        "workers": workers(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "scipy_available": scipy_available(),
        "git_sha": sha,
        "seed": seed,
    }


def reap_resource_tracker() -> None:
    """Stop and wait for the stdlib's shared-memory resource tracker.

    ``multiprocessing.shared_memory`` starts a helper process that only
    ends when this one does, and nobody waits for it.  A benchmark run
    must not leave a process behind, so once the program under test has
    released its segments the tracker is stopped the way the stdlib's
    own tests do it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MB (the kernel's high-water mark)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SuiteError(f"/proc/{pid}/status has no VmHWM line")


# -- the suite's own spans -------------------------------------------------------------


class SpanLog:
    """Spans recorded by the suite around calls into the program.

    ``(name, start, end, parent, op)`` tuples kept in memory and written
    once by :meth:`write`.  Disabled (the untraced run) it records
    nothing, so end-to-end numbers never pay for it.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Tuple[str, float, float, Optional[int], int]] = []
        self._stack: List[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def call_ms(self) -> Dict[str, Dict[str, float]]:
        """Median duration per span name: the per-call layer rows."""
        by_name: Dict[str, List[float]] = {}
        for name, start, end, _parent, _op in self.spans:
            by_name.setdefault(name, []).append((end - start) * 1e3)
        return {
            name: {
                "value": statistics.median(values),
                "unit": "ms",
                "samples": len(values),
            }
            for name, values in sorted(by_name.items())
        }

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


# -- passes ----------------------------------------------------------------------------


@dataclass
class Budget:
    """How long one pass runs: a fixed op count, or a wall-time share.

    The driver's contract measures for ``--seconds``; without it the
    suite runs its own constant op counts, which is what makes the
    exact-count rows repeat between two sets.
    """

    ops: Optional[int] = None
    seconds: Optional[float] = None

    def exhausted(self, done: int, started: float) -> bool:
        if self.seconds is not None:
            return time.perf_counter() - started >= self.seconds
        return done >= (self.ops or 0)


@dataclass
class PassResult:
    op_ms: List[float] = field(default_factory=list)
    #: Time the ops took; for a single closed loop the sum of the op
    #: intervals (checks between ops excluded), for concurrent
    #: connections the wall time of the pass.
    wall_s: float = 0.0
    failed: int = 0


def closed_loop(
    op: Callable[[int], None],
    budget: Budget,
    *,
    first_index: int = 0,
    between: Optional[Callable[[int], None]] = None,
) -> PassResult:
    """Issue ``op(i)`` back to back from one caller until the budget ends.

    An op that raises is counted as failed and the loop goes on.
    ``between(i)`` runs after op ``i`` with the clock stopped — where
    oracles that must see intermediate state go.
    """
    result = PassResult()
    started = time.perf_counter()
    i = first_index
    while not budget.exhausted(i - first_index, started):
        t0 = time.perf_counter()
        try:
            op(i)
        except Exception as exc:  # noqa: BLE001 - a failed op is a data point
            result.failed += 1
            print(f"  op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        dt = time.perf_counter() - t0
        result.op_ms.append(dt * 1e3)
        result.wall_s += dt
        if between is not None:
            between(i)
        i += 1
    return result


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def summarize(passes: List[PassResult]) -> Dict[str, Dict[str, object]]:
    """``op_ms_p50`` / ``ops_per_s`` (median over passes) and the
    diagnostic ``op_ms_p95`` over all samples, each with its counts."""
    p50s = [statistics.median(p.op_ms) for p in passes]
    rates = [len(p.op_ms) / p.wall_s for p in passes]
    samples = [ms for p in passes for ms in p.op_ms]
    return {
        "op_ms_p50": {
            "value": statistics.median(p50s),
            "unit": "ms",
            "passes": p50s,
            "samples": len(samples),
        },
        "ops_per_s": {
            "value": statistics.median(rates),
            "unit": "1/s",
            "passes": rates,
            "samples": len(samples),
        },
        "op_ms_p95": {
            "value": percentile(samples, 0.95),
            "unit": "ms",
            "samples": len(samples),
        },
    }
