"""One-call profiling runs: algorithm in, traced + metered report out.

This is the engine behind ``repro profile`` — it installs a
:class:`~repro.observability.probe.Probe` as the ambient probe, runs the
requested algorithm, and hands back everything the exporters need: the
probe (spans + metrics), the per-iteration :class:`RunStats`, the result
values, and the end-to-end wall time.

Profiled algorithms deliberately span the timing models (BSP enactor,
asynchronous scheduler, Pregel engine) so one command
compares the same workload across the paper's §III-A axis with uniform
output.

Imports of the algorithm layer happen inside the runner functions —
profiling sits *above* the enactors in the dependency order, while the
rest of :mod:`repro.observability` sits below them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.observability.probe import Probe
from repro.utils.counters import RunStats
from repro.utils.timing import WallClock


@dataclass
class ProfileReport:
    """Everything one profiled run produced."""

    algorithm: str
    probe: Probe
    seconds: float
    stats: Optional[RunStats] = None
    values: Optional[np.ndarray] = None
    graph_info: Dict[str, Any] = field(default_factory=dict)

    def summary_metrics(self) -> Dict[str, Any]:
        """The flat numbers a JSON consumer wants for one run."""
        out: Dict[str, Any] = {
            "algorithm": self.algorithm,
            "seconds": self.seconds,
        }
        out.update(self.graph_info)
        if self.stats is not None:
            out["iterations"] = self.stats.num_iterations
            out["edges_expanded"] = self.stats.total_edges_touched
            out["mteps"] = self.stats.mteps
            out["converged"] = self.stats.converged
        out["spans"] = len(self.probe.tracer) if self.probe.trace else 0
        return out


def _run_sssp(graph, source, policy, num_workers, backend="native"):
    from repro.algorithms import sssp

    return sssp(graph, source, policy=policy, backend=backend)


def _run_sssp_async(graph, source, policy, num_workers, backend="native"):
    from repro.algorithms import sssp_async

    return sssp_async(graph, source, num_workers=num_workers)


def _run_bfs(graph, source, policy, num_workers, backend="native"):
    from repro.algorithms import bfs

    return bfs(graph, source, policy=policy, backend=backend)


def _run_cc(graph, source, policy, num_workers, backend="native"):
    from repro.algorithms import connected_components

    return connected_components(graph, policy=policy, backend=backend)


def _run_pagerank(graph, source, policy, num_workers, backend="native"):
    from repro.algorithms import pagerank

    return pagerank(graph, policy=policy, backend=backend)


def _run_pregel_pagerank(graph, source, policy, num_workers, backend="native"):
    from repro.algorithms.pregel_programs import pregel_pagerank

    return pregel_pagerank(graph)


#: name -> (runner, attribute holding the per-vertex values)
PROFILED_ALGORITHMS: Dict[str, tuple] = {
    "sssp": (_run_sssp, "distances"),
    "sssp_async": (_run_sssp_async, "distances"),
    "bfs": (_run_bfs, "levels"),
    "cc": (_run_cc, "labels"),
    "pagerank": (_run_pagerank, "ranks"),
    "pregel_pagerank": (_run_pregel_pagerank, "ranks"),
}


def profile_algorithm(
    graph,
    algorithm: str,
    *,
    source: int = 0,
    policy: str = "par_vector",
    num_workers: int = 4,
    probe: Optional[Probe] = None,
    trace: bool = True,
    runner: Optional[Callable] = None,
    backend: str = "native",
) -> ProfileReport:
    """Run ``algorithm`` on ``graph`` under an ambient probe.

    Parameters
    ----------
    graph:
        The graph to process.
    algorithm:
        A key of :data:`PROFILED_ALGORITHMS` (ignored when ``runner``
        is given).
    source:
        Source vertex for traversal algorithms.
    policy:
        Execution policy name for policy-overloaded algorithms.
    num_workers:
        Worker threads for the asynchronous timing model.
    probe:
        Reuse an existing probe (e.g. to accumulate several runs into
        one trace); a fresh one is created when omitted.
    trace:
        Collect spans (disable for metrics-only profiles).
    runner:
        Custom ``runner(graph, source, policy, num_workers) -> result``
        overriding the registry — how callers profile algorithms this
        module does not know about.
    backend:
        Execution backend for registry algorithms that support it
        (``"native"`` | ``"linalg"`` | ``"auto"``).  Passed to a custom
        ``runner`` only when non-native, so 4-argument runners keep
        working.
    """
    if runner is None:
        if algorithm not in PROFILED_ALGORITHMS:
            raise ValueError(
                f"unknown profile algorithm {algorithm!r}; expected one of "
                f"{sorted(PROFILED_ALGORITHMS)}"
            )
        runner, values_attr = PROFILED_ALGORITHMS[algorithm]
    else:
        values_attr = None
    if probe is None:
        probe = Probe(trace=trace)
    clock = WallClock()
    with probe:
        with clock.measure():
            if backend != "native":
                result = runner(
                    graph, source, policy, num_workers, backend=backend
                )
            else:
                result = runner(graph, source, policy, num_workers)
    stats = getattr(result, "stats", None)
    values = (
        getattr(result, values_attr, None) if values_attr is not None else None
    )
    report = ProfileReport(
        algorithm=algorithm,
        probe=probe,
        seconds=clock.elapsed,
        stats=stats,
        values=values,
        graph_info={
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
        },
    )
    probe.gauge("profile.seconds", clock.elapsed)
    probe.gauge("profile.n_vertices", graph.n_vertices)
    probe.gauge("profile.n_edges", graph.n_edges)
    return report
