"""One-call profiling runs: algorithm in, traced + metered report out.

This is the engine behind ``repro profile`` — it installs a
:class:`~repro.observability.probe.Probe` as the ambient probe, runs the
requested algorithm, and hands back everything the exporters need: the
probe (spans + metrics), the per-iteration :class:`RunStats`, the result
values, and the end-to-end wall time.

Every entry of :data:`repro.algorithms.REGISTRY` can be profiled; the
registry spans the timing models (BSP enactor, asynchronous scheduler,
Pregel engine), so one command compares the same workload across the
paper's §III-A axis with uniform output.

The registry is imported inside :func:`profile_algorithm` — profiling
sits *above* the enactors in the dependency order, while the rest of
:mod:`repro.observability` sits below them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

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


def profile_algorithm(
    graph,
    algorithm: str,
    *,
    source: Optional[int] = None,
    policy: Optional[str] = None,
    num_workers: Optional[int] = None,
    probe: Optional[Probe] = None,
    trace: bool = True,
    backend: Optional[str] = None,
) -> ProfileReport:
    """Run ``algorithm`` on ``graph`` under an ambient probe.

    Parameters
    ----------
    graph:
        The graph to process.
    algorithm:
        A key of :data:`repro.algorithms.REGISTRY`.
    source, policy, num_workers, backend:
        Plan fields.  ``None`` keeps the entry's own default, and a
        field the algorithm's spec does not consume is ignored, so one
        call shape profiles every algorithm (``repro profile`` rejects
        such flags before it gets here).
    probe:
        Reuse an existing probe (e.g. to accumulate several runs into
        one trace); a fresh one is created when omitted.
    trace:
        Collect spans (disable for metrics-only profiles).
    """
    from repro.algorithms import REGISTRY

    spec = REGISTRY.get(algorithm)
    if spec is None:
        raise ValueError(
            f"unknown profile algorithm {algorithm!r}; expected one of "
            f"{sorted(REGISTRY)}"
        )
    requested = dict(
        source=source, policy=policy, num_workers=num_workers, backend=backend
    )
    plan = {k: v for k, v in requested.items() if v is not None and k in spec.fields}
    if probe is None:
        probe = Probe(trace=trace)
    clock = WallClock()
    with probe:
        with clock.measure():
            result = spec.run(graph, plan)
    report = ProfileReport(
        algorithm=algorithm,
        probe=probe,
        seconds=clock.elapsed,
        stats=result.stats,
        values=spec.values_of(result),
        graph_info={
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
        },
    )
    probe.gauge("profile.seconds", clock.elapsed)
    probe.gauge("profile.n_vertices", graph.n_vertices)
    probe.gauge("profile.n_edges", graph.n_edges)
    return report
