"""Backend dispatch — native-graph vs. linear-algebra execution.

The paper frames graph frameworks as either *native-graph* (frontiers,
advance/filter operators — Gunrock's model, everything this repo built
through PR 9) or *linear-algebra based* (masked matrix products over
semirings — GraphBLAST's model, :mod:`repro.linalg`).  This module is
the seam that lets one algorithm entry point serve both: callers pass
``backend="native" | "linalg" | "auto"`` and the entry point routes to
the frontier enactor or the semiring drivers.  For the dense (+, ×)
algorithms (pagerank, ppr, hits, spmv) the two families meet in one
kernel (:mod:`repro.operators.sum_aggregate`), so the name is recorded
but selects nothing.

Capability probing mirrors the policy layer's graceful degradation:
asking for ``linalg`` on an algorithm without a matrix formulation
falls back to native (with a ``backend:fallback`` probe event, so
traces show the substitution) rather than erroring — same contract as
``par_proc`` degrading to ``par_vector``.
"""

from __future__ import annotations

from typing import Optional

#: Backend names accepted by algorithm entry points and the CLI.
BACKENDS = ("native", "linalg", "auto")

#: Algorithms with a linear-algebra formulation.  Everything else is
#: native-only.
LINALG_ALGORITHMS = frozenset(
    {"bfs", "sssp", "cc", "pagerank", "ppr", "hits", "spmv", "spgemm"}
)

#: Where ``"auto"`` resolves to native although a linalg driver exists:
#: the frontier traversals, whose sparse frontiers the pure-NumPy SpMSpV
#: cannot amortize (``benchmarks/suite/baseline/HEAD.json``, rmat-16,
#: native vs linalg: bfs 12.0 vs 48.7 ms, sssp 17.8 vs 92.5 ms, cc 49.9
#: vs 315 ms).  The dense (+, ×) algorithms are one code path under
#: either name, so for them the choice costs nothing.
AUTO_NATIVE = frozenset({"bfs", "sssp", "cc"})


def supports(backend: str, algorithm: str) -> bool:
    """Whether ``algorithm`` can execute on ``backend`` directly."""
    if backend in ("native", "auto"):
        return True
    return algorithm in LINALG_ALGORITHMS


def resolve_backend(backend: Optional[str], algorithm: str) -> str:
    """Pick the concrete backend for one algorithm invocation.

    ``None``/``"native"`` → native.  ``"linalg"`` → linalg when the
    algorithm has a matrix formulation, else native with a
    ``backend:fallback`` probe event.  ``"auto"`` → the measured
    winner per algorithm: native for :data:`AUTO_NATIVE` and for
    anything without a matrix formulation (silently — auto *is* the
    probe), linalg for the rest.
    """
    if backend is None or backend == "native":
        return "native"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if algorithm in LINALG_ALGORITHMS and not (
        backend == "auto" and algorithm in AUTO_NATIVE
    ):
        return "linalg"
    if backend == "linalg":
        from repro.observability.probe import active_probe

        probe = active_probe()
        if probe.enabled:
            probe.event(
                "backend:fallback",
                algorithm=algorithm,
                requested="linalg",
                used="native",
            )
            probe.counter("backend.fallbacks")
    return "native"
