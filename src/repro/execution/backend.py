"""Backend dispatch — native-graph vs. linear-algebra execution.

The paper frames graph frameworks as either *native-graph* (frontiers,
advance/filter operators — Gunrock's model, everything this repo runs)
or *linear-algebra based* (masked matrix products over semirings —
GraphBLAST's model).  Here the two meet in kernels rather than in two
sets of drivers: the dense (+, ×) algorithms (pagerank, ppr, hits,
spmv) run the one sum-aggregate kernel
(:mod:`repro.operators.sum_aggregate`) under either name, so the name is
recorded but selects nothing, and ``spgemm`` under ``"linalg"`` runs
scipy's SpGEMM.  The traversals (bfs, sssp, cc) have no matrix driver:
:mod:`repro.linalg` is the reference algebra their advance is checked
against (the ``advance_semiring`` oracle), not a second way to run them.

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
LINALG_ALGORITHMS = frozenset({"pagerank", "ppr", "hits", "spmv", "spgemm"})


def supports(backend: str, algorithm: str) -> bool:
    """Whether ``algorithm`` can execute on ``backend`` directly."""
    if backend in ("native", "auto"):
        return True
    return algorithm in LINALG_ALGORITHMS


def resolve_backend(backend: Optional[str], algorithm: str) -> str:
    """Pick the concrete backend for one algorithm invocation.

    ``None``/``"native"`` → native.  ``"linalg"`` → linalg when the
    algorithm has a matrix formulation, else native with a
    ``backend:fallback`` probe event.  ``"auto"`` → linalg where it has
    a formulation, native (silently — auto *is* the probe) elsewhere.
    """
    if backend is None or backend == "native":
        return "native"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if algorithm in LINALG_ALGORITHMS:
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
