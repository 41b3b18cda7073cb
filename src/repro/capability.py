"""Machine-readable Table I: the TLAV capability matrix.

The paper's single table summarizes which models of each TLAV pillar the
abstraction captures, the abstraction element responsible, the concrete
mechanism, and the models deliberately ignored.  This module encodes
that matrix *and* binds every claimed mechanism to the module that
implements it here, so the Table I bench can both print the matrix and
assert (by import) that every claimed capability actually exists in the
codebase — the reproduction of the table is executable.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class PillarCapability:
    """One row of Table I."""

    pillar: str
    models_captured: Tuple[str, ...]
    abstraction: str
    mechanism: str
    models_ignored: Tuple[str, ...]
    #: ``(module, attribute)`` pairs proving each captured model exists.
    implementations: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)


TABLE_I: List[PillarCapability] = [
    PillarCapability(
        pillar="Timing",
        models_captured=("Bulk-Synchronous", "Asynchronous"),
        abstraction="Operators, Loop structure",
        mechanism="Execution policies",
        models_ignored=(),
        implementations=(
            ("repro.execution.policy", "par"),
            ("repro.execution.policy", "par_vector"),
            ("repro.execution.policy", "par_nosync"),
            ("repro.loop.enactor", "Enactor"),
            ("repro.loop.async_enactor", "AsyncEnactor"),
        ),
    ),
    PillarCapability(
        pillar="Communication",
        models_captured=("Shared-Memory", "Message Passing"),
        abstraction="Graph and Frontier Representations",
        mechanism="Queue-based (messages) or bitmap, sparse frontiers",
        models_ignored=("Active Messages",),
        implementations=(
            ("repro.frontier.sparse", "SparseFrontier"),
            ("repro.frontier.dense", "DenseFrontier"),
            ("repro.frontier.queue", "AsyncQueueFrontier"),
            ("repro.comm.pregel", "PregelEngine"),
        ),
    ),
    PillarCapability(
        pillar="Execution Model",
        models_captured=("Vertex Programs", "Push vs. Pull"),
        abstraction="Operators, Frontiers and Graph Representations",
        mechanism=(
            "Vertex/edge-centric frontiers and compressed sparse "
            "row/column graph representations"
        ),
        models_ignored=(),
        implementations=(
            ("repro.operators.advance", "neighbors_expand"),
            ("repro.frontier.edge", "EdgeFrontier"),
            ("repro.graph.csr", "CSRMatrix"),
            ("repro.graph.csc", "CSCMatrix"),
            ("repro.comm.pregel", "VertexProgram"),
        ),
    ),
    PillarCapability(
        pillar="Partitioning",
        models_captured=("Heuristics (Mostly Unexplored)",),
        abstraction="Graph and Frontier Representations",
        mechanism="Random partitioning, METIS",
        models_ignored=("Streaming", "Vertex Cuts", "Dynamic Repartitioning"),
        implementations=(
            ("repro.partition.random_partition", "random_partition"),
            ("repro.partition.metis_like", "metis_like_partition"),
        ),
    ),
]


def verify_capabilities() -> List[str]:
    """Import every claimed implementation; return a list of failures
    (empty = the matrix is fully backed by code)."""
    failures = []
    for row in TABLE_I:
        for module_name, attr in row.implementations:
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                failures.append(f"{row.pillar}: cannot import {module_name}: {exc}")
                continue
            if not hasattr(module, attr):
                failures.append(
                    f"{row.pillar}: {module_name} has no attribute {attr!r}"
                )
    return failures


def format_table(width: int = 100) -> str:
    """Render Table I as aligned text (what the bench prints)."""
    lines = []
    header = (
        f"{'TLAV Pillar':<16} {'Models Captured':<34} "
        f"{'Mechanism':<36} Models Ignored"
    )
    lines.append(header)
    lines.append("-" * max(width, len(header)))
    for row in TABLE_I:
        captured = ", ".join(row.models_captured)
        ignored = ", ".join(row.models_ignored) or "-"
        lines.append(
            f"{row.pillar:<16} {captured:<34} {row.mechanism[:36]:<36} {ignored}"
        )
    return "\n".join(lines)
