"""Partition assignment container and validation."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.types import VERTEX_DTYPE


class PartitionAssignment:
    """A vertex -> part mapping with cached quality metrics.

    Use as ``owner_of`` for :class:`~repro.comm.pregel.PregelEngine` to
    count the remote traffic of running the graph distributed across
    ``n_parts`` machines.
    """

    def __init__(self, assignment: np.ndarray, n_parts: int) -> None:
        self.assignment = np.asarray(assignment, dtype=np.int64).ravel()
        self.n_parts = int(n_parts)
        if self.n_parts < 1:
            raise PartitionError(f"n_parts must be >= 1, got {self.n_parts}")
        if self.assignment.size:
            lo = int(self.assignment.min())
            hi = int(self.assignment.max())
            if lo < 0 or hi >= self.n_parts:
                raise PartitionError(
                    f"part ids must lie in [0, {self.n_parts}); found "
                    f"range [{lo}, {hi}]"
                )

    @property
    def n_vertices(self) -> int:
        return self.assignment.shape[0]

    def part_of(self, vertex: int) -> int:
        """Owning part of one vertex."""
        return int(self.assignment[vertex])

    def vertices_of(self, part: int) -> np.ndarray:
        """All vertices assigned to ``part``."""
        if not (0 <= part < self.n_parts):
            raise PartitionError(f"part {part} out of range [0, {self.n_parts})")
        return np.nonzero(self.assignment == part)[0].astype(VERTEX_DTYPE)

    def part_sizes(self) -> np.ndarray:
        """Vertex count per part."""
        return np.bincount(self.assignment, minlength=self.n_parts)

    def subgraphs(self, graph: Graph) -> List:
        """Induced subgraph (plus id map) per part — partition-local
        processing, as §III-D's 'corresponding partitioned sub-graph'."""
        return [graph.induced_subgraph(self.vertices_of(p)) for p in range(self.n_parts)]

    def __repr__(self) -> str:
        sizes = self.part_sizes()
        return (
            f"PartitionAssignment(n_vertices={self.n_vertices}, "
            f"n_parts={self.n_parts}, sizes={sizes.tolist()})"
        )
