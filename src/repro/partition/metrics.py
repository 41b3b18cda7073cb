"""Partition quality metrics: what "METIS beats random" is measured by."""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.partition.base import PartitionAssignment


def edge_cut(graph: Graph, partition: PartitionAssignment) -> int:
    """Number of edges whose endpoints live in different parts.

    For undirected graphs (both arcs stored) each cut undirected edge is
    counted twice; comparisons between heuristics are unaffected.
    """
    coo = graph.coo()
    parts = partition.assignment
    return int(np.count_nonzero(parts[coo.rows] != parts[coo.cols]))


def load_balance(partition: PartitionAssignment) -> float:
    """Max part size over mean part size; 1.0 is perfect balance."""
    sizes = partition.part_sizes().astype(np.float64)
    mean = sizes.mean()
    if mean == 0:
        return 1.0
    return float(sizes.max() / mean)


def communication_volume(graph: Graph, partition: PartitionAssignment) -> int:
    """Total communication volume: for each vertex, the number of
    *distinct remote parts* among its neighbors — the messages a
    superstep must actually send when messages to one vertex are merged
    at the sender."""
    coo = graph.coo()
    parts = partition.assignment
    src_part = parts[coo.rows]
    dst_part = parts[coo.cols]
    remote = src_part != dst_part
    if not np.any(remote):
        return 0
    # Unique (source vertex, destination part) pairs among remote edges.
    keys = coo.rows[remote].astype(np.int64) * partition.n_parts + dst_part[remote]
    return int(np.unique(keys).shape[0])
