"""Partitioning heuristics — the fourth TLAV pillar (§III-D).

The paper leaves this pillar "largely unexplored" but names the two
models Table I captures: **random partitioning** and **METIS**.  We
implement both — METIS as a from-scratch multilevel heuristic
(heavy-edge-matching coarsening, greedy initial assignment,
Fiduccia–Mattheyses boundary refinement; see the DESIGN.md substitution
table) — plus contiguous/round-robin chunking and the streaming
heuristics (LDG, Fennel) as an extension.  Table I's "ignored" models
(vertex cuts, dynamic repartitioning) remain out of scope by design.

A partition is just a vertex->part assignment array; the
:class:`~repro.partition.base.PartitionAssignment` wrapper adds the
quality metrics (edge cut, balance) the partitioning bench reports, and
plugs directly into the Pregel engine as ``owner_of``.
"""

from repro.partition.base import PartitionAssignment
from repro.partition.metrics import edge_cut, load_balance, communication_volume
from repro.partition.random_partition import random_partition
from repro.partition.chunking import contiguous_partition, round_robin_partition
from repro.partition.metis_like import metis_like_partition
from repro.partition.streaming import ldg_partition, fennel_partition

__all__ = [
    "PartitionAssignment",
    "edge_cut",
    "load_balance",
    "communication_volume",
    "random_partition",
    "contiguous_partition",
    "round_robin_partition",
    "metis_like_partition",
    "ldg_partition",
    "fennel_partition",
]
