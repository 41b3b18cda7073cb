"""Parallel operators — essential component 3 (§IV-C).

Operators transform, expand, or contract frontiers and graphs.  Each is
overloaded on the execution-policy *type* (Listing 3's
``enable_if`` mechanism): the same call site runs sequentially,
thread-parallel with a barrier, asynchronously, or as one NumPy bulk
kernel, with identical semantics — the property the operator tests
assert directly.

* :func:`~repro.operators.advance.neighbors_expand` — traversal
  (frontier expansion), push or pull (Listing 3).
* :func:`~repro.operators.filter.filter_frontier` — frontier contraction
  by per-vertex predicate.
* :mod:`~repro.operators.reduce` — reductions over per-vertex values.
* :func:`~repro.operators.uniquify.uniquify` — duplicate removal.
* :func:`~repro.operators.intersection.segmented_intersection_counts` —
  sorted-neighborhood intersection (triangle counting).
* :mod:`~repro.operators.load_balance` — the chunking schedules
  ("this is where the bulk of optimizations can be introduced, such as
  ... load balancing").
"""

from repro.operators.advance import neighbors_expand
from repro.operators.filter import filter_frontier
from repro.operators.reduce import reduce_values, argreduce
from repro.operators.uniquify import uniquify
from repro.operators.intersection import segmented_intersection_counts
from repro.operators.segmented import segmented_neighbor_reduce
from repro.operators.conditions import bulk_condition, scalar_condition

__all__ = [
    "neighbors_expand",
    "filter_frontier",
    "reduce_values",
    "argreduce",
    "uniquify",
    "segmented_intersection_counts",
    "segmented_neighbor_reduce",
    "bulk_condition",
    "scalar_condition",
]
