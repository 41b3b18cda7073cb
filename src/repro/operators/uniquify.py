"""Uniquify: remove duplicate ids from a frontier.

Push advance may emit a vertex once per discovering parent; algorithms
needing set semantics dedup between supersteps.  Two strategies:

* **sort** — sort the id vector and drop adjacent repeats (the
  ``np.unique`` recipe): O(k log k), output sorted (deterministic
  downstream iteration order).
* **bitmap** — scatter into a capacity-length flag array and gather
  back: O(k + n), wins when the frontier is a large fraction of the
  graph.  Equivalent to a round-trip through the dense representation.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import FrontierError
from repro.frontier.base import Frontier, FrontierKind
from repro.frontier.dense import DenseFrontier
from repro.frontier.sparse import SparseFrontier
from repro.execution.policy import ExecutionPolicy, resolve_policy
from repro.operators.fused import dedup_ids, sort_unique
from repro.types import VERTEX_DTYPE


def uniquify(
    policy: Union[str, ExecutionPolicy],
    frontier: Frontier,
    *,
    strategy: str = "auto",
    workspace=None,
) -> Frontier:
    """Return a duplicate-free sparse frontier with the same active set.

    ``strategy``: ``"sort"``, ``"bitmap"``, or ``"auto"`` (the measured
    crossover of :func:`~repro.operators.fused.dedup_ids`: sort below a
    quarter of capacity, bitmap above, its flags pooled in
    ``workspace``).  Dense frontiers are already duplicate-free and are
    returned unchanged.
    Both strategies produce the identical sorted output.
    """
    resolve_policy(policy)  # validated for interface uniformity
    if frontier.kind is not FrontierKind.VERTEX:
        raise FrontierError("uniquify requires a vertex frontier")
    if isinstance(frontier, DenseFrontier):
        return frontier
    # ids already in the frontier passed validation on the way in, so the
    # dedup round-trip can use the zero-copy view and the trusted append.
    if isinstance(frontier, SparseFrontier):
        indices = frontier.indices_view()
    else:
        indices = frontier.to_indices()
    out = SparseFrontier(frontier.capacity)
    if indices.size == 0:
        return out
    if strategy == "auto":
        out.add_many_trusted(dedup_ids(indices, frontier.capacity, workspace))
    elif strategy == "sort":
        out.add_many_trusted(sort_unique(indices))
    elif strategy == "bitmap":
        if workspace is not None:
            flags = workspace.cleared("uniquify.flags", frontier.capacity, bool)
        else:
            flags = np.zeros(frontier.capacity, dtype=bool)
        flags[indices] = True
        out.add_many_trusted(np.nonzero(flags)[0].astype(VERTEX_DTYPE))
    else:
        raise ValueError(
            f"strategy must be 'sort', 'bitmap', or 'auto', got {strategy!r}"
        )
    return out
