"""Frontiers: the active working set — essential component 2.

A frontier is the set of vertices (or edges) active in the current
iteration of a graph algorithm.  The paper's key move (§III-B, §IV-B) is
that one top-level interface covers *multiple underlying
representations*, and the choice of representation is what selects the
communication model:

* :class:`~repro.frontier.sparse.SparseFrontier` — a vector of active
  ids (Listing 2); shared-memory, compact when the active fraction is
  small.
* :class:`~repro.frontier.dense.DenseFrontier` — a boolean bitmap;
  shared-memory, O(1) membership, wins when most vertices are active.
* :class:`~repro.frontier.queue.AsyncQueueFrontier` — a thread-safe
  queue; elements are *messages*, enabling the asynchronous /
  message-passing models (Chen et al.'s Atos queue).
* :class:`~repro.frontier.edge.EdgeFrontier` — active *edges* instead of
  vertices, for edge-centric programs (§III-C).

:func:`~repro.frontier.convert.convert` moves between representations,
and :func:`~repro.frontier.convert.auto_select` implements the
size-based heuristic for picking one.
"""

from repro.frontier.base import Frontier, FrontierKind
from repro.frontier.sparse import SparseFrontier
from repro.frontier.dense import DenseFrontier
from repro.frontier.queue import AsyncQueueFrontier
from repro.frontier.edge import EdgeFrontier
from repro.frontier.convert import convert, auto_select, make_frontier

__all__ = [
    "Frontier",
    "FrontierKind",
    "SparseFrontier",
    "DenseFrontier",
    "AsyncQueueFrontier",
    "EdgeFrontier",
    "convert",
    "auto_select",
    "make_frontier",
]
