"""Conversions between frontier representations, and the size heuristic.

Because every representation answers :meth:`~repro.frontier.base.Frontier.to_indices`,
conversion is mechanical; the interesting piece is
:func:`auto_select` — the "depending on the size ... of a frontier"
heuristic from §III-B that picks sparse storage for small active sets
and the dense bitmap once the active fraction crosses a threshold (the
same crossover direction-optimized BFS exploits).
"""

from __future__ import annotations

from typing import Type, Union

from repro.errors import FrontierError
from repro.frontier.base import Frontier, FrontierKind
from repro.frontier.dense import DenseFrontier
from repro.frontier.edge import EdgeFrontier
from repro.frontier.queue import AsyncQueueFrontier
from repro.frontier.sparse import SparseFrontier

#: Active-fraction threshold above which the dense bitmap wins (the
#: dedup crossover sits in the single-digit percents, EXPERIMENTS.md F1);
#: the default is the conventional BFS direction-switch region.
DENSE_THRESHOLD = 0.05

_NAMES = {
    "sparse": SparseFrontier,
    "dense": DenseFrontier,
    "queue": AsyncQueueFrontier,
    "edge": EdgeFrontier,
}


def make_frontier(
    representation: Union[str, Type[Frontier]], capacity: int
) -> Frontier:
    """Construct an empty frontier by representation name or class."""
    if isinstance(representation, str):
        cls = _NAMES.get(representation)
        if cls is None:
            raise FrontierError(
                f"unknown frontier representation {representation!r}; "
                f"expected one of {sorted(_NAMES)}"
            )
    else:
        cls = representation
        if not (isinstance(cls, type) and issubclass(cls, Frontier)):
            raise FrontierError(
                f"representation must be a name or Frontier subclass, got "
                f"{representation!r}"
            )
    return cls(capacity)


def convert(frontier: Frontier, target: Union[str, Type[Frontier]]) -> Frontier:
    """Rebuild ``frontier`` in the ``target`` representation.

    Vertex frontiers convert among sparse/dense/queue freely; converting
    between vertex and edge kinds is rejected because ids mean different
    things.
    """
    out = make_frontier(target, frontier.capacity)
    if out.kind != frontier.kind:
        raise FrontierError(
            f"cannot convert a {frontier.kind.value} frontier to a "
            f"{out.kind.value} frontier: element ids are not comparable"
        )
    from repro.observability.probe import active_probe

    probe = active_probe()
    if not probe.enabled:
        out.add_many(frontier.to_indices())
        return out
    # Traced: representation changes are frontier-layer work the
    # analysis engine attributes (the §III-B re-representation cost).
    with probe.span(
        "frontier:convert",
        source=type(frontier).__name__,
        target=type(out).__name__,
        size=frontier.size(),
    ):
        out.add_many(frontier.to_indices())
    return out


def auto_select(frontier: Frontier, *, threshold: float = DENSE_THRESHOLD) -> Frontier:
    """Re-represent a vertex frontier based on its active fraction.

    Returns the input unchanged when it is already in the preferred
    representation (no copy), otherwise converts: dense above
    ``threshold``, sparse below.  Queue and edge frontiers are returned
    unchanged — their choice is a communication-model decision, not a
    size decision.
    """
    if frontier.kind is not FrontierKind.VERTEX:
        return frontier
    if isinstance(frontier, AsyncQueueFrontier):
        return frontier
    want_dense = frontier.active_fraction() >= threshold
    if want_dense and not isinstance(frontier, DenseFrontier):
        return convert(frontier, DenseFrontier)
    if not want_dense and not isinstance(frontier, SparseFrontier):
        return convert(frontier, SparseFrontier)
    return frontier
