"""Iterative loop structure and convergence — essential component 4.

"Loop structure/convergence condition(s) to organize and schedule the
computation and completion of a graph algorithm."

* :class:`~repro.loop.enactor.Enactor` — the bulk-synchronous while-loop
  of Listing 4: run a step (one or more operator calls) per superstep
  until a convergence condition holds.
* :class:`~repro.loop.async_enactor.AsyncEnactor` — the asynchronous
  counterpart: per-vertex tasks on the scheduler, completion by
  quiescence instead of an empty frontier.
* :mod:`~repro.loop.convergence` — composable conditions (empty
  frontier, iteration budget, value fixed point, explicit halt votes).
"""

from repro.loop.convergence import (
    ConvergenceCondition,
    EmptyFrontier,
    MaxIterations,
    ValuesConverged,
    HaltFlag,
    AnyOf,
    AllOf,
    LoopState,
)
from repro.loop.enactor import Enactor
from repro.loop.async_enactor import AsyncEnactor

__all__ = [
    "ConvergenceCondition",
    "EmptyFrontier",
    "MaxIterations",
    "ValuesConverged",
    "HaltFlag",
    "AnyOf",
    "AllOf",
    "LoopState",
    "Enactor",
    "AsyncEnactor",
]
