"""Composable convergence conditions for iterative loops.

A condition is asked after every superstep whether the loop is done.
Algorithms combine them: SSSP/BFS converge on an empty frontier
(Listing 4's ``while (f.size() != 0)``); PageRank on a value fixed
point OR an iteration cap; Pregel programs on unanimous halt votes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.frontier.base import Frontier


@dataclass
class LoopState:
    """What a convergence condition may inspect after a superstep.

    ``context`` is an algorithm-owned scratch dict (e.g. PageRank puts
    its per-iteration delta there) so conditions stay decoupled from
    algorithm internals.  ``edges_scanned`` is the step's own count of
    the edges it read, for a step whose frontier is not the set of
    sources it scanned (edge ids, a component set); left ``None``, the
    enactor counts the frontier's out-degree sum.
    """

    iteration: int = 0
    frontier: Optional[Frontier] = None
    context: Dict[str, object] = field(default_factory=dict)
    edges_scanned: Optional[int] = None


class ConvergenceCondition(abc.ABC):
    """Predicate over :class:`LoopState`; True means "stop, converged"."""

    @abc.abstractmethod
    def __call__(self, state: LoopState) -> bool: ...

    def reset(self) -> None:
        """Clear internal memory (for conditions that track history)."""

    def __or__(self, other: "ConvergenceCondition") -> "AnyOf":
        return AnyOf([self, other])

    def __and__(self, other: "ConvergenceCondition") -> "AllOf":
        return AllOf([self, other])


class EmptyFrontier(ConvergenceCondition):
    """Converged when the frontier has no active elements — the native
    stopping rule of traversal algorithms."""

    def __call__(self, state: LoopState) -> bool:
        # size() rather than is_empty(): one call fewer per superstep.
        return state.frontier is None or state.frontier.size() == 0

    def __repr__(self) -> str:
        return "EmptyFrontier()"


class MaxIterations(ConvergenceCondition):
    """Converged after a fixed superstep budget (PageRank's classic cap)."""

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        self.limit = limit

    def __call__(self, state: LoopState) -> bool:
        return state.iteration >= self.limit

    def __repr__(self) -> str:
        return f"MaxIterations({self.limit})"


class ValuesConverged(ConvergenceCondition):
    """Converged when a value vector stops moving: fixed-point detection.

    ``get_values`` extracts the current vector from the loop state (or
    captures it from the algorithm's closure); the condition compares
    successive snapshots under the L1 or L-infinity norm.
    """

    def __init__(
        self,
        get_values: Callable[[LoopState], np.ndarray],
        *,
        tolerance: float = 1e-6,
        norm: str = "l1",
    ) -> None:
        if tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance}")
        if norm not in ("l1", "linf"):
            raise ValueError(f"norm must be 'l1' or 'linf', got {norm!r}")
        self.get_values = get_values
        self.tolerance = tolerance
        self.norm = norm
        self._previous: Optional[np.ndarray] = None

    def __call__(self, state: LoopState) -> bool:
        current = np.asarray(self.get_values(state), dtype=np.float64)
        if self._previous is None or self._previous.shape != current.shape:
            self._previous = current.copy()
            return False
        diff = np.abs(current - self._previous)
        delta = float(diff.sum() if self.norm == "l1" else diff.max(initial=0.0))
        self._previous = current.copy()
        state.context["delta"] = delta
        return delta <= self.tolerance

    def reset(self) -> None:
        self._previous = None

    def __repr__(self) -> str:
        return f"ValuesConverged(tolerance={self.tolerance}, norm={self.norm!r})"


class HaltFlag(ConvergenceCondition):
    """Converged when an external flag is raised — the hook vote-to-halt
    engines and interactive cancellation use."""

    def __init__(self) -> None:
        self.halted = False

    def halt(self) -> None:
        """Raise the flag: the loop stops after the current superstep."""
        self.halted = True

    def __call__(self, state: LoopState) -> bool:
        return self.halted

    def reset(self) -> None:
        self.halted = False

    def __repr__(self) -> str:
        return f"HaltFlag(halted={self.halted})"


class AnyOf(ConvergenceCondition):
    """Disjunction: stop when any sub-condition holds."""

    def __init__(self, conditions: Sequence[ConvergenceCondition]) -> None:
        if not conditions:
            raise ValueError("AnyOf requires at least one condition")
        self.conditions = list(conditions)

    def __call__(self, state: LoopState) -> bool:
        # No short-circuit: stateful conditions (ValuesConverged) must
        # observe every superstep to keep their history coherent.
        results = [cond(state) for cond in self.conditions]
        return any(results)

    def reset(self) -> None:
        for cond in self.conditions:
            cond.reset()

    def __repr__(self) -> str:
        return f"AnyOf({self.conditions!r})"


class AllOf(ConvergenceCondition):
    """Conjunction: stop only when every sub-condition holds."""

    def __init__(self, conditions: Sequence[ConvergenceCondition]) -> None:
        if not conditions:
            raise ValueError("AllOf requires at least one condition")
        self.conditions = list(conditions)

    def __call__(self, state: LoopState) -> bool:
        results = [cond(state) for cond in self.conditions]
        return all(results)

    def reset(self) -> None:
        for cond in self.conditions:
            cond.reset()

    def __repr__(self) -> str:
        return f"AllOf({self.conditions!r})"
