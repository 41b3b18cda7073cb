"""Reductions over per-vertex values, optionally restricted to a frontier.

Convergence conditions are often reductions — "has any rank changed more
than epsilon?" is a max-reduce; near-far's next threshold is a
min-reduce.  The vectorized overload is a single NumPy reduction; the
threaded overload reduces per chunk then combines (the classic two-level
parallel reduction tree), which tests verify agrees exactly for
integer ops and to float tolerance otherwise.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import ExecutionPolicyError
from repro.frontier.base import Frontier
from repro.execution.policy import (
    ExecutionPolicy,
    ParallelNoSyncPolicy,
    ParallelPolicy,
    SequencedPolicy,
    VectorPolicy,
    resolve_policy,
)
from repro.execution.thread_pool import even_chunks, get_pool
from repro.observability.probe import active_probe

_OPS = {
    "sum": (np.add.reduce, 0.0),
    "min": (np.minimum.reduce, np.inf),
    "max": (np.maximum.reduce, -np.inf),
}


def _selected(values: np.ndarray, frontier: Optional[Frontier]) -> np.ndarray:
    if frontier is None:
        return values
    idx = frontier.to_indices()
    return values[idx]


def reduce_values(
    policy: Union[str, ExecutionPolicy],
    values: np.ndarray,
    *,
    frontier: Optional[Frontier] = None,
    op: str = "sum",
) -> float:
    """Reduce ``values`` (or ``values[frontier]``) with ``op``.

    ``op`` is ``"sum"``, ``"min"``, or ``"max"``.  Empty selections
    return the op's identity (0, +inf, -inf).
    """
    policy = resolve_policy(policy)
    if op not in _OPS:
        raise ValueError(f"op must be one of {sorted(_OPS)}, got {op!r}")
    reducer, identity = _OPS[op]
    selected = _selected(np.asarray(values), frontier)
    if selected.size == 0:
        return float(identity)
    probe = active_probe()
    if not probe.enabled:
        return _reduce_dispatch(policy, reducer, selected)
    with probe.span(
        "operator:reduce", op=op, policy=policy.name, n=int(selected.size)
    ):
        return _reduce_dispatch(policy, reducer, selected)


def _reduce_dispatch(policy, reducer, selected):
    """Overload selection shared by the traced and untraced paths."""
    if isinstance(policy, (SequencedPolicy, VectorPolicy)):
        # Sequential and vectorized share NumPy's reduction; the "seq"
        # distinction matters for operators with user code, not for a
        # fixed arithmetic reduction.
        return float(reducer(selected))
    if isinstance(policy, (ParallelPolicy, ParallelNoSyncPolicy)):
        pool = get_pool(policy.num_workers)
        chunks = even_chunks(selected.shape[0], policy.num_workers or pool.num_workers)
        partials = pool.run_tasks(
            [lambda s=s, e=e: reducer(selected[s:e]) for s, e in chunks]
        )
        return float(reducer(np.asarray(partials)))
    raise ExecutionPolicyError(f"reduce_values has no overload for policy {policy!r}")


def argreduce(
    policy: Union[str, ExecutionPolicy],
    values: np.ndarray,
    *,
    frontier: Optional[Frontier] = None,
    op: str = "min",
) -> Tuple[int, float]:
    """Return ``(index, value)`` of the extreme element.

    With a frontier the returned index is the *vertex id* (not the
    position within the frontier).  Ties resolve to the smallest index,
    for determinism across policies.
    """
    policy = resolve_policy(policy)
    if op not in ("min", "max"):
        raise ValueError(f"op must be 'min' or 'max', got {op!r}")
    values = np.asarray(values)
    if frontier is not None:
        idx = np.sort(frontier.to_indices())
        selected = values[idx]
    else:
        idx = None
        selected = values
    if selected.size == 0:
        raise ValueError("argreduce over an empty selection")
    pos = int(np.argmin(selected) if op == "min" else np.argmax(selected))
    vertex = int(idx[pos]) if idx is not None else pos
    return vertex, float(selected[pos])
