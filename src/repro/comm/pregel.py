"""Pregel on the one loop: a vectorised vertex program as an Enactor step.

The paper positions Pregel as the canonical bulk-synchronous,
message-passing point of the TLAV space.  GraphX shows that a Pregel
superstep is nothing more than a send over edge triplets, a commutative
merge at the receiver, and a vertex join — so here a
:class:`VertexProgram` is exactly that triple, over whole arrays:

* ``send(values, src, dst, weight)`` — one message value per out-edge of
  this superstep's senders;
* ``merge`` — a NumPy ufunc (``np.minimum``, ``np.maximum`` or
  ``np.add``) folding every message addressed to one vertex into its
  inbox slot;
* ``apply(superstep, values, inbox, has_msg, active, aggregated)`` — the
  vertex join: new values, which vertices send, which stay active.

:class:`PregelEngine` runs the triple as the step function of the
ordinary :class:`~repro.loop.enactor.Enactor`.  The *frontier* is the
active set (vertices that have not halted, plus message recipients),
``values`` and the pending inbox are registered loop state, and the loop
converges when the frontier is empty and no message is in flight — the
Pregel rule.  Cancel polls, retry, checkpoints and ``superstep`` spans
are therefore the loop's, not the engine's.

Vertices may be spread over ranks by a partition assignment
(``owner_of``); the answer does not depend on it, only the traffic
accounting does — a message is *remote* when its source and destination
have different owners.

Message faults (drop / duplicate / delay, from the policy's injector or
else the ambient one) act on each superstep's message arrays in
:func:`deliver_under_faults`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import CommunicationError, RetryExhausted
from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.convergence import ConvergenceCondition, LoopState
from repro.loop.enactor import Enactor
from repro.observability.probe import active_probe
from repro.operators.fused import _gather_segments, dedup_ids, sort_unique
from repro.resilience.chaos import FaultInjector, active_injector
from repro.resilience.policy import ResiliencePolicy
from repro.types import VERTEX_DTYPE
from repro.utils.counters import ResilienceCounters, RunStats
from repro.utils.validation import check_vertices_in_range

#: The merges a program may name, with the inbox value meaning "no message".
_MERGE_IDENTITY = {np.minimum: np.inf, np.maximum: -np.inf, np.add: 0.0}

_NO_VERTICES = np.empty(0, dtype=VERTEX_DTYPE)
_NO_VALUES = np.empty(0, dtype=np.float64)


class VertexProgram(abc.ABC):
    """A Pregel vertex program as a vectorised (send, merge, apply) triple.

    Every array argument is whole-graph (indexed by vertex id) except
    ``src``/``dst``/``weight`` (one entry per message) and
    ``active``/returned vertex sets (sorted, duplicate-free vertex ids).
    """

    #: Folds the messages addressed to one vertex: ``np.minimum``,
    #: ``np.maximum`` or ``np.add``.
    merge: np.ufunc = np.minimum

    def bind(self, graph: Graph) -> None:
        """Called once per run before superstep 0, for programs that read
        graph structure (PageRank's out-degrees)."""

    def send(
        self,
        values: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
    ) -> np.ndarray:
        """Message values for the out-edges ``(src, dst, weight)`` of this
        superstep's senders; by default each sender's value."""
        return values.take(src)

    @abc.abstractmethod
    def apply(
        self,
        superstep: int,
        values: np.ndarray,
        inbox: np.ndarray,
        has_msg: np.ndarray,
        active: np.ndarray,
        aggregated: Optional[float],
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Join the merged inbox into the ``active`` vertices.

        ``inbox[v]`` holds the merge of v's messages (the merge identity
        where ``has_msg[v]`` is false); ``aggregated`` is the previous
        superstep's :meth:`aggregate`.  Returns ``(values, senders,
        stay_active)``: the new values (``values`` itself may be updated
        in place and returned), the vertices that send this superstep,
        and the vertices that do not vote to halt (``None`` for none).
        """

    def aggregate(
        self,
        values: np.ndarray,
        senders: np.ndarray,
        stay_active: np.ndarray,
    ) -> Optional[float]:
        """A global reduce over :meth:`apply`'s outputs, visible to the
        next superstep's ``apply`` — the Pregel aggregator.  ``None`` (the
        default) means the program has none."""
        return None


@dataclass
class PregelStats:
    """Per-run accounting mirrored on the engine after :meth:`PregelEngine.run`."""

    supersteps: int = 0
    total_messages: int = 0
    remote_messages: int = 0
    local_messages: int = 0


class _Quiescent(ConvergenceCondition):
    """Pregel's termination rule: nothing active and nothing in flight."""

    def __call__(self, state: LoopState) -> bool:
        return state.frontier.size() == 0 and not state.context["held"][0].size


def deliver_under_faults(
    injector: FaultInjector,
    resilience: Optional[ResiliencePolicy],
    dst: np.ndarray,
    msgs: np.ndarray,
    held: Tuple[np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Apply message faults to one superstep's messages at its barrier.

    Each message may be dropped or duplicated as it is sent.  With a
    retry policy the dropped subset is re-offered until it survives —
    at-least-once delivery, so programs need a duplicate-tolerant merge
    (min/max) under chaos — and :class:`~repro.errors.RetryExhausted`
    is raised once ``max_attempts`` offers are spent; without one a drop
    is a real loss.  Every pending message (this superstep's survivors
    plus ``held``, the ones delayed earlier) may then slip the barrier
    and stay held.  Returns ``(dst, msgs)`` to deliver now and the new
    ``held`` pair; held messages keep the run alive.
    """
    if resilience is not None:
        counters, retry = resilience.counters, resilience.retry
    else:
        counters, retry = ResilienceCounters(), None
    attempts = retry.max_attempts if retry is not None else 1
    kept_d, kept_v = [held[0]], [held[1]]
    for attempt in range(attempts):
        if attempt:
            counters.increment("messages_redelivered", int(dst.size))
        d, v, dst, msgs, n_dup = injector.split_messages(dst, msgs)
        kept_d.append(d)
        kept_v.append(v)
        if n_dup:
            counters.increment("messages_duplicated", n_dup)
        if not dst.size:
            break
        counters.increment("messages_dropped", int(dst.size))
    if dst.size and retry is not None:
        counters.increment("retries_exhausted")
        raise RetryExhausted(
            f"{int(dst.size)} messages still dropped after "
            f"{retry.max_attempts} delivery attempts",
            attempts=retry.max_attempts,
        )
    pending_d, pending_v = np.concatenate(kept_d), np.concatenate(kept_v)
    delayed = injector.delay_mask(int(pending_d.size))
    if delayed.any():
        counters.increment("messages_delayed", int(np.count_nonzero(delayed)))
        now = ~delayed
        return pending_d[now], pending_v[now], (pending_d[delayed], pending_v[delayed])
    return pending_d, pending_v, (_NO_VERTICES, _NO_VALUES)


def _out_edges(
    graph: Graph, senders: np.ndarray, workspace
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, weight)`` of every out-edge of ``senders``, CSR order."""
    csr = graph.csr()
    if senders.size == graph.n_vertices:  # everyone sends: the whole CSR
        src = graph.derived(
            "csr.edge_sources",
            lambda: np.arange(senders.size, dtype=np.intp).repeat(
                graph.out_degrees()
            ),
        )
        return src, csr.column_indices, csr.values
    seg, counts = _gather_segments(csr.row_offsets, senders, workspace)
    if seg is None:
        return _NO_VERTICES, _NO_VERTICES, _NO_VALUES
    return senders.repeat(counts), csr.column_indices.take(seg), csr.values.take(seg)


def _reset(arr: np.ndarray, ids: np.ndarray, value) -> None:
    """``arr[ids] = value``, by one fill once ``ids`` is a large share."""
    if 8 * ids.size > arr.size:
        arr.fill(value)
    else:
        arr[ids] = value


class PregelEngine:
    """Runs vertex programs as the step function of an :class:`Enactor`.

    Parameters
    ----------
    graph:
        The graph (messages travel along out-edges).
    owner_of:
        Optional vertex->rank assignment (default: one rank); plug a
        :mod:`repro.partition` assignment here to count the traffic a
        distributed run would send between ranks.
    max_supersteps:
        Safety cap (the enactor's ``max_iterations``); running past it
        raises :class:`~repro.errors.ConvergenceError`.
    resilience:
        Optional :class:`~repro.resilience.ResiliencePolicy`: superstep
        retry and checkpoints come from the enactor, message faults from
        :func:`deliver_under_faults`.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        owner_of: Optional[np.ndarray] = None,
        max_supersteps: int = 10_000,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> None:
        self.graph = graph
        n = graph.n_vertices
        if owner_of is None:
            owner_of = np.zeros(n, dtype=np.int64)
        owner_of = np.asarray(owner_of, dtype=np.int64).ravel()
        if owner_of.shape[0] != n:
            raise CommunicationError(
                f"owner_of must have one entry per vertex ({n}), got "
                f"{owner_of.shape[0]}"
            )
        if n and int(owner_of.min()) < 0:
            raise CommunicationError("owner ranks must be non-negative")
        self.owner_of = owner_of
        self.n_ranks = int(owner_of.max()) + 1 if n else 1
        self.max_supersteps = max_supersteps
        self.resilience = resilience
        self.stats = PregelStats()
        #: The Enactor's :class:`RunStats` of the last run.
        self.run_stats: Optional[RunStats] = None

    def run(
        self,
        program: VertexProgram,
        initial_values: np.ndarray,
        *,
        initially_active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run ``program`` to Pregel termination; return the value vector.

        ``initially_active`` restricts superstep-0 activity (default: all
        vertices are active, the Pregel convention).
        """
        graph, n = self.graph, self.graph.n_vertices
        values = np.array(initial_values, dtype=np.float64)
        if values.shape != (n,):
            raise CommunicationError(
                f"initial_values must have shape ({n},), got {values.shape}"
            )
        identity = _MERGE_IDENTITY.get(program.merge)
        if identity is None:
            raise CommunicationError(
                f"merge must be np.minimum, np.maximum or np.add, got "
                f"{program.merge!r}"
            )
        if initially_active is None:
            active = np.arange(n, dtype=VERTEX_DTYPE)
        else:
            active = np.asarray(initially_active, dtype=VERTEX_DTYPE).ravel()
            check_vertices_in_range(active, n)
            active = sort_unique(active)
        program.bind(graph)
        inbox = np.full(n, identity)
        has_msg = np.zeros(n, dtype=bool)
        owner_of = self.owner_of if self.n_ranks > 1 else None
        resilience = self.resilience
        stats = self.stats = PregelStats()
        probe = active_probe()
        enactor = Enactor(
            graph, convergence=_Quiescent(), max_iterations=self.max_supersteps
        )

        def step(frontier: SparseFrontier, state: LoopState) -> SparseFrontier:
            ctx = state.context
            new_values, senders, stay = program.apply(
                state.iteration,
                values,
                inbox,
                has_msg,
                frontier.indices_view(),
                ctx["aggregated"],
            )
            if new_values is not values:
                values[:] = new_values
            senders = _NO_VERTICES if senders is None else senders
            stay = _NO_VERTICES if stay is None else stay
            ctx["aggregated"] = program.aggregate(values, senders, stay)
            # The inbox was consumed: clear the slots the last barrier filled.
            _reset(inbox, ctx["delivered"], identity)
            _reset(has_msg, ctx["delivered"], False)
            with probe.span("pregel:send", senders=int(senders.size)) as span:
                src, dst, weight = _out_edges(graph, senders, enactor.workspace)
                msgs = np.asarray(
                    program.send(values, src, dst, weight), dtype=np.float64
                )
                stats.total_messages += dst.size
                if owner_of is not None:
                    remote = int(np.count_nonzero(owner_of[src] != owner_of[dst]))
                    stats.remote_messages += remote
                    span.set("remote", remote)
                stats.local_messages = stats.total_messages - stats.remote_messages
                injector = (
                    resilience.active_chaos()
                    if resilience is not None
                    else active_injector()
                )
                if injector is not None:
                    dst, msgs, ctx["held"] = deliver_under_faults(
                        injector, resilience, dst, msgs, ctx["held"]
                    )
                dst = dst.astype(np.intp, copy=False)  # index once, not per use
                if program.merge is np.add:
                    sums = np.bincount(dst, weights=msgs, minlength=n)
                    np.add(inbox, sums, out=inbox)
                else:
                    program.merge.at(inbox, dst, msgs)
                has_msg[dst] = True
                ctx["delivered"] = dst
                if probe.enabled:
                    span.set("n_messages", int(dst.size))
                    probe.counter("comm.messages_sent", int(dst.size))
            out = SparseFrontier(n)
            if stay.size == n:  # nobody halted: no union to take
                out.adopt(stay.copy())
            else:
                out.adopt(
                    dedup_ids(np.concatenate((stay, dst)), n, enactor.workspace)
                )
            return out

        frontier = SparseFrontier(n)
        frontier.adopt(active)
        run_stats = self.run_stats = enactor.run(
            frontier,
            step,
            context={
                "aggregated": None,
                "delivered": _NO_VERTICES,
                "held": (_NO_VERTICES, _NO_VALUES),
            },
            resilience=resilience,
            state_arrays={"values": values, "inbox": inbox, "has_msg": has_msg},
        )
        stats.supersteps = run_stats.num_iterations
        if probe.enabled:
            probe.counter("pregel.supersteps", stats.supersteps)
            probe.counter("pregel.total_messages", stats.total_messages)
            probe.counter("pregel.remote_messages", stats.remote_messages)
            probe.counter("pregel.local_messages", stats.local_messages)
        return values
