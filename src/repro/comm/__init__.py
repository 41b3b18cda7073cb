"""Communication models — the second TLAV pillar (§III-B).

Shared memory needs no machinery here: graphs and per-vertex arrays live
in process memory and every operator reads them directly.  Message
passing is the :class:`~repro.comm.pregel.PregelEngine`: a vectorised
vertex program (send over out-edges, a ufunc merge at the receiver, a
vertex join) run as the step function of the ordinary
:class:`~repro.loop.enactor.Enactor`, so messages, supersteps,
checkpoints and retry share one loop.  Asynchronous message passing is
:func:`~repro.algorithms.sssp_async` on the
:class:`~repro.loop.async_enactor.AsyncEnactor`; across OS processes it
is the ``par_proc`` policy's owner-computes fold.
"""

from repro.comm.pregel import PregelEngine, VertexProgram

__all__ = [
    "PregelEngine",
    "VertexProgram",
]
