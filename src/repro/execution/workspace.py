"""Workspace: pooled scratch buffers reused across supersteps.

Every superstep of a BSP run needs the same short-lived arrays — the
gathered edge tuples, candidate values, improvement masks, the dense
active bitmap of a pull advance — and allocating them fresh each
iteration dominates the fixed cost of small-frontier supersteps.  A
:class:`Workspace` keeps one named, geometrically-grown buffer per use
site and hands out length-``size`` views, so steady-state supersteps
allocate nothing.

An :class:`~repro.loop.enactor.Enactor` owns one workspace for its
run (``enactor.workspace``); algorithms thread it into
:func:`~repro.operators.advance.neighbors_expand` and the fused kernels
via the ``workspace=`` keyword.  Call sites that receive ``None`` fall
back to plain allocation, so the workspace is an optimization, never a
requirement.

Not thread-safe by design: one workspace serves one superstep-driving
thread (the vectorized policy's whole point is that the superstep body
is a single thread issuing bulk kernels).  Threaded-policy chunk bodies
must not share it; ``neighbors_expand`` only uses it on the vectorized
and pull paths.
"""

from __future__ import annotations

from typing import Dict, Union

import numpy as np

from repro.types import EDGE_DTYPE

_MIN_ROOM = 16


class Workspace:
    """Named pool of reusable scratch arrays.

    Buffers are keyed by call-site name; a request larger than the
    pooled buffer (or with a different dtype) reallocates geometrically,
    anything else is a zero-allocation slice.  ``hits``/``misses`` count
    reuse vs (re)allocation — the workspace-efficiency numbers the
    fused-kernel bench reports.
    """

    __slots__ = ("_buffers", "_arange", "hits", "misses")

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        self._arange = np.empty(0, dtype=EDGE_DTYPE)
        self.hits = 0
        self.misses = 0

    def array(
        self, name: str, size: int, dtype: Union[np.dtype, type]
    ) -> np.ndarray:
        """A length-``size`` scratch view named ``name`` (contents
        undefined — callers must overwrite before reading)."""
        # ``buf.dtype != dtype`` converts a type argument itself, so the
        # hit path never builds an ``np.dtype``.
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.shape[0] < size:
            room = max(size, _MIN_ROOM)
            if buf is not None and buf.dtype == dtype:
                room = max(room, buf.shape[0] * 2)
            buf = np.empty(room, dtype=dtype)
            self._buffers[name] = buf
            self.misses += 1
        else:
            self.hits += 1
        return buf[:size]

    def cleared(
        self, name: str, size: int, dtype: Union[np.dtype, type]
    ) -> np.ndarray:
        """Like :meth:`array` but zero-filled (False for bool buffers)."""
        out = self.array(name, size, dtype)
        out.fill(0)
        return out

    def take(self, name: str, source: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """``source[indices]`` gathered into the named pooled buffer."""
        out = self.array(name, indices.shape[0], source.dtype)
        source.take(indices, out=out)
        return out

    def arange(self, size: int) -> np.ndarray:
        """View of a cached ``0..size-1`` ramp (edge-id dtype).

        The ramp is the backbone of the multi-range gather in the fused
        kernels — caching it replaces a per-superstep ``np.arange``.
        """
        if self._arange.shape[0] < size:
            self._arange = np.arange(
                max(size, _MIN_ROOM, self._arange.shape[0] * 2), dtype=EDGE_DTYPE
            )
            self.misses += 1
        else:
            self.hits += 1
        return self._arange[:size]

    @property
    def nbytes(self) -> int:
        """Bytes currently pooled across all buffers."""
        total = sum(b.nbytes for b in self._buffers.values())
        return total + self._arange.nbytes

    def clear(self) -> None:
        """Drop every pooled buffer (frees memory; counters keep)."""
        self._buffers.clear()
        self._arange = np.empty(0, dtype=EDGE_DTYPE)

    def __repr__(self) -> str:
        return (
            f"Workspace(buffers={len(self._buffers)}, nbytes={self.nbytes}, "
            f"hits={self.hits}, misses={self.misses})"
        )
