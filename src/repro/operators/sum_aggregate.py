"""The (+, ×) sum-aggregate — one kernel definition for every executor.

A whole-graph sum-aggregate *is* a (+, ×) sparse matrix–vector product
(§IV-A's graph/matrix duality, GraphBLAST's execution model).  Given the
``offsets/targets/weights`` arrays of a CSR or CSC, the kernel is

* **gather**  ``y[v]    = Σ_{e ∈ seg(v)} w[e] · x[t[e]]``, and
* **scatter** ``y[t[e]] += w[e] · x[v]`` for every ``e ∈ seg(v)``

— ``A·x`` and ``Aᵀ·x`` off the *same* arrays, so the in-process path
never builds a second orientation.  PageRank / PPR / HITS / SpMV under
``par_vector``, the unmasked ``PLUS_TIMES`` products of
:mod:`repro.linalg.kernels` and the ``par_proc`` worker's range kernel
are all instantiations that differ only in *where the arrays live* (the
graph's CSR, or a CSC slice in shared memory) and *who folds the result*.

One implementation, selected by what the process can observe: scipy's C
``csr_matvec`` / ``csc_matvec`` over the arrays zero-copy when
``scipy.sparse`` imports, else ``np.bincount`` over the same arrays.
Both add each output's terms sequentially in edge order, so they agree
**bit for bit** with each other — and gather over a CSC agrees with
scatter over the CSR it was stably transposed from (``np.add.reduceat``
sums pairwise and does not).  scipy is imported lazily, inside the
kernel: a process that never aggregates never loads it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

import numpy as np

from repro.observability.probe import active_probe

# -- scipy gating ----------------------------------------------------------------------

_FORCE_NUMPY = 0  # nesting depth of force_numpy() contexts


def _scipy_sparse():
    """The ``scipy.sparse`` module, or ``None`` when gated/absent."""
    if _FORCE_NUMPY or os.environ.get("REPRO_NO_SCIPY"):
        return None
    try:
        import scipy.sparse as sp
    except ImportError:
        return None
    return sp


def scipy_available() -> bool:
    """Whether the scipy fast path is importable *and* not gated off."""
    return _scipy_sparse() is not None


@contextmanager
def force_numpy():
    """Pin the pure-NumPy reference path for the duration (tests)."""
    global _FORCE_NUMPY
    _FORCE_NUMPY += 1
    try:
        yield
    finally:
        _FORCE_NUMPY -= 1


# -- the kernel ------------------------------------------------------------------------


def segment_ids(offsets: np.ndarray) -> np.ndarray:
    """Segment index of every edge slot: ``repeat(arange(n), diff(offsets))``."""
    return np.repeat(
        np.arange(offsets.shape[0] - 1, dtype=np.int64), np.diff(offsets)
    )


class SumAggregate:
    """The kernel bound to one set of ``offsets/targets/weights`` arrays.

    ``offsets`` must start at 0 (rebase a slice: ``offsets[lo:hi+1] -
    offsets[lo]``); ``width`` is the index space of ``targets``.  Weights
    are held as float64 — cast once here, not per product — and the
    scipy matrix / NumPy segment index are built on first use, so one
    cached instance serves every iteration of every caller (and both
    sides of :func:`force_numpy`).
    """

    __slots__ = ("offsets", "targets", "weights", "width", "_matrix", "_segments")

    def __init__(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        width: int,
    ) -> None:
        self.offsets = offsets
        self.targets = targets
        self.weights = np.asarray(weights, dtype=np.float64)
        self.width = int(width)
        self._matrix = None
        self._segments: Optional[np.ndarray] = None

    @property
    def n_segments(self) -> int:
        return self.offsets.shape[0] - 1

    def matrix(self):
        """The arrays as a ``scipy.sparse.csr_matrix`` (zero-copy over
        ``weights``/``targets``; parallel edges stay separate entries,
        which every product sums), or ``None`` when scipy is gated off.
        Treat as read-only: it aliases the graph's arrays."""
        sp = _scipy_sparse()
        if sp is None:
            return None
        if self._matrix is None:
            self._matrix = sp.csr_matrix(
                (self.weights, self.targets, self.offsets),
                shape=(self.n_segments, self.width),
            )
        return self._matrix

    def segments(self) -> np.ndarray:
        """Segment id of every edge slot (the NumPy path's second index)."""
        if self._segments is None:
            self._segments = segment_ids(self.offsets)
        return self._segments

    def gather(self, x: np.ndarray) -> np.ndarray:
        """``y[v] = Σ_{e ∈ seg(v)} w[e]·x[t[e]]`` — one value per segment."""
        return self._product(x, scatter=False)

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """``y[t[e]] += w[e]·x[v]`` — the transpose product, one value
        per target id, off the same arrays."""
        return self._product(x, scatter=True)

    def _product(self, x: np.ndarray, scatter: bool) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n_out = self.width if scatter else self.n_segments
        # Same span name from every caller: the analysis engine maps
        # ``linalg:*`` to the operator layer, so a PageRank iteration
        # is attributed like every other operator.
        with active_probe().span(
            "linalg:spmv",
            semiring="plus_times",
            transpose=scatter,
            masked=False,
            rows=n_out,
        ):
            mat = self.matrix()
            if mat is not None:
                return (mat.T if scatter else mat) @ x
            seg = self.segments()
            into, of = (
                (self.targets, seg) if scatter else (seg, self.targets)
            )
            # (bincount of an empty index array is int64 even with weights)
            return np.bincount(
                into, weights=self.weights * x[of], minlength=n_out
            ).astype(np.float64, copy=False)


# -- where the arrays live: in-process -------------------------------------------------


def graph_aggregate(graph) -> SumAggregate:
    """The kernel over ``graph``'s CSR arrays, cached on the facade.

    ``gather`` is ``A·x`` (each vertex sums over its out-edges),
    ``scatter`` is ``Aᵀ·x`` (each vertex receives over its in-edges) —
    no CSC is built.  Graphs are immutable and mutation yields a new
    ``Graph``, so the cached float64 weights can never go stale.
    """

    def build() -> SumAggregate:
        csr = graph.csr()
        return SumAggregate(
            csr.row_offsets, csr.column_indices, csr.values, graph.n_vertices
        )

    return graph.derived("sum_aggregate.csr", build)
