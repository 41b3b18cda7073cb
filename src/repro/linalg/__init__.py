"""Linear-algebra backend: graph algorithms as masked matrix products.

The paper's taxonomy splits frameworks into native-graph (frontiers +
advance/filter — the rest of this repo) and linear-algebra based
(GraphBLAST: masked SpMV/SpMSpV over semirings).  This package is the
second kind, built on the same :class:`~repro.graph.graph.Graph`
facade:

* :mod:`repro.linalg.semiring` — the (⊕, ⊗) algebras: ``(min, +)``,
  ``(or, and)``, ``(+, ×)``.
* :mod:`repro.linalg.kernels` — masked SpMV (pull) and SpMSpV (push),
  pure NumPy; the unmasked ``(+, ×)`` product is the sum-aggregate
  kernel every executor shares (:mod:`repro.operators.sum_aggregate`).
* :mod:`repro.linalg.algorithms` — bfs / sssp / cc / spgemm as semiring
  iterations, returning the native result types.  The four ``(+, ×)``
  algorithms (pagerank, ppr, hits, spmv) have no separate driver: their
  native loops already run on that kernel, under either backend name.

Select it per call with ``backend="linalg"`` on the native entry
points, or via ``--backend`` on the CLI; the conformance matrix crosses
it as its own axis.
"""

from repro.linalg.algorithms import (
    MIN_SELECT,
    linalg_bfs,
    linalg_cc,
    linalg_spgemm,
    linalg_sssp,
)
from repro.linalg.kernels import scipy_adjacency, spmspv, spmv
from repro.linalg.semiring import (
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    SEMIRINGS,
    Semiring,
    resolve_semiring,
    semiring_names,
)
from repro.operators.sum_aggregate import force_numpy, scipy_available

__all__ = [
    "MIN_PLUS",
    "MIN_SELECT",
    "OR_AND",
    "PLUS_TIMES",
    "SEMIRINGS",
    "Semiring",
    "force_numpy",
    "linalg_bfs",
    "linalg_cc",
    "linalg_spgemm",
    "linalg_sssp",
    "resolve_semiring",
    "scipy_adjacency",
    "scipy_available",
    "semiring_names",
    "spmspv",
    "spmv",
]
