"""The reference algebra: semirings and masked matrix products.

The paper's taxonomy splits frameworks into native-graph (frontiers +
advance/filter — the rest of this repo) and linear-algebra based
(GraphBLAST: masked SpMV/SpMSpV over semirings).  §IV-A's duality says
the two are one computation: an advance + filter superstep *is* a
masked semiring product.  This package states that side of the duality
so the native operators can be checked against it:

* :mod:`repro.linalg.semiring` — the (⊕, ⊗) algebras: ``(min, +)``,
  ``(or, and)``, ``(+, ×)``.
* :mod:`repro.linalg.kernels` — masked SpMV (pull) and SpMSpV (push)
  in plain NumPy; the unmasked ``(+, ×)`` product is the sum-aggregate
  kernel every executor shares (:mod:`repro.operators.sum_aggregate`).

The ``advance_semiring`` oracle (:mod:`repro.verify.oracles`) checks one
native ``neighbors_expand`` superstep against :func:`spmspv` under every
policy, direction and fusion setting.  There are no matrix drivers for
the traversals: ``backend="linalg"`` on bfs / sssp / cc runs native and
records a ``backend:fallback`` event, and on the ``(+, ×)`` algorithms
it names the same kernel.  Only ``spgemm`` runs a second implementation
under that name (scipy's SpGEMM).
"""

from repro.linalg.kernels import spmspv, spmv
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
    "OR_AND",
    "PLUS_TIMES",
    "SEMIRINGS",
    "Semiring",
    "force_numpy",
    "resolve_semiring",
    "scipy_available",
    "semiring_names",
    "spmspv",
    "spmv",
]
