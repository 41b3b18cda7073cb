"""Sparse vertex frontier: a vector of active ids (Listing 2).

The default shared-memory representation.  Storage is an over-allocated
NumPy array grown geometrically, so scalar ``add`` is amortized O(1)
and bulk ``add_many`` is one vectorized copy — the Python translation of
``std::vector<int> active_vertices``.

Duplicates are permitted (a vertex discovered by several parents appears
several times), exactly as in the paper's Listing 3 output frontier; the
``uniquify`` operator removes them when an algorithm needs set semantics.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from repro.errors import FrontierError
from repro.frontier.base import Frontier, FrontierKind
from repro.types import VERTEX_DTYPE
from repro.utils.validation import check_vertex_in_range, check_vertices_in_range

_INITIAL_ROOM = 16

#: Shared zero-length storage of a new frontier: nothing is allocated
#: until the first append (or an :meth:`SparseFrontier.adopt`), and a
#: zero-length array can never be written through.
_NO_STORAGE = np.empty(0, dtype=VERTEX_DTYPE)


class SparseFrontier(Frontier):
    """Active vertices stored as a growable id vector."""

    kind = FrontierKind.VERTEX

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._data = _NO_STORAGE
        self._size = 0

    # -- construction ----------------------------------------------------------------

    @classmethod
    def from_indices(
        cls, indices: Union[np.ndarray, Iterable[int]], capacity: int
    ) -> "SparseFrontier":
        """Build a frontier holding exactly ``indices``."""
        f = cls(capacity)
        f.add_many(indices)
        return f

    # -- queries ----------------------------------------------------------------------

    def size(self) -> int:
        return self._size

    def to_indices(self) -> np.ndarray:
        return self._data[: self._size].copy()

    def indices_view(self) -> np.ndarray:
        """Zero-copy view of the active ids — operators use this on the
        hot path; callers must not grow the frontier while holding it."""
        return self._data[: self._size]

    def get_active_vertex(self, i: int) -> int:
        """The i-th active vertex (Listing 2's positional query)."""
        if not (0 <= i < self._size):
            raise FrontierError(
                f"active index {i} out of range [0, {self._size})"
            )
        return int(self._data[i])

    def __contains__(self, element: int) -> bool:
        return bool(np.any(self._data[: self._size] == element))

    # -- mutation --------------------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        if needed <= self._data.shape[0]:
            return
        new_room = max(needed, self._data.shape[0] * 2, _INITIAL_ROOM)
        grown = np.empty(new_room, dtype=VERTEX_DTYPE)
        grown[: self._size] = self._data[: self._size]
        self._data = grown

    def add(self, element: int) -> None:
        element = check_vertex_in_range(element, self.capacity)
        self._reserve(1)
        self._data[self._size] = element
        self._size += 1

    def add_vertex(self, v: int) -> None:
        """Alias matching Listing 2's method name."""
        self.add(v)

    def add_many(self, elements: Union[np.ndarray, Iterable[int]]) -> None:
        arr = np.asarray(
            elements if isinstance(elements, np.ndarray) else list(elements),
            dtype=VERTEX_DTYPE,
        ).ravel()
        if arr.size == 0:
            return
        check_vertices_in_range(arr, self.capacity)
        self._reserve(arr.shape[0])
        self._data[self._size : self._size + arr.shape[0]] = arr
        self._size += arr.shape[0]

    def add_many_trusted(self, arr: np.ndarray) -> None:
        """Bulk append of ids already known to be valid.

        The fused kernels call this with ids read straight out of the
        graph's own ``column_indices`` / ``row_indices`` arrays — in
        range by construction — so the range check and dtype round-trip
        of :meth:`add_many` would be pure overhead on the hot path.
        Never pass user-supplied ids here.
        """
        k = arr.shape[0]
        if k == 0:
            return
        self._reserve(k)
        self._data[self._size : self._size + k] = arr
        self._size += k

    def adopt(self, ids: np.ndarray) -> None:
        """Take ownership of ``ids`` as the storage of an empty frontier.

        The zero-copy form of :meth:`add_many_trusted` for a kernel's
        fresh output: ``ids`` must be a 1-D ``VERTEX_DTYPE`` array of
        valid ids that nothing else holds, since the frontier keeps it
        as its storage and mutates it in place.  A non-empty frontier
        appends instead.
        """
        if self._size:
            self.add_many_trusted(ids)
        else:
            self._data, self._size = ids, ids.shape[0]

    def clear(self) -> None:
        self._size = 0

    def copy(self) -> "SparseFrontier":
        f = SparseFrontier(self.capacity)
        f.add_many(self._data[: self._size])
        return f

    # -- set maintenance ---------------------------------------------------------------

    def uniquify(self) -> "SparseFrontier":
        """Remove duplicate ids in place (sorts as a side effect).

        Returns ``self`` for chaining.
        """
        if self._size:
            unique = np.unique(self._data[: self._size])
            self._data[: unique.shape[0]] = unique
            self._size = unique.shape[0]
        return self
