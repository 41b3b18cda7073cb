"""Edit a compressed (CSR / CSC) layout in place of rebuilding it.

A compressed layout is an offsets array over segments (rows of a CSR,
columns of a CSC) plus parallel per-entry arrays.  When a handful of
entries leave and a handful arrive, the new layout is the old one with
those positions spliced: offsets move by one ``cumsum`` of per-segment
count deltas, and every surviving entry is copied once, in order, by a
boolean mask — a few linear memory passes instead of the sort a rebuild
needs (:func:`repro.graph.transpose.transpose_csr`,
:meth:`repro.graph.coo.COOMatrix.to_csr_arrays`).
"""

from __future__ import annotations

import numpy as np


def segment_search(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """``np.searchsorted`` (left side) of each ``x[i]`` in its own sorted
    slice ``values[lo[i]:hi[i]]``, as an absolute position.

    A branch-free vectorized bisection: one step per bit of the longest
    slice, so a batch of queries costs O(q · log(max slice)) without
    building a global key array.
    """
    base = np.asarray(lo, dtype=np.int64)
    if values.size == 0:
        return base
    span = np.asarray(hi, dtype=np.int64) - base
    for _ in range(int(np.max(span, initial=1) - 1).bit_length()):
        half = span >> 1
        mid = base + half
        base = np.where(values.take(mid, mode="clip") < x, mid, base)
        span -= half
    return base + ((span == 1) & (values.take(base, mode="clip") < x))


class Splice:
    """One drop-and-insert edit of a compressed layout.

    Parameters
    ----------
    offsets:
        The old segment offsets (length ``k + 1``).
    drop:
        Distinct old positions that leave.
    at, seg:
        Per arriving entry, the old position it lands in front of and
        the segment it joins, with ``at`` non-decreasing: arrivals land
        in the order given.

    The plan is computed once and applied to every parallel array with
    :meth:`apply`; :meth:`moved` maps surviving old positions to new.
    """

    __slots__ = ("offsets", "_drop", "_at", "_put", "_keep", "_stay")

    def __init__(
        self,
        offsets: np.ndarray,
        drop: np.ndarray,
        at: np.ndarray,
        seg: np.ndarray,
    ) -> None:
        k, size = offsets.shape[0] - 1, int(offsets[-1])
        self._drop = np.sort(drop)
        lost = np.searchsorted(offsets, self._drop, side="right") - 1
        delta = np.bincount(seg, minlength=k) - np.bincount(lost, minlength=k)
        self.offsets = offsets.copy()
        self.offsets[1:] += np.cumsum(delta)
        self._at = at
        # Each arrival lands after the survivors before ``at`` and the
        # arrivals ahead of it.
        self._put = (
            at - np.searchsorted(self._drop, at) + np.arange(at.shape[0])
        )
        self._keep = np.ones(size, dtype=bool)
        self._keep[self._drop] = False
        #: Old entries' slots in the new layout: every slot not arriving.
        self._stay = np.ones(int(self.offsets[-1]), dtype=bool)
        self._stay[self._put] = False

    def apply(self, old: np.ndarray, new: np.ndarray) -> np.ndarray:
        """``old`` with the dropped entries gone and ``new`` (one value
        per arrival) spliced in; ``old`` is not modified."""
        out = np.empty(self._stay.shape[0], dtype=old.dtype)
        out[self._put] = new
        out[self._stay] = old[self._keep]
        return out

    def moved(self, positions: np.ndarray) -> np.ndarray:
        """New positions of surviving old ``positions``."""
        return (
            positions
            - np.searchsorted(self._drop, positions)
            + np.searchsorted(self._at, positions, side="right")
        )
