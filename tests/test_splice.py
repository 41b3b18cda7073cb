"""Splice tests: :func:`segment_search` against a per-slice
``np.searchsorted``, and :class:`Splice` against a list-built layout on
segments with empty slices, drops and arrivals at segment boundaries."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.splice import Splice, segment_search


@st.composite
def segmented(draw):
    """Offsets over ``k`` segments (some empty) and sorted-per-segment
    int32 values."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=8))
    if draw(st.booleans()):
        sizes = [0] * len(sizes)  # no entries at all
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    values = np.concatenate(
        [
            np.sort(draw(st.lists(st.integers(0, 9), min_size=s, max_size=s)))
            for s in sizes
        ]
    ).astype(np.int32)
    return offsets, values


@settings(max_examples=200, deadline=None)
@given(segmented(), st.data())
def test_segment_search_is_a_per_slice_searchsorted(layout, data):
    offsets, values = layout
    k = offsets.shape[0] - 1
    seg = np.asarray(
        data.draw(st.lists(st.integers(0, k - 1), max_size=10)), dtype=np.int64
    )
    x = np.asarray(
        data.draw(
            st.lists(st.integers(-1, 10), min_size=seg.size, max_size=seg.size)
        ),
        dtype=np.int64,
    )
    got = segment_search(values, offsets[seg], offsets[seg + 1], x)
    want = [
        offsets[s] + np.searchsorted(values[offsets[s] : offsets[s + 1]], v)
        for s, v in zip(seg.tolist(), x.tolist())
    ]
    assert got.tolist() == want


@settings(max_examples=200, deadline=None)
@given(segmented(), st.data())
def test_splice_matches_a_list_build(layout, data):
    offsets, values = layout
    k, m = offsets.shape[0] - 1, int(offsets[-1])
    drop = sorted(data.draw(st.sets(st.integers(0, m - 1)))) if m else []
    seg = sorted(data.draw(st.lists(st.integers(0, k - 1), max_size=6)))
    at = sorted(
        data.draw(st.integers(int(offsets[s]), int(offsets[s + 1])))
        for s in seg
    )
    new = np.arange(100, 100 + len(seg), dtype=np.int32)
    splice = Splice(
        offsets,
        np.asarray(drop, dtype=np.int64),
        np.asarray(at, dtype=np.int64),
        np.asarray(seg, dtype=np.int64),
    )
    # Reference: walk the old positions, emitting each position's
    # arrivals (in the given order) before the entry itself.
    out, where = [], {}
    for p in range(m + 1):
        out += [int(v) for a, v in zip(at, new) if a == p]
        if p < m and p not in drop:
            where[p] = len(out)
            out.append(int(values[p]))
    counts = np.diff(offsets)
    for s in seg:
        counts[s] += 1
    for p in drop:
        counts[np.searchsorted(offsets, p, side="right") - 1] -= 1
    assert splice.apply(values, new).tolist() == out
    assert splice.offsets.tolist() == [0] + np.cumsum(counts).tolist()
    kept = np.asarray(sorted(where), dtype=np.int64)
    assert splice.moved(kept).tolist() == [where[p] for p in kept.tolist()]
