"""Transpose tests: the radix ``bucket_order`` against numpy's stable
argsort, and CSR <-> CSC against an argsort reference on graphs with
empty rows, self-loops and parallel edges."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import graphs

from repro.graph.csc import CSCMatrix
from repro.graph.csr import CSRMatrix
from repro.graph.transpose import bucket_order, csc_to_csr, transpose_csr
from repro.types import EDGE_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE


@st.composite
def bucketed_keys(draw):
    """Keys in ``[0, n)`` for a bucket count around the 16-bit digit
    boundary, biased toward ties and toward keys sharing a low digit."""
    n = draw(st.sampled_from([0, 1, 2**16, 2**16 + 1, 2**20]))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    if n == 0:
        return np.empty(0, dtype=dtype), n
    hi = n - 1
    special = sorted({0, hi, hi // 2, min(hi, 2**16 - 1), min(hi, 2**16)})
    keys = draw(
        st.lists(
            st.one_of(st.integers(0, hi), st.sampled_from(special)),
            max_size=300,
        )
    )
    return np.asarray(keys, dtype=dtype), n


@settings(max_examples=200, deadline=None)
@given(bucketed_keys())
def test_bucket_order_is_the_stable_argsort(case):
    keys, n = case
    got = bucket_order(keys, n)
    assert np.array_equal(got, np.argsort(keys, kind="stable"))


def test_bucket_order_empty_input():
    for dtype in (np.int32, np.int64):
        for n in (0, 1, 2**20):
            assert bucket_order(np.empty(0, dtype=dtype), n).size == 0


def reference_csc(csr: CSRMatrix):
    """The comparison-sort transpose the radix path replaced."""
    order = np.argsort(csr.column_indices, kind="stable")
    sources = csr.source_of_edges(np.arange(csr.get_num_edges()))
    counts = np.bincount(csr.column_indices, minlength=csr.n_cols)
    offsets = np.zeros(csr.n_cols + 1, dtype=EDGE_DTYPE)
    np.cumsum(counts, out=offsets[1:])
    return offsets, sources[order], csr.values[order]


def reference_csr(csc: CSCMatrix):
    order = np.argsort(csc.row_indices, kind="stable")
    n_edges = csc.get_num_edges()
    dsts = np.searchsorted(csc.col_offsets, np.arange(n_edges), side="right") - 1
    counts = np.bincount(csc.row_indices, minlength=csc.n_rows)
    offsets = np.zeros(csc.n_rows + 1, dtype=EDGE_DTYPE)
    np.cumsum(counts, out=offsets[1:])
    return offsets, dsts[order].astype(csc.row_indices.dtype), csc.values[order]


def assert_identical(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def check_round_trip(csr: CSRMatrix):
    csc = transpose_csr(csr)
    assert_identical(
        (csc.col_offsets, csc.row_indices, csc.values), reference_csc(csr)
    )
    back = csc_to_csr(csc)
    assert_identical(
        (back.row_offsets, back.column_indices, back.values),
        reference_csr(csc),
    )


@settings(max_examples=60, deadline=None)
@given(graphs(n_vertices=12, max_edges=60))
def test_transpose_matches_argsort_reference(graph):
    check_round_trip(graph.csr())


def test_transpose_empty_rows_self_loops_parallel_edges():
    # Row 1 and row 3 are empty; (0, 0) is a self-loop; (2, 4) appears
    # three times with different weights, so stability is observable.
    csr = CSRMatrix(
        5,
        5,
        np.array([0, 3, 3, 7, 7, 8], dtype=EDGE_DTYPE),
        np.array([0, 4, 2, 4, 0, 4, 4, 2], dtype=VERTEX_DTYPE),
        np.array([1, 2, 3, 4, 5, 6, 7, 8], dtype=WEIGHT_DTYPE),
    )
    check_round_trip(csr)
    csc = transpose_csr(csr)
    assert csc.row_indices[csc.col_offsets[4] : csc.col_offsets[5]].tolist() == [
        0,
        2,
        2,
        2,
    ]
    assert csc.values[csc.col_offsets[4] : csc.col_offsets[5]].tolist() == [
        2.0,
        4.0,
        6.0,
        7.0,
    ]
