"""Tests for all frontier representations and their uniform interface."""

import threading

import numpy as np
import pytest

from repro.errors import FrontierError
from repro.frontier import (
    AsyncQueueFrontier,
    DenseFrontier,
    EdgeFrontier,
    Frontier,
    FrontierKind,
    SparseFrontier,
    auto_select,
    convert,
    make_frontier,
)


class TestSparseFrontier:
    def test_listing2_interface(self):
        """Listing 2's exact surface: size / get_active_vertex / add_vertex."""
        f = SparseFrontier(10)
        f.add_vertex(3)
        f.add_vertex(7)
        assert f.size() == 2
        assert f.get_active_vertex(0) == 3
        assert f.get_active_vertex(1) == 7

    def test_duplicates_allowed(self):
        f = SparseFrontier.from_indices([1, 1, 2], 5)
        assert f.size() == 3

    def test_uniquify_in_place(self):
        f = SparseFrontier.from_indices([3, 1, 3, 2], 5)
        f.uniquify()
        assert f.to_indices().tolist() == [1, 2, 3]

    def test_growth_beyond_initial_room(self):
        f = SparseFrontier(1000)
        for v in range(500):
            f.add(v)
        assert f.size() == 500
        assert f.to_indices().tolist() == list(range(500))

    def test_bulk_add(self):
        f = SparseFrontier(100)
        f.add_many(np.arange(50))
        f.add_many(range(50, 60))
        assert f.size() == 60

    def test_out_of_range_rejected(self):
        f = SparseFrontier(5)
        with pytest.raises(FrontierError):
            f.add(5)
        with pytest.raises(FrontierError):
            f.add_many([0, 9])

    def test_positional_query_out_of_range(self):
        f = SparseFrontier.from_indices([1], 5)
        with pytest.raises(FrontierError):
            f.get_active_vertex(1)

    def test_indices_view_zero_copy(self):
        f = SparseFrontier.from_indices([1, 2], 5)
        view = f.indices_view()
        assert view.base is not None

    def test_clear_and_copy(self):
        f = SparseFrontier.from_indices([1, 2], 5)
        c = f.copy()
        f.clear()
        assert f.is_empty() and c.size() == 2

    def test_contains(self):
        f = SparseFrontier.from_indices([1, 3], 5)
        assert 3 in f and 2 not in f

    def test_adopt_takes_the_array_without_a_copy(self):
        ids = np.array([4, 1], dtype=np.int32)
        f = SparseFrontier(5)
        f.adopt(ids)
        assert np.shares_memory(f.indices_view(), ids)
        f.add(2)  # grows out of the adopted array, keeping its ids
        f.adopt(np.array([0], dtype=np.int32))  # non-empty: appends
        assert f.to_indices().tolist() == [4, 1, 2, 0]
        assert ids.tolist() == [4, 1]


class TestDenseFrontier:
    def test_bitmap_dedups(self):
        f = DenseFrontier.from_indices([1, 1, 2], 5)
        assert f.size() == 2

    def test_flags_view(self):
        f = DenseFrontier.from_indices([0, 4], 5)
        assert f.flags_view().tolist() == [True, False, False, False, True]

    def test_remove(self):
        f = DenseFrontier.from_indices([1, 2], 5)
        f.remove(1)
        f.remove(1)  # no-op
        assert f.to_indices().tolist() == [2]

    def test_union_difference(self):
        a = DenseFrontier.from_indices([0, 1], 5)
        b = DenseFrontier.from_indices([1, 2], 5)
        a.union_(b)
        assert a.to_indices().tolist() == [0, 1, 2]
        a.difference_(DenseFrontier.from_indices([1], 5))
        assert a.to_indices().tolist() == [0, 2]

    def test_capacity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DenseFrontier(3).union_(DenseFrontier(4))

    def test_from_flags_copies(self):
        flags = np.array([True, False])
        f = DenseFrontier.from_flags(flags)
        flags[1] = True
        assert f.size() == 1

    def test_contains_out_of_range_false(self):
        assert 99 not in DenseFrontier(5)

    def test_count_stays_exact(self):
        f = DenseFrontier(10)
        f.add(1)
        f.add(1)
        f.add_many([1, 2, 3])
        f.remove(2)
        assert f.size() == len(f.to_indices()) == 2


class TestAsyncQueueFrontier:
    def test_fifo_order(self):
        f = AsyncQueueFrontier.from_indices([4, 2, 7], 10)
        assert [f.pop(timeout=0) for _ in range(3)] == [4, 2, 7]

    def test_pop_empty_nonblocking(self):
        assert AsyncQueueFrontier(5).pop(timeout=0) is None

    def test_pop_chunk(self):
        f = AsyncQueueFrontier.from_indices(range(10), 10)
        chunk = f.pop_chunk(4)
        assert chunk == [0, 1, 2, 3]
        assert f.size() == 6

    def test_pop_chunk_validates(self):
        with pytest.raises(FrontierError):
            AsyncQueueFrontier(5).pop_chunk(0)

    def test_drain(self):
        f = AsyncQueueFrontier.from_indices([1, 2], 5)
        assert f.drain().tolist() == [1, 2]
        assert f.is_empty()

    def test_snapshot_does_not_consume(self):
        f = AsyncQueueFrontier.from_indices([1, 2], 5)
        assert f.to_indices().tolist() == [1, 2]
        assert f.size() == 2

    def test_blocking_pop_wakes_on_push(self):
        f = AsyncQueueFrontier(5)
        result = []

        def consumer():
            result.append(f.pop(timeout=2.0))

        t = threading.Thread(target=consumer)
        t.start()
        f.add(3)
        t.join()
        assert result == [3]

    def test_concurrent_producers(self):
        f = AsyncQueueFrontier(1000)

        def produce(base):
            for i in range(100):
                f.add(base + i)

        threads = [
            threading.Thread(target=produce, args=(b,)) for b in (0, 100, 200)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert f.size() == 300
        assert sorted(f.drain().tolist()) == list(range(300))


class TestEdgeFrontier:
    def test_kind(self):
        assert EdgeFrontier(5).kind is FrontierKind.EDGE

    def test_all_edges(self, diamond_graph):
        f = EdgeFrontier.all_edges(diamond_graph)
        assert f.size() == diamond_graph.n_edges

    def test_resolve(self, diamond_graph):
        f = EdgeFrontier.from_indices([0, 3], diamond_graph.n_edges)
        srcs, dsts, wts = f.resolve(diamond_graph)
        assert srcs.tolist() == [0, 2]
        assert dsts.tolist() == [1, 3]

    def test_out_of_range_rejected(self):
        f = EdgeFrontier(3)
        with pytest.raises(FrontierError):
            f.add(3)
        with pytest.raises(FrontierError):
            f.add_many([0, 5])


class TestConvert:
    def test_sparse_to_dense_dedups(self):
        f = SparseFrontier.from_indices([1, 1, 3], 5)
        d = convert(f, "dense")
        assert d.size() == 2

    def test_dense_to_queue(self):
        d = DenseFrontier.from_indices([2, 4], 5)
        q = convert(d, AsyncQueueFrontier)
        assert sorted(q.to_indices().tolist()) == [2, 4]

    def test_vertex_to_edge_rejected(self):
        f = SparseFrontier.from_indices([1], 5)
        with pytest.raises(FrontierError, match="not comparable"):
            convert(f, EdgeFrontier)

    def test_unknown_name_rejected(self):
        with pytest.raises(FrontierError, match="unknown"):
            make_frontier("bitmapx", 5)

    def test_bad_class_rejected(self):
        with pytest.raises(FrontierError):
            make_frontier(int, 5)


class TestAutoSelect:
    def test_small_fraction_stays_sparse(self):
        f = SparseFrontier.from_indices([1], 1000)
        assert auto_select(f) is f

    def test_large_fraction_goes_dense(self):
        f = SparseFrontier.from_indices(range(500), 1000)
        assert isinstance(auto_select(f), DenseFrontier)

    def test_small_dense_goes_sparse(self):
        f = DenseFrontier.from_indices([1], 1000)
        assert isinstance(auto_select(f), SparseFrontier)

    def test_queue_untouched(self):
        f = AsyncQueueFrontier.from_indices(range(500), 1000)
        assert auto_select(f) is f

    def test_edge_untouched(self):
        f = EdgeFrontier.from_indices(range(500), 1000)
        assert auto_select(f) is f

    def test_custom_threshold(self):
        f = SparseFrontier.from_indices(range(10), 1000)
        assert isinstance(auto_select(f, threshold=0.005), DenseFrontier)


class TestRepresentationShapes:
    """Sparse frontier work is O(active), dense is O(capacity); the auto
    selector lands on the cheaper side at either end of the range."""

    CAPACITY = 1 << 17

    def _ids(self, fraction):
        rng = np.random.default_rng(17)
        k = max(1, int(self.CAPACITY * fraction))
        return rng.choice(self.CAPACITY, size=k, replace=False).astype(np.int32)

    def test_auto_select_picks_the_winner_side(self):
        tiny = SparseFrontier.from_indices(self._ids(0.0001), self.CAPACITY)
        wide = SparseFrontier.from_indices(self._ids(0.5), self.CAPACITY)
        assert isinstance(auto_select(tiny), SparseFrontier)
        assert isinstance(auto_select(wide), DenseFrontier)

    def test_sparse_build_scales_with_k_not_n(self):
        # At fraction 1e-4 the sparse build touches ~13 ids; the dense
        # build allocates the full bitmap.
        import time

        ids = self._ids(0.0001)
        t0 = time.perf_counter()
        for _ in range(200):
            f = SparseFrontier(self.CAPACITY)
            f.add_many(ids)
        sparse_t = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(200):
            f = DenseFrontier(self.CAPACITY)
            f.add_many(ids)
        dense_t = time.perf_counter() - t0
        assert sparse_t < dense_t
