"""Dynamic-graph tests: overlay/epoch mechanics, property-based
build→mutate→compact round-trips, incremental == full metamorphic
checks, the stream driver, and the service mutate/cache interaction.

The hypothesis section is the adversarial counterpart of the fixed
``repro verify --dynamic`` oracle: arbitrary small graphs (self-loops,
parallel edges, isolated vertices) with arbitrary mutation batches,
shrunk to minimal counterexamples on failure.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from strategies import graphs

from repro.algorithms.bfs import bfs
from repro.algorithms.cc import connected_components
from repro.algorithms.sssp import sssp
from repro.dynamic import (
    DynamicGraph,
    EdgeStream,
    StreamDriver,
    incremental_bfs,
    incremental_cc,
    incremental_sssp,
)
from repro.errors import GraphFormatError
import repro.graph.transpose as transpose_module
from repro.graph import from_edge_list
from repro.graph.adjacency import AdjacencyList
from repro.graph.coo import COOMatrix
from repro.graph.csr import CSRMatrix
from repro.graph.generators import rmat
from repro.graph.transpose import transpose_csr
from repro.graph.validate import validate_graph, validate_overlay
from repro.service import GraphCatalog, QueryService, ServiceConfig
from repro.service.queries import execute_query
from repro.types import INF

SUPPRESS = [HealthCheck.too_slow]


def edge_triples(graph):
    """Sorted (src, dst, weight) triples — an order-free edge multiset."""
    coo = graph.coo()
    return sorted(
        zip(coo.rows.tolist(), coo.cols.tolist(), coo.vals.tolist())
    )


@st.composite
def mutated_dynamic_graphs(draw):
    """A (DynamicGraph, MutationBatch) pair: an arbitrary base graph
    plus one arbitrary-but-valid mutation batch already applied.

    Removals are drawn from the live edge set (distinct pairs — the
    batch API rejects double-removal by design); insertions are
    arbitrary pairs, so re-inserts of removed edges and weight updates
    of surviving ones are generated too.
    """
    base = draw(graphs(n_vertices=12, max_edges=40))
    dyn = DynamicGraph(base)
    coo = base.coo()
    live = sorted({(int(s), int(d)) for s, d in zip(coo.rows, coo.cols)})
    removes = []
    if live:
        n_rm = draw(st.integers(0, len(live)))
        picks = draw(st.permutations(range(len(live))))
        removes = [live[i] for i in picks[:n_rm]]
    n_ins = draw(st.integers(0, 10))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, base.n_vertices - 1),
                st.integers(0, base.n_vertices - 1),
            ),
            min_size=n_ins,
            max_size=n_ins,
            unique=True,
        )
    )
    inserts = [
        (s, d, float(draw(st.integers(1, 9)))) for s, d in pairs
    ]
    batch = dyn.apply(insert=inserts, remove=removes)
    return dyn, batch


@st.composite
def multi_batch_dynamic_graphs(draw):
    """A DynamicGraph with several sequential mutation batches applied.

    Exercises the cross-epoch fold: arcs inserted in one batch and
    removed in a later one, chained weight updates, and re-inserts of
    deleted edges all show up here, so ``mutations_since(0)`` must net
    opposing events for the repairs to stay exact.
    """
    base = draw(graphs(n_vertices=10, max_edges=25))
    dyn = DynamicGraph(base, compact_threshold=None)
    for _ in range(draw(st.integers(2, 4))):
        live = sorted({(s, d) for s, d, _ in dyn.iter_edges()})
        removes = []
        if live:
            n_rm = draw(st.integers(0, min(5, len(live))))
            picks = draw(st.permutations(range(len(live))))
            removes = [live[i] for i in picks[:n_rm]]
        pairs = draw(
            st.lists(
                st.tuples(
                    st.integers(0, base.n_vertices - 1),
                    st.integers(0, base.n_vertices - 1),
                ),
                max_size=5,
                unique=True,
            )
        )
        inserts = [
            (s, d, float(draw(st.integers(1, 9)))) for s, d in pairs
        ]
        dyn.apply(insert=inserts, remove=removes)
    return dyn


# -- DynamicGraph mechanics ------------------------------------------------------------


class TestDynamicGraphMechanics:
    def base(self):
        return from_edge_list(
            [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 5.0)],
            n_vertices=5,
            directed=True,
        )

    def test_epoch_bumps_per_batch(self):
        dyn = DynamicGraph(self.base())
        assert dyn.epoch == 0
        dyn.insert_edge(3, 4, 1.5)
        dyn.remove_edge(0, 3)
        assert dyn.epoch == 2
        assert dyn.log_length() == 2

    def test_mutations_since_folds_batches(self):
        dyn = DynamicGraph(self.base())
        dyn.insert_edge(3, 4, 1.5)
        mark = dyn.epoch
        dyn.remove_edge(0, 3)
        dyn.insert_edge(4, 0, 2.0)
        folded = dyn.mutations_since(mark)
        assert folded.n_inserted == 1
        assert folded.n_removed == 1

    def test_remove_missing_edge_rejected_atomically(self):
        dyn = DynamicGraph(self.base())
        with pytest.raises(GraphFormatError):
            dyn.apply(insert=[(3, 4, 1.0)], remove=[(4, 0)])
        # Nothing from the failed batch leaked in.
        assert dyn.epoch == 0
        assert dyn.n_edges == 4

    def test_double_removal_in_one_batch_rejected(self):
        dyn = DynamicGraph(self.base())
        with pytest.raises(GraphFormatError):
            dyn.apply(remove=[(0, 3), (0, 3)])

    def test_double_removal_leaves_batch_unapplied(self):
        # The duplicate is detected mid-list; the earlier (0, 1) delete
        # must not have been staged — batches are all-or-nothing.
        dyn = DynamicGraph(self.base())
        with pytest.raises(GraphFormatError):
            dyn.remove_edges([(0, 1), (0, 3), (0, 3)])
        assert dyn.has_edge(0, 1)
        assert dyn.has_edge(0, 3)
        assert dyn.epoch == 0
        assert dyn.log_length() == 0
        assert dyn.n_edges == 4

    def test_nonfinite_weight_leaves_batch_unapplied(self):
        dyn = DynamicGraph(self.base())
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(GraphFormatError):
                dyn.insert_edges([(3, 4, 1.0), (0, 4, bad)])
            assert not dyn.has_edge(3, 4)
        # Mixed batches roll back too: the staged delete must not
        # survive an insert that fails validation.
        with pytest.raises(GraphFormatError):
            dyn.apply(insert=[(0, 4, float("nan"))], remove=[(0, 3)])
        assert dyn.has_edge(0, 3)
        assert dyn.epoch == 0
        assert dyn.n_edges == 4

    def test_fold_cancels_insert_then_delete(self):
        # An arc inserted at one epoch and deleted at a later one must
        # vanish from the fold: repairs would otherwise relax/merge an
        # edge that is not live in the merged graph.
        dyn = DynamicGraph(self.base())
        dyn.insert_edge(3, 4, 1.5)
        dyn.remove_edge(3, 4)
        folded = dyn.mutations_since(0)
        assert folded.size == 0

    def test_fold_keeps_reinsert_after_remove(self):
        dyn = DynamicGraph(self.base())
        dyn.remove_edge(0, 3)
        dyn.insert_edge(0, 3, 7.0)
        folded = dyn.mutations_since(0)
        assert folded.n_removed == 1
        assert float(folded.removed_w[0]) == 5.0  # the pre-fold weight
        assert folded.n_inserted == 1
        assert float(folded.inserted_w[0]) == 7.0

    def test_fold_chained_weight_updates_net_to_endpoints(self):
        # 5.0 -> 9.0 -> 2.0 across two epochs nets to one removal of
        # the original weight plus one insertion of the final one.
        dyn = DynamicGraph(self.base())
        dyn.update_weight(0, 3, 9.0)
        dyn.update_weight(0, 3, 2.0)
        folded = dyn.mutations_since(0)
        assert folded.n_removed == 1
        assert float(folded.removed_w[0]) == 5.0
        assert folded.n_inserted == 1
        assert float(folded.inserted_w[0]) == 2.0
        # Folding from the middle epoch sees only the second update.
        mid = dyn.mutations_since(1)
        assert float(mid.removed_w[0]) == 9.0
        assert float(mid.inserted_w[0]) == 2.0

    def test_weight_update_logged_as_remove_plus_insert(self):
        dyn = DynamicGraph(self.base())
        batch = dyn.update_weight(0, 3, 9.0)
        assert batch.n_removed == 1
        assert batch.n_inserted == 1
        assert float(batch.removed_w[0]) == 5.0
        assert float(batch.inserted_w[0]) == 9.0

    def test_merged_snapshot_reflects_mutations(self):
        dyn = DynamicGraph(self.base())
        dyn.apply(insert=[(3, 4, 1.5)], remove=[(0, 3)])
        trip = edge_triples(dyn.graph())
        assert (3, 4, 1.5) in trip
        assert all((s, d) != (0, 3) for s, d, _ in trip)

    def test_adjacency_remove_edge_returns_weight(self):
        adj = AdjacencyList(3)
        adj.add_edge(0, 1, 4.0)
        adj.add_edge(1, 2, 2.0)
        assert adj.remove_edge(0, 1) == 4.0
        with pytest.raises(GraphFormatError):
            adj.remove_edge(0, 1)


# -- property-based round-trips --------------------------------------------------------


class TestDynamicProperties:
    @settings(max_examples=30, deadline=None, suppress_health_check=SUPPRESS)
    @given(mutated_dynamic_graphs())
    def test_compact_preserves_edges_and_epoch(self, pair):
        dyn, _ = pair
        epoch = dyn.epoch
        before = edge_triples(dyn.graph())
        compacted = dyn.compact()
        assert edge_triples(compacted) == before
        assert dyn.epoch == epoch  # representation change, not a mutation
        assert dyn.overlay.size == 0
        assert edge_triples(dyn.graph()) == before

    @settings(max_examples=30, deadline=None, suppress_health_check=SUPPRESS)
    @given(mutated_dynamic_graphs())
    def test_overlay_and_merged_graph_invariants_hold(self, pair):
        dyn, _ = pair
        validate_overlay(dyn.overlay)
        validate_graph(dyn.graph())
        validate_graph(dyn.compact())

    @settings(max_examples=25, deadline=None, suppress_health_check=SUPPRESS)
    @given(mutated_dynamic_graphs())
    def test_incremental_repair_equals_full_recompute(self, pair):
        dyn, batch = pair
        base = dyn.base_graph
        merged = dyn.graph()
        cold_bfs = bfs(base, 0, policy="par_vector")
        cold_sssp = sssp(base, 0, policy="par_vector")
        cold_cc = connected_components(base, policy="par_vector")

        rb = incremental_bfs(dyn, cold_bfs, batch=batch)
        fb = bfs(merged, 0, policy="par_vector")
        assert np.array_equal(rb.levels, fb.levels)

        rs = incremental_sssp(dyn, cold_sssp, batch=batch)
        fs = sssp(merged, 0, policy="par_vector")
        assert np.array_equal(rs.distances, fs.distances)

        rc = incremental_cc(dyn, cold_cc, batch=batch)
        fc = connected_components(merged, policy="par_vector")
        assert np.array_equal(rc.labels, fc.labels)
        assert rc.n_components == fc.n_components

    @settings(max_examples=25, deadline=None, suppress_health_check=SUPPRESS)
    @given(multi_batch_dynamic_graphs())
    def test_incremental_over_folded_epochs_equals_full(self, dyn):
        # Same metamorphic check as above, but the batch comes from
        # folding the whole mutation log — the path the service and
        # stream driver use.
        base = dyn.base_graph
        merged = dyn.graph()
        rb = incremental_bfs(dyn, bfs(base, 0), since_epoch=0)
        assert np.array_equal(rb.levels, bfs(merged, 0).levels)
        rs = incremental_sssp(dyn, sssp(base, 0), since_epoch=0)
        assert np.array_equal(rs.distances, sssp(merged, 0).distances)
        rc = incremental_cc(dyn, connected_components(base), since_epoch=0)
        fc = connected_components(merged)
        assert np.array_equal(rc.labels, fc.labels)
        assert rc.n_components == fc.n_components

    @settings(max_examples=25, deadline=None, suppress_health_check=SUPPRESS)
    @given(mutated_dynamic_graphs())
    def test_repair_after_compact_uses_the_log(self, pair):
        # compact() must not strand incremental consumers: the log
        # survives, so a repair against mutations_since still works.
        dyn, batch = pair
        cold = bfs(dyn.base_graph, 0, policy="par_vector")
        dyn.compact()
        rb = incremental_bfs(dyn, cold, batch=batch)
        fb = bfs(dyn.graph(), 0, policy="par_vector")
        assert np.array_equal(rb.levels, fb.levels)


# -- the array overlay against a dict-based reference model ----------------------------


class ModelRejects(Exception):
    """The reference model refuses the batch (so must ``apply``)."""


def model_apply(live, directed, inserts, removes):
    """Reference semantics of one mutation batch, one arc at a time.

    ``live`` maps ``(src, dst)`` to the weights of its live arcs — a
    multigraph base's parallel arcs in edge-id order.  Returns the new
    state and the removed / inserted ``(src, dst, weight)`` triples.
    """
    if not directed:
        inserts = inserts + [(d, s, w) for s, d, w in inserts if s != d]
        removes = removes + [(d, s) for s, d in removes if s != d]
    if len(set(removes)) != len(removes):
        raise ModelRejects("duplicate delete")
    if any(not live.get(arc) for arc in removes):
        raise ModelRejects("delete of a dead arc")
    if any(not np.isfinite(w) for _, _, w in inserts):
        raise ModelRejects("non-finite weight")
    state = {arc: list(ws) for arc, ws in live.items()}
    removed, inserted = [], {}
    for s, d in removes:
        removed.append((s, d, state[(s, d)].pop(0)))  # first live arc
    for s, d, w in inserts:
        removed += [(s, d, old) for old in state.get((s, d), [])]
        state[(s, d)] = [w]
        inserted[(s, d)] = w  # the last write wins
    return state, removed, [(s, d, w) for (s, d), w in inserted.items()]


def live_triples(state):
    return sorted((s, d, w) for (s, d), ws in state.items() for w in ws)


def batch_triples(src, dst, w):
    return sorted(zip(src.tolist(), dst.tolist(), w.tolist()))


@st.composite
def overlay_scenarios(draw):
    """A base graph (directed multigraph or undirected) plus a few
    batches mixing new inserts, base and staged weight updates,
    duplicate inserts, deletes of staged and parallel arcs, and the
    occasional invalid batch."""
    directed = draw(st.booleans())
    base = draw(graphs(n_vertices=8, max_edges=30, directed=directed))
    weight = st.sampled_from([0.5, 1.0, 2.5, 4.0, 7.5])
    vertex = st.integers(0, base.n_vertices - 1)
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
        inserts = [(s, d, draw(weight)) for s, d in pairs]
        if inserts and draw(st.booleans()):
            s, d, _ = draw(st.sampled_from(inserts))
            inserts.append((s, d, draw(weight)))  # same arc again
        if draw(st.integers(0, 9)) == 0:
            inserts.append((0, 0, float("nan")))
        steps.append(
            (
                inserts,
                draw(st.integers(0, 6)),  # how many live arcs to delete
                draw(st.permutations(range(64))),
                draw(st.integers(0, 9)) == 0,  # add a bogus delete
            )
        )
    return base, directed, draw(st.sampled_from([None, 0.25])), steps


class TestOverlayAgainstModel:
    @settings(max_examples=80, deadline=None, suppress_health_check=SUPPRESS)
    @given(overlay_scenarios())
    def test_apply_matches_reference_model(self, scenario):
        base, directed, threshold, steps = scenario
        dyn = DynamicGraph(base, compact_threshold=threshold)
        csr = base.csr()
        src = np.repeat(np.arange(base.n_vertices), np.diff(csr.row_offsets))
        live = {}
        for s, d, w in zip(
            src.tolist(), csr.column_indices.tolist(), csr.values.tolist()
        ):
            live.setdefault((s, d), []).append(w)
        for inserts, n_remove, shuffle, bogus in steps:
            arcs = sorted(
                a
                for a, ws in live.items()
                if ws and (directed or a[0] <= a[1])
            )
            picks = [i for i in shuffle if i < len(arcs)][:n_remove]
            removes = [arcs[i] for i in picks]
            if bogus:
                removes.append(removes[0] if removes else (0, 1))
            try:
                state, removed, inserted = model_apply(
                    live, directed, inserts, removes
                )
            except ModelRejects:
                epoch, before = dyn.epoch, edge_triples(dyn.graph())
                with pytest.raises(GraphFormatError):
                    dyn.apply(insert=inserts, remove=removes)
                assert dyn.epoch == epoch
                assert edge_triples(dyn.graph()) == before
                validate_overlay(dyn.overlay)
                continue
            batch = dyn.apply(insert=inserts, remove=removes)
            assert batch_triples(
                batch.removed_src, batch.removed_dst, batch.removed_w
            ) == sorted(removed)
            assert batch_triples(
                batch.inserted_src, batch.inserted_dst, batch.inserted_w
            ) == sorted(inserted)
            validate_overlay(dyn.overlay)
            assert edge_triples(dyn.graph()) == live_triples(state)
            assert dyn.n_edges == len(live_triples(state))
            live = state

    def test_unstage_keeps_the_other_inserts_in_staging_order(self):
        dyn = DynamicGraph(
            from_edge_list([], n_vertices=6, directed=True),
            compact_threshold=None,
        )
        dyn.insert_edges([(0, 5, 1.0), (0, 3, 2.0), (0, 4, 3.0), (0, 1, 4.0)])
        dyn.remove_edge(0, 3)
        assert dyn.get_neighbors(0).tolist() == [5, 4, 1]
        assert dyn.graph().csr().get_neighbors(0).tolist() == [5, 4, 1]

    def test_duplicate_insert_logs_only_the_winning_weight(self):
        # Relaxing the superseded weight 1.0 would repair vertex 2 to
        # distance 2.0; the arc that is live carries 5.0.
        g = from_edge_list([(0, 1, 1.0)], n_vertices=3, directed=True)
        dyn = DynamicGraph(g)
        cold = sssp(g, 0)
        batch = dyn.apply(insert=[(1, 2, 1.0), (1, 2, 5.0)])
        assert batch.inserted_w.tolist() == [5.0]
        assert batch.removed_w.tolist() == [1.0]
        repaired = incremental_sssp(dyn, cold, batch=batch)
        assert repaired.distances.tolist() == [0.0, 1.0, 6.0]


# -- patched snapshots against a from-scratch rebuild ----------------------------------


def rebuilt_views(dyn):
    """The merged CSR and CSC built from scratch: the overlay's merged
    COO arrays, a counting sort into CSR, and a transpose."""
    n = dyn.n_vertices
    rows, cols, vals = dyn.overlay.merged_coo_arrays()
    ro, ci, w = COOMatrix(n, n, rows, cols, vals).to_csr_arrays()
    csr = CSRMatrix(n, n, ro, ci, w)
    return csr, transpose_csr(csr)


def assert_same_layout(got, want):
    for name in got.__slots__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        else:
            assert a == b, name


@st.composite
def patch_streams(draw):
    """A base graph (directed multigraph or undirected, with or without
    a CSC) and several epochs, each a batch plus what to read after it.

    Batches mix deletes of base and staged arcs, weight updates of base
    and staged arcs, fresh inserts and duplicate inserts; reads are
    nothing, the CSR alone, or the CSR and the CSC; an epoch may end in
    a compaction."""
    directed = draw(st.booleans())
    base = draw(graphs(n_vertices=9, max_edges=30, directed=directed))
    if draw(st.booleans()):
        base.csc()
    vertex = st.integers(0, base.n_vertices - 1)
    weight = st.sampled_from([0.5, 1.0, 2.5, 4.0])
    epochs = []
    for _ in range(draw(st.integers(1, 6))):
        epochs.append(
            (
                draw(st.integers(0, 4)),  # how many live arcs to delete
                draw(st.integers(0, 3)),  # how many to re-weight
                draw(st.permutations(range(40))),
                draw(st.lists(st.tuples(vertex, vertex, weight), max_size=6)),
                draw(st.booleans()),  # insert one arc twice
                draw(st.sampled_from(["none", "csr", "csc"])),
                draw(st.integers(0, 5)) == 0,  # compact after
            )
        )
    return base, directed, epochs


class TestSnapshotPatch:
    @settings(max_examples=120, deadline=None, suppress_health_check=SUPPRESS)
    @given(patch_streams())
    def test_patched_views_equal_a_rebuild(self, stream):
        base, directed, epochs = stream
        dyn = DynamicGraph(base, compact_threshold=None)
        for n_rm, n_rw, shuffle, inserts, twice, read, compact in epochs:
            live = sorted(
                {(s, d) for s, d, _ in dyn.iter_edges() if directed or s <= d}
            )
            picks = [i for i in shuffle if i < len(live)]
            removes = [live[i] for i in picks[:n_rm]]
            reweigh = [(*live[i], 9.0) for i in picks[n_rm : n_rm + n_rw]]
            inserts = inserts + reweigh
            if twice and inserts:
                inserts.append((*inserts[0][:2], 7.5))
            dyn.apply(insert=inserts, remove=removes)
            if read != "none":
                csr, csc = rebuilt_views(dyn)
                merged = dyn.graph()
                assert_same_layout(merged.csr(), csr)
                if read == "csc" or merged.has_view("csc"):
                    assert_same_layout(merged.csc(), csc)
            if compact:
                dyn.compact()
        csr, csc = rebuilt_views(dyn)
        assert_same_layout(dyn.graph().csr(), csr)
        assert_same_layout(dyn.graph().csc(), csc)

    def test_old_snapshot_is_left_untouched(self):
        g = from_edge_list(
            [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)], directed=True
        )
        dyn = DynamicGraph(g)
        dyn.insert_edges([(2, 0, 4.0)])
        first = dyn.graph()
        first.csc()
        arrays = [a.copy() for a in (first.csr().values, first.csc().values)]
        dyn.apply(insert=[(2, 0, 5.0), (1, 0, 6.0)], remove=[(0, 1)])
        second = dyn.graph()
        assert second is not first
        assert np.array_equal(first.csr().values, arrays[0])
        assert np.array_equal(first.csc().values, arrays[1])
        assert second.csr().get_neighbors(2).tolist() == [0]
        assert second.csr().get_neighbor_weights(2).tolist() == [5.0]

    def test_epochs_after_the_first_neither_sort_nor_transpose(
        self, monkeypatch
    ):
        g = rmat(10, 8, weighted=True, seed=3)
        dyn = DynamicGraph(g)
        rng = np.random.default_rng(0)
        calls = {"transpose": 0, "to_csr_arrays": 0}
        real_transpose = transpose_module.transpose_csr
        real_to_csr = COOMatrix.to_csr_arrays

        def transpose(csr):
            calls["transpose"] += 1
            return real_transpose(csr)

        def to_csr_arrays(coo):
            calls["to_csr_arrays"] += 1
            return real_to_csr(coo)

        monkeypatch.setattr(transpose_module, "transpose_csr", transpose)
        monkeypatch.setattr(COOMatrix, "to_csr_arrays", to_csr_arrays)
        half = g.n_edges // 200
        for epoch in range(6):
            if epoch == 1:
                calls = dict.fromkeys(calls, 0)
            live = np.array([(s, d) for s, d, _ in dyn.iter_edges()])
            removes = live[rng.choice(len(live), half, replace=False)]
            inserts = rng.integers(0, g.n_vertices, (half, 2))
            dyn.apply(
                insert=[(int(s), int(d), 2.0) for s, d in inserts],
                remove=[(int(s), int(d)) for s, d in removes],
            )
            dyn.graph()
            dyn.csc()
        assert calls == {"transpose": 0, "to_csr_arrays": 0}


def test_memory_footprint_reports_the_overlay():
    g = from_edge_list([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], directed=True)
    dyn = DynamicGraph(g, compact_threshold=None)
    before = dyn.memory_footprint()
    assert {
        "snapshot.csr",
        "overlay.key_index",
        "overlay.tombstones",
        "overlay.staged",
        "overlay.deltas",
    } <= set(before)
    dyn.remove_edge(0, 1)
    after = dyn.memory_footprint()
    assert after["overlay.key_index"] > 0 and after["overlay.tombstones"] > 0
    assert sum(after.values()) > sum(before.values())
    dyn.graph()
    assert "base.csr" in dyn.memory_footprint()


# -- targeted repair cases -------------------------------------------------------------


class TestIncrementalRepairEdgeCases:
    def test_bridge_deletion_disconnects_suffix(self, policy):
        path = from_edge_list(
            [(i, i + 1, 1.0) for i in range(7)], directed=True
        )
        dyn = DynamicGraph(path)
        batch = dyn.apply(remove=[(3, 4)])
        cold = bfs(path, 0, policy=policy)
        repaired = incremental_bfs(dyn, cold, batch=batch, policy=policy)
        full = bfs(dyn.graph(), 0, policy=policy)
        assert np.array_equal(repaired.levels, full.levels)
        assert repaired.levels[4] == -1

    def test_split_then_rescue_via_insert(self, policy):
        path = from_edge_list(
            [(i, i + 1, 1.0) for i in range(7)], directed=True
        )
        dyn = DynamicGraph(path)
        batch = dyn.apply(remove=[(3, 4)], insert=[(1, 4, 1.0)])
        cold_cc = connected_components(path, policy=policy)
        repaired = incremental_cc(dyn, cold_cc, batch=batch, policy=policy)
        full = connected_components(dyn.graph(), policy=policy)
        assert np.array_equal(repaired.labels, full.labels)
        assert repaired.n_components == full.n_components == 1

    def test_sssp_insert_then_delete_across_epochs_stays_unreachable(
        self, policy
    ):
        # The transient edge (0, 1) existed only between epochs 1 and
        # 2; folding the log must not present it as live, or vertex 1
        # gets distance 1.0 despite being unreachable in the merged
        # graph.
        g = from_edge_list([(1, 2, 1.0)], n_vertices=3, directed=True)
        dyn = DynamicGraph(g)
        cold = sssp(g, 0, policy=policy)
        dyn.insert_edge(0, 1, 1.0)
        dyn.remove_edge(0, 1)
        repaired = incremental_sssp(dyn, cold, since_epoch=0, policy=policy)
        full = sssp(dyn.graph(), 0, policy=policy)
        assert np.array_equal(repaired.distances, full.distances)
        assert repaired.distances[1] == INF

    def test_cc_transient_bridge_does_not_merge_components(self, policy):
        g = from_edge_list(
            [(0, 1, 1.0), (2, 3, 1.0)], n_vertices=4, directed=False
        )
        dyn = DynamicGraph(g)
        cold = connected_components(g, policy=policy)
        dyn.insert_edge(1, 2, 1.0)  # bridges the two components...
        dyn.remove_edge(1, 2)  # ...but only until the next epoch
        repaired = incremental_cc(dyn, cold, since_epoch=0, policy=policy)
        full = connected_components(dyn.graph(), policy=policy)
        assert np.array_equal(repaired.labels, full.labels)
        assert repaired.n_components == full.n_components == 2

    def test_sssp_shortcut_insert_then_widen(self, policy):
        g = from_edge_list(
            [(0, 1, 5.0), (1, 2, 5.0), (0, 2, 20.0)],
            n_vertices=3,
            directed=True,
        )
        dyn = DynamicGraph(g)
        cold = sssp(g, 0, policy=policy)
        batch = dyn.insert_edge(0, 2, 1.0)  # weight update 20 -> 1
        repaired = incremental_sssp(dyn, cold, batch=batch, policy=policy)
        assert repaired.distances[2] == 1.0
        batch2 = dyn.update_weight(0, 2, 50.0)  # widen: must re-raise
        repaired2 = incremental_sssp(dyn, repaired, batch=batch2, policy=policy)
        assert repaired2.distances[2] == 10.0


class TestCCCertificate:
    """``incremental_cc`` == a full recompute where the certificate's
    exclusion of the batch's inserted arcs decides the answer."""

    @staticmethod
    def check(edges, n, directed, *, remove=(), insert=()):
        g = from_edge_list(edges, n_vertices=n, directed=directed)
        dyn = DynamicGraph(g)
        batch = dyn.apply(remove=list(remove), insert=list(insert))
        repaired = incremental_cc(dyn, connected_components(g), batch=batch)
        full = connected_components(dyn.graph())
        assert np.array_equal(repaired.labels, full.labels)
        assert repaired.n_components == full.n_components
        return repaired

    @pytest.mark.parametrize("directed", [True, False])
    def test_crossed_reconnect_keeps_components_apart(self, directed):
        # Two split-offs each re-attach to the *other* old component.
        # Read through the inserted arcs, the certificate would reach
        # both from the two roots and keep their stale labels, and the
        # insert union would then glue all four vertices together.
        out = self.check(
            [(0, 5, 1.0), (1, 6, 1.0)],
            7,
            directed,
            remove=[(0, 5), (1, 6)],
            insert=[(0, 6, 1.0), (1, 5, 1.0)],
        )
        assert out.labels.tolist() == [0, 1, 2, 3, 4, 1, 0]

    @pytest.mark.parametrize("directed", [True, False])
    def test_bridge_deletion_splits(self, directed):
        triangles = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]
        triangles += [(3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0)]
        out = self.check(
            triangles + [(2, 3, 1.0)], 6, directed, remove=[(2, 3)]
        )
        assert out.n_components == 2

    def test_parallel_bridge_arc_keeps_components_joined(self):
        # A directed multigraph base: deleting one of two parallel
        # bridge arcs leaves the other, so nothing splits.
        edges = [(0, 1, 1.0), (1, 2, 1.0), (1, 2, 4.0), (2, 3, 1.0)]
        out = self.check(edges, 4, True, remove=[(1, 2)])
        assert out.n_components == 1

    @pytest.mark.parametrize("directed", [True, False])
    def test_self_loop_churn_changes_nothing(self, directed):
        edges = [(0, 0, 1.0), (0, 1, 1.0), (2, 2, 1.0)]
        out = self.check(
            edges, 3, directed, remove=[(0, 0), (2, 2)], insert=[(1, 1, 2.0)]
        )
        assert out.labels.tolist() == [0, 0, 2]


# -- stream driver ---------------------------------------------------------------------


class TestStreamDriver:
    def test_windowed_run_matches_full_recompute(self):
        stream = EdgeStream.rmat(
            scale=7, edge_factor=4, delete_fraction=0.2, seed=3
        )
        driver = StreamDriver(
            stream,
            algorithms=("bfs", "cc"),
            window_events=100,
            verify=True,
        )
        report = driver.run()
        summary = report.summary()
        assert summary["n_windows"] == -(-stream.n_events // 100)
        assert summary["n_events"] == stream.n_events
        for name in ("bfs", "cc"):
            entry = summary["algorithms"][name]
            # verify=True compares every window against a recompute.
            assert entry["mismatched_windows"] == 0
            assert entry["incremental_seconds"] > 0


# -- service: mutate invalidates the cache ---------------------------------------------


class TestServiceMutateCache:
    @pytest.fixture
    def service(self, tmp_path):
        cat = GraphCatalog()
        cat.add({"name": "g", "generator": "grid", "scale": 8, "seed": 0})
        return QueryService(
            cat,
            data_dir=str(tmp_path / "svc"),
            config=ServiceConfig(cache_ttl_s=60.0, record_ledger=False),
        )

    def test_mutate_then_query_misses_stale_epoch(self, service):
        req = {
            "op": "query",
            "graph": "g",
            "algorithm": "cc",
            "params": {},
        }
        first = service.handle(req)
        assert first["code"] == 200
        hit = service.handle(req)
        assert hit["server"]["cached"] is True

        # Cutting vertex 0's two grid arcs isolates it: the mutation
        # really changes the components, not just how they are found.
        mutated = service.handle(
            {"op": "mutate", "graph": "g", "remove": [[0, 1], [0, 16]]}
        )
        assert mutated["code"] == 200
        assert mutated["result"]["epoch"] == 1

        # A fresh-path hit at the old epoch would serve yesterday's
        # components; the epoch tag must force a recompute.
        after = service.handle(req)
        assert after["code"] == 200
        assert not after["server"].get("cached")
        assert first["result"]["n_components"] == 1
        assert after["result"]["n_components"] == 2
        fresh = execute_query(service.catalog.get("g"), "cc", {})
        assert after["result"] == fresh

    def test_mutate_unknown_graph_404(self, service):
        resp = service.handle(
            {"op": "mutate", "graph": "nope", "insert": [[0, 1, 1.0]]}
        )
        assert resp["code"] == 404

    def test_mutate_nan_weight_rejected_without_side_effects(self, service):
        # JSON happily decodes NaN, so the weight check must happen
        # before any staging: the valid first insert must not leak in.
        resp = service.handle(
            {
                "op": "mutate",
                "graph": "g",
                "insert": [[0, 18, 1.0], [0, 17, float("nan")]],
            }
        )
        assert resp["code"] == 400
        assert service.catalog.epoch_of("g") == 0

    def test_mutate_racing_query_tags_result_conservatively(self, service):
        # Simulate the worst interleaving: a mutate lands between the
        # query's epoch read and its catalog snapshot.  The query then
        # computes on the pre-mutation graph, so its cache entry must
        # carry the *old* epoch — the follow-up query at the new epoch
        # has to be a miss, never a fresh hit on the old result.
        req = {"op": "query", "graph": "g", "algorithm": "cc", "params": {}}
        orig_get = service.catalog.get
        fired = []

        def racing_get(name):
            graph = orig_get(name)
            if not fired:
                fired.append(True)
                mutated = service.handle(
                    {"op": "mutate", "graph": name, "insert": [[0, 17, 1.0]]}
                )
                assert mutated["code"] == 200
            return graph

        service.catalog.get = racing_get
        try:
            first = service.handle(req)
        finally:
            service.catalog.get = orig_get
        assert first["code"] == 200
        after = service.handle(req)
        assert after["code"] == 200
        assert not after["server"].get("cached")


class TestCatalogConcurrency:
    def test_concurrent_mutates_and_snapshots_stay_consistent(self):
        import threading

        cat = GraphCatalog()
        cat.add({"name": "g", "generator": "grid", "scale": 6, "seed": 0})
        n_vertices = cat.get("g").n_vertices
        n_threads, per_thread = 4, 10
        errors = []

        def mutator(k):
            try:
                for i in range(per_thread):
                    target = (k * per_thread + i + 1) % n_vertices
                    cat.mutate("g", insert=[(0, target, 2.0)])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    validate_graph(cat.get("g"))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [
            threading.Thread(target=mutator, args=(k,))
            for k in range(n_threads)
        ]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert errors == []
        assert cat.epoch_of("g") == n_threads * per_thread
        merged = cat.get("g")
        validate_graph(merged)
        coo = merged.coo()
        arcs = set(zip(coo.rows.tolist(), coo.cols.tolist()))
        for k in range(n_threads):
            for i in range(per_thread):
                assert (0, (k * per_thread + i + 1) % n_vertices) in arcs
