"""Tests for METIS .graph I/O."""

import numpy as np
import pytest

from repro.errors import GraphIOError
from repro.graph.io import read_metis_graph, write_metis_graph


class TestMetisGraphIO:
    def test_roundtrip_unweighted(self, tmp_path, small_grid):
        path = tmp_path / "g.graph"
        write_metis_graph(small_grid, path)
        g = read_metis_graph(path)
        assert g.n_vertices == small_grid.n_vertices
        assert g.n_edges == small_grid.n_edges
        assert not g.properties.weighted

    def test_roundtrip_weighted(self, tmp_path, weighted_grid):
        path = tmp_path / "g.graph"
        write_metis_graph(weighted_grid, path)
        g = read_metis_graph(path)
        assert g.properties.weighted
        from repro.baselines import dijkstra as dj

        assert np.allclose(dj(g, 0), dj(weighted_grid, 0), atol=1e-4)

    def test_parse_reference_example(self, tmp_path):
        """The 7-vertex example graph from the METIS manual."""
        path = tmp_path / "manual.graph"
        path.write_text(
            "% the METIS manual's unweighted example\n"
            "7 11\n"
            "5 3 2\n"
            "1 3 4\n"
            "5 4 2 1\n"
            "2 3 6 7\n"
            "1 3 6\n"
            "5 4 7\n"
            "6 4\n"
        )
        g = read_metis_graph(path)
        assert g.n_vertices == 7
        assert g.n_edges == 22  # 11 undirected edges, both arcs
        assert g.has_edge(0, 4) and g.has_edge(4, 0)

    def test_isolated_trailing_vertex(self, tmp_path):
        path = tmp_path / "iso.graph"
        path.write_text("3 1\n2\n1\n")
        g = read_metis_graph(path)
        assert g.n_vertices == 3
        assert g.out_degrees().tolist() == [1, 1, 0]

    def test_directed_write_rejected(self, tmp_path, small_rmat):
        with pytest.raises(GraphIOError, match="undirected"):
            write_metis_graph(small_rmat, tmp_path / "x.graph")

    def test_vertex_weights_rejected(self, tmp_path):
        path = tmp_path / "vw.graph"
        path.write_text("2 1 011\n1 2 1\n1 1 1\n")
        with pytest.raises(GraphIOError, match="not supported"):
            read_metis_graph(path)

    def test_arc_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("2 5\n2\n1\n")
        with pytest.raises(GraphIOError, match="declares"):
            read_metis_graph(path)

    def test_out_of_range_neighbor_rejected(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("2 1\n3\n1\n")
        with pytest.raises(GraphIOError, match="out of range"):
            read_metis_graph(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.graph"
        path.write_text("")
        with pytest.raises(GraphIOError, match="empty"):
            read_metis_graph(path)

    def test_partitioner_consumes_metis_file(self, tmp_path, small_grid):
        """End-to-end: write METIS format, read back, partition."""
        from repro.partition import edge_cut, metis_like_partition

        path = tmp_path / "g.graph"
        write_metis_graph(small_grid, path)
        g = read_metis_graph(path)
        p = metis_like_partition(g, 4, seed=0)
        assert edge_cut(g, p) < g.n_edges / 2
