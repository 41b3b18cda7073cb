"""The multi-view graph facade — Listing 1's ``graph_t`` in Python.

The C++ original uses *variadic inheritance* to give one graph object
several underlying sparse formats simultaneously.  The Python analog is
composition: :class:`Graph` owns a dictionary of named format views
(``"csr"``, ``"csc"``, ``"coo"``) plus the shared
:class:`~repro.graph.properties.GraphProperties`, derives missing views on
demand (and caches them), and answers every native-graph query by
delegating to the cheapest view that can serve it.

Keeping both CSR and CSC materialized is exactly the paper's push/pull
enabler: push advance reads the CSR, pull advance reads the CSC, "at the
cost of memory space".
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphViewError
from repro.graph.coo import COOMatrix
from repro.graph.csc import CSCMatrix
from repro.graph.csr import CSRMatrix
from repro.graph.properties import GraphProperties
from repro.types import EDGE_DTYPE, VERTEX_DTYPE

ViewType = Union[CSRMatrix, CSCMatrix, COOMatrix]

_VIEW_CLASSES = {"csr": CSRMatrix, "csc": CSCMatrix, "coo": COOMatrix}


class Graph:
    """A graph with one or more interchangeable underlying representations.

    Construct via the builder functions in :mod:`repro.graph.builder`
    (``from_edge_array``, ``from_scipy_sparse``, ...) rather than directly.

    Parameters
    ----------
    views:
        Mapping of view name (``"csr"`` | ``"csc"`` | ``"coo"``) to format
        object.  At least one view is required.
    properties:
        Shared structural metadata.
    """

    def __init__(
        self,
        views: Dict[str, ViewType],
        properties: Optional[GraphProperties] = None,
    ) -> None:
        if not views:
            raise GraphViewError("a Graph requires at least one format view")
        for name, view in views.items():
            expected = _VIEW_CLASSES.get(name)
            if expected is None:
                raise GraphViewError(
                    f"unknown view name {name!r}; expected one of "
                    f"{sorted(_VIEW_CLASSES)}"
                )
            if not isinstance(view, expected):
                raise GraphViewError(
                    f"view {name!r} must be a {expected.__name__}, got "
                    f"{type(view).__name__}"
                )
        self._views: Dict[str, ViewType] = dict(views)
        #: Derived-artifact cache (e.g. the sum-aggregate's scipy
        #: adjacency): keyed blobs computed from the views, built once.
        self._derived: Dict[str, object] = {}
        self.properties = properties or GraphProperties()
        # All views must agree on the vertex count.
        counts = {v.get_num_vertices() for v in self._views.values()}
        if len(counts) != 1:
            raise GraphViewError(f"views disagree on vertex count: {sorted(counts)}")
        self._n_vertices = counts.pop()

    # -- view management ----------------------------------------------------------

    def has_view(self, name: str) -> bool:
        """Whether the named view is already materialized."""
        return name in self._views

    def view(self, name: str) -> ViewType:
        """Return the named view, deriving and caching it if absent.

        Derivations: CSR↔CSC via linear-time transpose, COO from CSR by
        expanding offsets.  This mirrors the paper's "multiple underlying
        data structures for a single graph at the same time".
        """
        if name in self._views:
            return self._views[name]
        if name not in ("csr", "csc", "coo"):
            raise GraphViewError(
                f"unknown view name {name!r}; expected one of {sorted(_VIEW_CLASSES)}"
            )
        # View derivation is the graph layer's one nontrivial cost (a
        # linear-time transpose / expansion); trace it so the analysis
        # engine can attribute it.  Happens at most once per view, so
        # the enabled check is off every hot path.
        from repro.observability.probe import active_probe

        probe = active_probe()
        if probe.enabled:
            with probe.span("graph:view", view=name, n_edges=self.n_edges):
                built = self._derive_view(name)
        else:
            built = self._derive_view(name)
        self._views[name] = built
        return built

    def _derive_view(self, name: str) -> ViewType:
        if name == "csr":
            return self._derive_csr()
        if name == "csc":
            return self._derive_csc()
        return self._derive_coo()

    def csr(self) -> CSRMatrix:
        """The push-traversal (CSR) view."""
        try:  # the hot path: one dict lookup once the view exists
            return self._views["csr"]  # type: ignore[return-value]
        except KeyError:
            return self.view("csr")  # type: ignore[return-value]

    def csc(self) -> CSCMatrix:
        """The pull-traversal (CSC / transposed) view."""
        try:
            return self._views["csc"]  # type: ignore[return-value]
        except KeyError:
            return self.view("csc")  # type: ignore[return-value]

    def coo(self) -> COOMatrix:
        """The edge-list (COO) view."""
        return self.view("coo")  # type: ignore[return-value]

    def materialized_views(self) -> Tuple[str, ...]:
        """Names of views currently held in memory."""
        return tuple(sorted(self._views))

    def derived(self, key: str, builder):
        """A cached derived artifact, built on first request.

        The facade's lazy-view discipline extended to artifacts that are
        not one of the three sparse formats — e.g. the sum-aggregate's
        scipy adjacency.  ``builder()`` runs at most once per key; the
        build is traced as a ``graph:derived`` span so conversion cost
        lands in the graph layer, same as view derivation.  Graphs are
        immutable once built (mutation produces new snapshots), so the
        cache never invalidates.
        """
        if key not in self._derived:
            from repro.observability.probe import active_probe

            probe = active_probe()
            if probe.enabled:
                with probe.span(
                    "graph:derived", key=key, n_edges=self.n_edges
                ):
                    self._derived[key] = builder()
            else:
                self._derived[key] = builder()
        return self._derived[key]

    def _derive_csr(self) -> CSRMatrix:
        from repro.graph.transpose import csc_to_csr

        if "coo" in self._views:
            coo: COOMatrix = self._views["coo"]  # type: ignore[assignment]
            ro, ci, vals = coo.to_csr_arrays()
            return CSRMatrix(coo.n_rows, coo.n_cols, ro, ci, vals)
        if "csc" in self._views:
            return csc_to_csr(self._views["csc"])  # type: ignore[arg-type]
        raise GraphViewError("cannot derive CSR: no source view available")

    def _derive_csc(self) -> CSCMatrix:
        from repro.graph.transpose import transpose_csr

        return transpose_csr(self.csr())

    def _derive_coo(self) -> COOMatrix:
        csr = self.csr()
        n_edges = csr.get_num_edges()
        rows = csr.source_of_edges(np.arange(n_edges, dtype=EDGE_DTYPE))
        return COOMatrix(
            csr.n_rows, csr.n_cols, rows, csr.column_indices.copy(), csr.values.copy()
        )

    # -- native-graph API (Listing 1, delegated) -------------------------------------

    @property
    def n_vertices(self) -> int:
        return self._n_vertices

    @property
    def n_edges(self) -> int:
        return next(iter(self._views.values())).get_num_edges()

    def get_num_vertices(self) -> int:
        """Number of vertices (Listing 1 query form)."""
        return self.n_vertices

    def get_num_edges(self) -> int:
        """Number of directed edges (Listing 1 query form)."""
        return self.n_edges

    def get_edges(self, v: int) -> range:
        """Out-edge ids of vertex ``v`` (CSR positions)."""
        return self.csr().get_edges(v)

    def get_dest_vertex(self, e: int) -> int:
        """Destination of out-edge ``e``."""
        return self.csr().get_dest_vertex(e)

    def get_edge_weight(self, e: int) -> float:
        """Weight of out-edge ``e`` — Listing 1's query verbatim."""
        return self.csr().get_edge_weight(e)

    def get_num_neighbors(self, v: int) -> int:
        """Out-degree of ``v``."""
        return self.csr().get_num_neighbors(v)

    def get_neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v``."""
        return self.csr().get_neighbors(v)

    def get_in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbors of ``v`` (forces the CSC view)."""
        return self.csc().get_in_neighbors(v)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (cached per graph, read-only)."""

        def build() -> np.ndarray:
            degrees = self.csr().degrees()
            degrees.flags.writeable = False
            return degrees

        return self.derived("out_degrees", build)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex (forces the CSC view)."""
        return self.csc().in_degrees()

    def iter_edges(self) -> Iterator[Tuple[int, int, int, float]]:
        """Yield ``(src, dst, edge_id, weight)`` over all edges (CSR order)."""
        return self.csr().iter_edges()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``(u, v)`` exists."""
        return self.csr().has_edge(
            u, v, assume_sorted=self.properties.sorted_neighbors
        )

    # -- derived graphs -------------------------------------------------------------

    def reverse(self) -> "Graph":
        """The reversed graph (every edge flipped), sharing no mutable state.

        Cheap when the CSC view exists: the reverse's CSR is this graph's
        CSC reinterpreted.
        """
        csc = self.csc()
        rev_csr = CSRMatrix(
            csc.n_cols,
            csc.n_rows,
            csc.col_offsets.copy(),
            csc.row_indices.copy(),
            csc.values.copy(),
        )
        return Graph({"csr": rev_csr}, self.properties)

    def with_sorted_neighbors(self) -> "Graph":
        """A copy whose CSR neighbor lists are sorted by destination id."""
        if self.properties.sorted_neighbors:
            return self
        sorted_csr = self.csr().sort_neighbors()
        return Graph(
            {"csr": sorted_csr}, self.properties.with_(sorted_neighbors=True)
        )

    def induced_subgraph(self, vertices: np.ndarray) -> Tuple["Graph", np.ndarray]:
        """The subgraph induced by ``vertices``, with ids relabeled 0..k-1.

        Returns ``(subgraph, old_ids)`` where ``old_ids[new_id]`` maps back
        to this graph's vertex ids.  Used by partition-local processing.
        """
        vertices = np.unique(np.asarray(vertices, dtype=VERTEX_DTYPE))
        remap = np.full(self.n_vertices, -1, dtype=VERTEX_DTYPE)
        remap[vertices] = np.arange(vertices.shape[0], dtype=VERTEX_DTYPE)
        csr = self.csr()
        srcs, dsts, _, weights = csr.expand_vertices(vertices)
        keep = remap[dsts] >= 0
        coo = COOMatrix(
            vertices.shape[0],
            vertices.shape[0],
            remap[srcs[keep]],
            remap[dsts[keep]],
            weights[keep],
        )
        ro, ci, vals = coo.to_csr_arrays()
        sub = Graph(
            {"csr": CSRMatrix(coo.n_rows, coo.n_cols, ro, ci, vals)}, self.properties
        )
        return sub, vertices

    def memory_footprint(self) -> Dict[str, int]:
        """Bytes held by each materialized view (the push+pull memory cost
        the paper calls out explicitly)."""
        out: Dict[str, int] = {}
        for name, view in self._views.items():
            total = 0
            for slot in view.__slots__:
                val = getattr(view, slot)
                if isinstance(val, np.ndarray):
                    total += val.nbytes
            out[name] = total
        return out

    def __repr__(self) -> str:
        return (
            f"Graph(n_vertices={self.n_vertices}, n_edges={self.n_edges}, "
            f"views={list(self.materialized_views())}, "
            f"{self.properties.describe()})"
        )
