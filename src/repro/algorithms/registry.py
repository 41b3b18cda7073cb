"""The algorithm registry: one :class:`AlgorithmSpec` per entry point.

``repro run``, ``repro profile`` (through
:func:`~repro.observability.profile.profile_algorithm`) and the query
service all dispatch from :data:`REGISTRY`; none of them keeps a list
of its own.  A spec says which *plan fields* its entry consumes — the
knobs that select how it runs (Listing 3's execution policy, the
push/pull direction, the backend, …) — and how its result is reported.

Each plan field has exactly one default: the one in the entry's
signature, read once per spec.  A surface forwards only the fields a
caller actually set, and a field the spec does not consume is the
caller's error (``repro run`` exits 2, the service answers 400).

Adding an algorithm to every surface means its module, one spec here,
and its oracle spec in :mod:`repro.verify`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.algorithms.bfs import bfs
from repro.algorithms.cc import connected_components
from repro.algorithms.color import graph_coloring
from repro.algorithms.community import label_propagation_communities, modularity
from repro.algorithms.kcore import kcore_decomposition
from repro.algorithms.ktruss import ktruss_decomposition
from repro.algorithms.mis import maximal_independent_set
from repro.algorithms.pagerank import pagerank
from repro.algorithms.ppr import personalized_pagerank
from repro.algorithms.pregel_programs import pregel_pagerank
from repro.algorithms.scc import strongly_connected_components
from repro.algorithms.sssp import sssp, sssp_async
from repro.algorithms.tc import triangle_count

#: Plan fields a service request may set, with the type its value is
#: coerced to.  ``resilience`` is a plan field too, but the server
#: supplies it; clients cannot.
WIRE_TYPES: Dict[str, type] = dict(
    source=int, policy=str, direction=str, backend=str, seed=int,
    num_workers=int, damping=float, tolerance=float, max_iterations=int,
)


@dataclass(frozen=True)
class AlgorithmSpec:
    """How the CLI, the profiler and the service call one entry point.

    Attributes
    ----------
    entry:
        ``entry(graph, **plan) -> result``; the result carries the
        loop's :class:`~repro.utils.counters.RunStats` as ``stats``.
    fields:
        The plan fields the entry consumes: keys of :data:`WIRE_TYPES`
        and ``resilience``.
    values:
        The result attribute holding the per-vertex values; ``None``
        when there is none (tc and ktruss count per edge).
    extra:
        ``extra(graph, result) -> dict`` of scalar result fields, which
        the service returns beside its checksum and ``repro run``
        prints through ``summary`` and records in the ledger.
    summary:
        ``repro run``'s summary line, formatted with ``extra``'s dict.
    renamed:
        Plan field -> entry keyword, where they differ (ppr's ``seeds``).
    """

    entry: Callable[..., Any]
    fields: Tuple[str, ...] = ()
    values: Optional[str] = None
    extra: Optional[Callable[[Any, Any], Dict[str, Any]]] = None
    summary: Optional[str] = None
    renamed: Mapping[str, str] = field(default_factory=dict)

    @cached_property
    def defaults(self) -> Dict[str, Any]:
        """Every consumed field at its signature default: a policy
        object by its name, a required source at vertex 0."""
        params = inspect.signature(self.entry).parameters
        out: Dict[str, Any] = {}
        for name in self.fields:
            default = params[self.renamed.get(name, name)].default
            out[name] = (
                0 if default is inspect.Parameter.empty
                else getattr(default, "name", default)
            )
        return out

    def wire_params(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """A service request's params, typed and defaulted.

        Raises :class:`ValueError` on a field the spec does not take and
        :class:`ValueError`/:class:`TypeError` on an uncoercible value.
        """
        out = {k: v for k, v in self.defaults.items() if k in WIRE_TYPES}
        for key, value in params.items():
            if key not in out:
                raise ValueError(
                    f"unknown parameter {key!r}; expected one of {sorted(out)}"
                )
            out[key] = WIRE_TYPES[key](value)
        return out

    def run(self, graph, plan: Mapping[str, Any]):
        """Call the entry with ``plan``, a subset of :attr:`fields`; an
        unset source runs from its default."""
        if "source" in self.fields and "source" not in plan:
            plan = {**plan, "source": self.defaults["source"]}
        return self.entry(
            graph, **{self.renamed.get(k, k): v for k, v in plan.items()}
        )

    def values_of(self, result) -> Optional[np.ndarray]:
        """The per-vertex values of one ``result`` (``None`` if none)."""
        return None if self.values is None else getattr(result, self.values)


_TRAVERSAL = ("source", "policy", "direction", "backend", "resilience")
_ITERATIVE = ("policy", "backend", "damping", "tolerance", "max_iterations")


def _count(name: str) -> Callable[[Any, Any], Dict[str, Any]]:
    """``extra`` reporting one integer attribute of the result."""
    return lambda g, r: {name: int(getattr(r, name))}


#: name -> spec, for every algorithm ``repro run``, ``repro profile`` and
#: the query service accept.  Every entry honours a deadline: pagerank
#: and ppr return their last iterate when the ambient cancel token fires
#: (a 206), the others poll it every superstep (a 504).
REGISTRY: Dict[str, AlgorithmSpec] = {
    "sssp": AlgorithmSpec(
        sssp, _TRAVERSAL, "distances",
        extra=lambda g, r: {
            "reached": int(np.count_nonzero(np.isfinite(r.distances)))
        },
    ),
    "sssp_async": AlgorithmSpec(
        sssp_async, ("source", "num_workers", "resilience"), "distances"
    ),
    "bfs": AlgorithmSpec(
        bfs, _TRAVERSAL, "levels",
        extra=lambda g, r: {"reached": int(np.count_nonzero(r.levels >= 0))},
    ),
    "pagerank": AlgorithmSpec(
        pagerank, _ITERATIVE, "ranks",
        extra=lambda g, r: {"delta": r.delta},
    ),
    "pregel_pagerank": AlgorithmSpec(pregel_pagerank, values="ranks"),
    "cc": AlgorithmSpec(
        connected_components, ("policy", "backend", "resilience"), "labels",
        _count("n_components"), "components: {n_components}",
    ),
    "scc": AlgorithmSpec(
        strongly_connected_components, (), "labels", _count("n_components"),
        "strongly connected components: {n_components}",
    ),
    "tc": AlgorithmSpec(
        triangle_count, ("policy",), None,
        lambda g, r: {"triangles": int(r.total)}, "triangles: {triangles}",
    ),
    "kcore": AlgorithmSpec(
        kcore_decomposition, (), "core_numbers",
        lambda g, r: {"degeneracy": int(r.max_core)}, "degeneracy: {degeneracy}",
    ),
    "color": AlgorithmSpec(
        graph_coloring, ("seed",), "colors", _count("n_colors"),
        "colors: {n_colors}",
    ),
    "ppr": AlgorithmSpec(
        personalized_pagerank, ("source",) + _ITERATIVE, "ranks",
        extra=lambda g, r: {"seeds": [int(s) for s in r.seeds]},
        renamed={"source": "seeds"},
    ),
    "mis": AlgorithmSpec(
        maximal_independent_set, ("seed",), "in_set", _count("size"),
        "independent set size: {size}",
    ),
    "ktruss": AlgorithmSpec(
        ktruss_decomposition, ("policy",), None, _count("max_truss"),
        "max truss: {max_truss}",
    ),
    "communities": AlgorithmSpec(
        label_propagation_communities, ("seed",), "labels",
        lambda g, r: {
            "n_communities": int(r.n_communities),
            "modularity": float(modularity(g, r.labels)),
        },
        "communities: {n_communities} (Q={modularity:.3f})",
    ),
}

