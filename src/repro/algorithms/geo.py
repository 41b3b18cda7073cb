"""Geolocation inference — the `geo` application of the essentials suite.

Given a graph where a subset of vertices have known coordinates
(latitude/longitude), infer every other vertex's location as the
spatial median of its located neighbors, iterating until the unlabeled
set stops shrinking and positions stabilize.  The frontier is the set
of vertices that gained or moved a location last round — the same
convergent-loop shape as everything else, applied to a geometric
payload (2 floats per vertex instead of 1).

The spatial median (geometric median on the sphere) is computed by
Weiszfeld iteration over gnomonic-projected neighbor coordinates; for
the few-neighbor case it degrades gracefully to the centroid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.convergence import EmptyFrontier, MaxIterations
from repro.loop.enactor import Enactor
from repro.utils.counters import RunStats

EARTH_RADIUS_KM = 6371.0


def haversine_km(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """Great-circle distance in kilometers (vectorized)."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dp / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0, 1)))


def _spatial_median(lats: np.ndarray, lons: np.ndarray, iters: int = 20) -> tuple:
    """Weiszfeld geometric median of small coordinate sets (planar
    approximation, adequate at neighborhood scale)."""
    if lats.shape[0] == 1:
        return float(lats[0]), float(lons[0])
    x, y = float(lats.mean()), float(lons.mean())
    for _ in range(iters):
        d = np.sqrt((lats - x) ** 2 + (lons - y) ** 2)
        if np.any(d < 1e-12):
            # Median coincides with a sample point.
            k = int(np.argmin(d))
            return float(lats[k]), float(lons[k])
        w = 1.0 / d
        nx = float((w * lats).sum() / w.sum())
        ny = float((w * lons).sum() / w.sum())
        if abs(nx - x) + abs(ny - y) < 1e-10:
            break
        x, y = nx, ny
    return x, y


@dataclass
class GeoResult:
    """Inferred coordinates, coverage, accounting."""

    latitudes: np.ndarray
    longitudes: np.ndarray
    located: np.ndarray
    iterations: int
    stats: RunStats = field(default_factory=RunStats)

    @property
    def coverage(self) -> float:
        """Fraction of vertices with a (known or inferred) location."""
        return float(self.located.mean()) if self.located.size else 0.0


def geolocate(
    graph: Graph,
    known_vertices,
    known_lats,
    known_lons,
    *,
    max_iterations: int = 50,
    position_tolerance: float = 1e-4,
) -> GeoResult:
    """Propagate locations from labeled seeds over the graph.

    Each round, every unlocated vertex adjacent to ≥1 located neighbor
    takes the spatial median of its located neighbors; located vertices
    never move (seeds are trusted).  Stops when no vertex gains a
    location — unreachable vertices stay unlocated (check
    :attr:`GeoResult.coverage`).
    """
    n = graph.n_vertices
    known_vertices = np.atleast_1d(np.asarray(known_vertices, dtype=np.int64))
    known_lats = np.atleast_1d(np.asarray(known_lats, dtype=np.float64))
    known_lons = np.atleast_1d(np.asarray(known_lons, dtype=np.float64))
    if not (
        known_vertices.shape == known_lats.shape == known_lons.shape
    ):
        raise ValueError("known arrays must have equal lengths")
    if known_vertices.size and (
        int(known_vertices.min()) < 0 or int(known_vertices.max()) >= n
    ):
        raise ValueError(f"seed vertex ids must lie in [0, {n})")

    lats = np.full(n, np.nan)
    lons = np.full(n, np.nan)
    located = np.zeros(n, dtype=bool)
    lats[known_vertices] = known_lats
    lons[known_vertices] = known_lons
    located[known_vertices] = True

    csr = graph.csr()

    def step(frontier, state):
        # Candidates: unlocated out-neighbors of the vertices located
        # last round (the frontier).
        _, dsts, _, _ = csr.expand_vertices(frontier.indices_view())
        candidates = np.unique(dsts[~located[dsts]]) if dsts.size else dsts
        newly = []
        for v in candidates:
            v = int(v)
            nbrs = csr.get_neighbors(v)
            mask = located[nbrs]
            if not np.any(mask):
                continue
            la, lo = _spatial_median(lats[nbrs[mask]], lons[nbrs[mask]])
            lats[v], lons[v] = la, lo
            newly.append(v)
        located[newly] = True
        return SparseFrontier.from_indices(newly, n)

    enactor = Enactor(
        graph, convergence=EmptyFrontier() | MaxIterations(max_iterations)
    )
    stats = enactor.run(SparseFrontier.from_indices(known_vertices, n), step)
    return GeoResult(
        latitudes=lats,
        longitudes=lons,
        located=located,
        iterations=stats.num_iterations,
        stats=stats,
    )
