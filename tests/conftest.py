"""Shared fixtures: canonical small graphs, policy parametrization, and
per-test RNG pinning so any failure replays deterministically."""

from __future__ import annotations

import os
import random
import zlib

import numpy as np
import pytest

from repro.utils.rng import set_default_seed

from repro.execution import par, par_nosync, par_vector, seq
from repro.graph import from_edge_list
from repro.graph.generators import (
    erdos_renyi_gnp,
    grid_2d,
    rmat,
    watts_strogatz,
)

ALL_POLICIES = [seq, par, par_nosync, par_vector]
POLICY_IDS = [p.name for p in ALL_POLICIES]


@pytest.fixture(params=ALL_POLICIES, ids=POLICY_IDS)
def policy(request):
    """Every execution policy; tests using this assert policy-invariance."""
    return request.param


@pytest.fixture
def diamond_graph():
    """The 4-vertex weighted diamond: two paths 0→3, lengths 3 and 5.

    ::

          0
        1/ \\4
        1    2
        2\\ /1
          3
    """
    return from_edge_list(
        [(0, 1, 1.0), (0, 2, 4.0), (1, 3, 2.0), (2, 3, 1.0)],
        n_vertices=4,
        directed=True,
    )


@pytest.fixture
def triangle_graph():
    """Undirected triangle with unit weights."""
    return from_edge_list(
        [(0, 1), (1, 2), (0, 2)], n_vertices=3, directed=False
    )


@pytest.fixture
def two_component_graph():
    """Two disjoint undirected paths: {0,1,2} and {3,4}."""
    return from_edge_list(
        [(0, 1), (1, 2), (3, 4)], n_vertices=5, directed=False
    )


@pytest.fixture
def small_grid():
    """8x8 unweighted grid, undirected."""
    return grid_2d(8, 8)


@pytest.fixture
def weighted_grid():
    """10x10 grid with symmetric random weights, seed-pinned."""
    return grid_2d(10, 10, weighted=True, seed=42)


@pytest.fixture
def small_rmat():
    """Scale-8 weighted R-MAT, directed, seed-pinned."""
    return rmat(8, 8, weighted=True, seed=7)


@pytest.fixture
def small_er():
    """Sparse directed weighted G(n, p), seed-pinned."""
    return erdos_renyi_gnp(200, 0.03, weighted=True, seed=11)


@pytest.fixture
def small_ws():
    """Small-world graph with triangles, undirected, seed-pinned."""
    return watts_strogatz(150, 6, 0.1, seed=13)


# -- the shape-claim graphs: one per regime a pillar trade-off needs ---------


@pytest.fixture(scope="session")
def rmat10():
    """Scale-10 weighted R-MAT, edge factor 16, undirected: hub-skewed
    degrees for load balance and direction choice."""
    return rmat(10, 16, weighted=True, seed=1, directed=False)


@pytest.fixture(scope="session")
def rmat10_directed():
    """Scale-10 weighted R-MAT, edge factor 16, directed: low diameter."""
    return rmat(10, 16, weighted=True, seed=2)


@pytest.fixture(scope="session")
def grid48():
    """48x48 weighted grid: high diameter, uniform degree (road-like)."""
    return grid_2d(48, 48, weighted=True, seed=3)


@pytest.fixture(scope="session")
def ws10():
    """1024-vertex small world with triangles, undirected."""
    return watts_strogatz(1 << 10, 8, 0.05, seed=5)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def _seeded_rngs(request, monkeypatch):
    """Pin every RNG entry point per-test, derived from the test's id.

    The seed is ``REPRO_TEST_SEED`` (default 0) mixed with a hash of the
    test's nodeid, so each test gets a distinct but fully reproducible
    stream through: the ``random`` module, NumPy's legacy global state,
    the library's ambient default seed (``resolve_rng(None)``), and the
    chaos harness (``REPRO_CHAOS_SEED``).  Re-running one failing test
    therefore replays the exact randomness of the full-suite run — set
    ``REPRO_TEST_SEED`` to explore other universes.
    """
    base = int(os.environ.get("REPRO_TEST_SEED", "0"))
    node_hash = zlib.crc32(request.node.nodeid.encode("utf-8"))
    seed = (base * 0x9E3779B1 + node_hash) % (2**31 - 1)
    random.seed(seed)
    np.random.seed(seed)
    set_default_seed(seed)
    monkeypatch.setenv("REPRO_CHAOS_SEED", str(seed))
    yield
    set_default_seed(None)


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    """CLI invocations inside tests must not write a ledger into the
    developer's working directory; each test gets its own."""
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
