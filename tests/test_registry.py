"""The algorithm registry is the one table ``repro run``, ``repro
profile`` and the query service dispatch from."""

import inspect
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.algorithms import REGISTRY, AlgorithmSpec
from repro.algorithms.registry import WIRE_TYPES
from repro.cli import main
from repro.errors import DeadlineExceeded, ProtocolError
from repro.graph.generators import grid_2d, rmat
from repro.graph.io import save_graph_npz
from repro.observability.ledger import RunLedger
from repro.observability.probe import Probe
from repro.resilience.deadline import CancelToken
from repro.service import GraphCatalog, QueryService, ServiceConfig
from repro.service.protocol import validate_request
from repro.utils.counters import RunStats

PLAN_FIELDS = set(WIRE_TYPES) | {"resilience"}


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.npz"
    save_graph_npz(grid_2d(6, 6, weighted=True, seed=1), path)
    return str(path)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_consumed_fields_are_parameters_of_the_entry(name):
    spec = REGISTRY[name]
    parameters = inspect.signature(spec.entry).parameters
    assert set(spec.fields) <= PLAN_FIELDS
    for field in spec.fields:
        assert spec.renamed.get(field, field) in parameters, field
    assert set(spec.defaults) == set(spec.fields)


@pytest.fixture(scope="module")
def rmat8():
    return rmat(8, 8, weighted=True, seed=2)


#: The asynchronous entry runs on the AsyncEnactor, whose one
#: quiescence-driven "iteration" is its ``async:run`` span.
LOOP_SPAN = {"sssp_async": "async:run"}


@pytest.mark.parametrize("name", list(REGISTRY))
def test_every_entry_runs_its_supersteps_on_the_loop(name, rmat8):
    """One span per recorded superstep, at least one, and real work."""
    probe = Probe(trace=True)
    with probe:
        result = REGISTRY[name].run(rmat8, {})
    spans = [
        s for s in probe.tracer.spans()
        if s.name == LOOP_SPAN.get(name, "superstep")
    ]
    supersteps, edges = result.stats.num_iterations, result.stats.total_edges_touched
    assert supersteps >= 1
    assert len(spans) == supersteps
    assert edges > 0


#: Anytime entries: a fired token returns their last iterate.
PARTIAL = {"pagerank", "ppr"}


@pytest.mark.parametrize("name", list(REGISTRY))
def test_every_entry_honours_an_expired_deadline(name, rmat8):
    with CancelToken.after(0.0):
        if name not in PARTIAL:
            with pytest.raises(DeadlineExceeded):
                REGISTRY[name].run(rmat8, {})
            return
        result = REGISTRY[name].run(rmat8, {})
    assert not result.converged


def test_the_service_runs_exactly_the_deadline_aware_entries():
    # Every entry honours a deadline (above), so the service takes
    # every registry name and nothing else.
    for name in REGISTRY:
        request = {"op": "query", "graph": "g", "algorithm": name}
        assert validate_request(request)["algorithm"] == name
    with pytest.raises(ProtocolError, match="unknown algorithm"):
        validate_request({"op": "query", "graph": "g", "algorithm": "hits"})


@dataclass
class _ToyResult:
    degrees: np.ndarray
    stats: RunStats = field(default_factory=RunStats)


def _toy(graph, *, policy="seq", seed=3):
    """Every vertex's out-degree, as a minimal registry entry."""
    return _ToyResult(graph.out_degrees().astype(np.float64) + seed)


def test_a_toy_spec_runs_through_run_and_profile(
    graph_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.setitem(
        REGISTRY,
        "toy",
        AlgorithmSpec(
            _toy,
            ("policy", "seed"),
            "degrees",
            extra=lambda g, r: {"top": float(r.degrees.max())},
            summary="top: {top}",
        ),
    )
    out = str(tmp_path / "toy.npy")
    assert main(
        ["run", "toy", graph_file, "--seed", "1", "--output", out,
         "--no-ledger"]
    ) == 0
    assert "top: 5.0" in capsys.readouterr().out  # grid max degree 4, +1
    assert np.load(out).shape == (36,)
    assert main(["profile", "toy", graph_file, "--json", "--no-ledger"]) == 0
    assert '"algorithm": "toy"' in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["run", "toy", graph_file, "--source", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["run", "pagerank"], {"policy": "par_vector", "tolerance": 1e-6}),
        (["run", "bfs"], {"direction": "auto", "source": 0}),
        (["run", "tc", "--policy", "seq"], {"policy": "seq"}),
        (["run", "ktruss"], {"policy": "par"}),
        (["profile", "sssp_async"], {"num_workers": 4, "source": 0}),
    ],
)
def test_ledger_config_is_what_ran(graph_file, tmp_path, argv, expected):
    """The record holds the consumed fields at their resolved values,
    and nothing the entry did not take."""
    ledger_dir = str(tmp_path / "runs")
    name = argv[1]
    assert main(argv[:2] + [graph_file] + argv[2:]
                + ["--ledger-dir", ledger_dir]) == 0
    (record,) = RunLedger(ledger_dir).tail(1)
    config = record["config"]
    assert config.pop("graph") == graph_file
    assert set(config) == set(REGISTRY[name].fields)
    assert expected.items() <= config.items()


@pytest.fixture
def service(tmp_path):
    cat = GraphCatalog()
    cat.add({"name": "g", "generator": "grid", "scale": 6, "seed": 0})
    svc = QueryService(
        cat,
        data_dir=str(tmp_path / "svc"),
        config=ServiceConfig(record_ledger=False),
    )
    yield svc
    svc.close()


def _query(service, algorithm, params):
    return service.handle(
        {"op": "query", "graph": "g", "algorithm": algorithm, "params": params}
    )


def test_service_default_params_share_a_cache_entry(service):
    first = _query(service, "sssp", {"source": 0})
    assert first["code"] == 200
    again = _query(service, "sssp", {"source": 0, "policy": "par_vector"})
    assert again["code"] == 200
    assert again["server"]["cached"] is True
    assert again["result"] == first["result"]


@pytest.mark.parametrize(
    "algorithm, params",
    [
        ("sssp", {"source": 0, "polcy": "seq"}),
        ("cc", {"source": 0}),  # cc takes no source
        ("pagerank", {"direction": "pull"}),
        ("bfs", {"source": "zero"}),
        ("bfs", {"resilience": None}),  # the server's field, not the client's
    ],
)
def test_service_params_off_the_spec_are_a_400(service, algorithm, params):
    resp = _query(service, algorithm, params)
    assert resp["code"] == 400
    assert service.cache.stats()["misses"] == 0  # rejected before the cache
