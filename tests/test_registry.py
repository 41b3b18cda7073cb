"""The algorithm registry is the one table ``repro run``, ``repro
profile`` and the query service dispatch from."""

import inspect

import numpy as np
import pytest

from repro.algorithms import REGISTRY, AlgorithmSpec
from repro.algorithms.registry import WIRE_TYPES
from repro.cli import main
from repro.graph.generators import grid_2d
from repro.graph.io import save_graph_npz
from repro.observability.ledger import RunLedger
from repro.service import GraphCatalog, QueryService, ServiceConfig

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


def test_the_service_runs_exactly_the_deadline_aware_entries():
    served = {name for name, spec in REGISTRY.items() if spec.service}
    assert served == {"pagerank", "ppr", "bfs", "sssp", "cc"}


def _toy(graph, *, policy="seq", seed=3):
    """Every vertex's out-degree, as a minimal registry entry."""
    return graph.out_degrees().astype(np.float64) + seed


def test_a_toy_spec_runs_through_run_and_profile(
    graph_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.setitem(
        REGISTRY,
        "toy",
        AlgorithmSpec(
            _toy,
            ("policy", "seed"),
            extra=lambda g, r: {"top": float(r.max())},
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
        (["run", "bfs"], {"direction": "push", "source": 0}),
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
