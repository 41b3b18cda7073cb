"""The suite's own test: run ``--smoke --trace``, check the output
against ``BENCHMARK.json``, and check that the run cleaned up.

Not part of tier-1 (``testpaths = ["tests"]``); run it with
``python -m pytest benchmarks/suite/test_suite.py``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
RUN = os.path.join(SUITE_DIR, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, SUITE_DIR)


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _tree():
    """Every file of the checkout outside the places a run may write."""
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    found = set()
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = [
            d
            for d in dirs
            if d not in skip and os.path.join(base, d) != os.path.join(SUITE_DIR, "out")
        ]
        found.update(os.path.join(base, f) for f in files)
    return found


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "smoke.json"
    shm_before = set(os.listdir("/dev/shm"))
    tree_before = _tree()
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("REPRO_NO_SCIPY", "REPRO_NUM_WORKERS", "REPRO_PROC_START")
    }
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--trace", "--seed", "5", "--json", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    return {
        "document": document,
        "stdout": proc.stdout,
        "shm_leaked": set(os.listdir("/dev/shm")) - shm_before,
        "stray_files": _tree() - tree_before,
    }


def test_contract_file_is_well_formed():
    from workloads import WORKLOADS

    contract = _contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["benchmarks/suite"]
    declared = {w["name"]: w["why"] for w in contract["workloads"]}
    assert declared == {cls.name: cls.why for cls in WORKLOADS}
    names = (
        list(declared)
        + [m["name"] for m in contract["end_to_end"]]
        + [m["name"] for m in contract["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w) <= 200 and "\n" not in w for w in declared.values())
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_declared_metric_is_reported_for_every_workload(smoke):
    contract, document = _contract(), smoke["document"]
    assert set(document["workloads"]) == {w["name"] for w in contract["workloads"]}
    for name, entry in document["workloads"].items():
        for section, key in (("end_to_end", "untraced"), ("per_layer", "traced")):
            reported = entry[key][section]
            for declared in contract[section]:
                metric = reported[declared["name"]]
                assert metric["unit"] == declared["unit"], (name, declared["name"])
                assert isinstance(metric["value"], (int, float)), (name, declared)
            assert set(reported) == {m["name"] for m in contract[section]}
        for detail in entry.values():
            assert detail["ops_attempted"] >= 1
            assert detail["ops_failed"] == 0
            assert detail["oracle_checks"] >= 1
            assert NAME.match(name)


def test_provenance_is_recorded(smoke):
    meta = smoke["document"]["meta"]
    for key in (
        "cores", "workers", "loadavg_1m", "python", "numpy", "scipy",
        "scipy_available", "git_sha", "seed", "ops_per_pass",
    ):
        assert key in meta
    assert meta["cores"]["cpu_count"] == os.cpu_count()
    assert meta["seed"] == 5


def test_layer_rows_are_printed(smoke):
    rows = smoke["document"]["layers"]
    for prefix in (
        "graph.build_s", "graph.csc_build_ms", "graph.snapshot_ms",
        "frontier.convert_ms", "operators.advance_mteps",
        "operators.min_relax_mteps", "operators.claim_levels_mteps",
        "operators.sum_aggregate_mteps", "loop.step_overhead_us",
        "execution.pool_spawn_s", "execution.shm_place_s",
        "execution.round_trip_ms", "linalg.spmv_ms", "linalg.spmspv_ms",
        "linalg.scipy", "algorithms.bfs.", "algorithms.sssp.",
        "algorithms.cc.", "algorithms.pagerank.", "dynamic.apply_batch_ms",
        "dynamic.repair_ms.", "dynamic.repair_speedup.",
        "comm.pregel_pagerank_ms", "resilience.checkpoint_ms",
    ):
        assert any(r.startswith(prefix) for r in rows), prefix
    assert all(NAME.match(r) for r in rows)
    workloads = smoke["document"]["workloads"]
    assert "execution.proc_speedup" in workloads["proc-rmat17"]["untraced"]["rows"]
    assert "service.miss_overhead_ms" in workloads["service-cold-rmat16"]["untraced"]["rows"]
    assert "service.hit_ms_p50" in workloads["service-hot-rmat16"]["untraced"]["rows"]
    assert "operators.useful_ratio" in workloads["traverse-rmat16"]["untraced"]["counts"]


def test_run_cleans_up_after_itself(smoke):
    assert not smoke["shm_leaked"]
    assert not smoke["stray_files"]
    for entry in smoke["document"]["workloads"].values():
        for detail in entry.values():
            hygiene = detail["hygiene"]
            assert hygiene["shm_leaked"] == []
            assert hygiene["children_alive"] == 0
            assert hygiene["threads"][0] == hygiene["threads"][1]
            assert hygiene["fds"][0] == hygiene["fds"][1]


def test_numpy_pagerank_reference_matches_the_baseline():
    from harness import bootstrap

    bootstrap()
    import numpy as np

    import oracles
    from repro import generators
    from repro.baselines import sequential_pagerank

    g = generators.rmat(8, 8, weighted=True, seed=3)
    want = sequential_pagerank(g, tolerance=0.0, max_iterations=20)
    assert np.allclose(oracles.numpy_pagerank(g, 20), want, rtol=1e-9, atol=1e-12)


def test_conflicting_environment_is_refused():
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--workload", "bulk-rmat16"],
        capture_output=True,
        text=True,
        env={**os.environ, "REPRO_NO_SCIPY": "1"},
        timeout=120,
    )
    assert proc.returncode == 2
    assert "REPRO_NO_SCIPY" in proc.stderr
    assert proc.stdout == ""


def test_compare_flags_a_regression(smoke, tmp_path):
    document = smoke["document"]
    worse = json.loads(json.dumps(document))
    metric = worse["workloads"]["bulk-rmat16"]["untraced"]["end_to_end"]["op_ms_p50"]
    metric["value"] *= 1.5
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(document))
    b.write_text(json.dumps(worse))
    same = subprocess.run(
        [sys.executable, RUN, "--compare", str(a), str(a)], capture_output=True, text=True
    )
    assert same.returncode == 0 and "regressed" not in same.stdout
    diff = subprocess.run(
        [sys.executable, RUN, "--compare", str(a), str(b)], capture_output=True, text=True
    )
    assert diff.returncode == 1
    assert re.search(r"bulk-rmat16\s+op_ms_p50 .* regressed", diff.stdout)
