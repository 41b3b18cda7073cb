"""Tests for the trace analysis engine, run ledger, and regression gate.

Covers the three PR-4 deliverables end to end: span-tree reconstruction
and attribution (live probe, events JSONL, Chrome trace), the diagnosis
naming an artificially slowed layer, ledger append/query semantics, the
regression gate's exit codes, and the ``repro explain`` / ``repro
diff`` / ``repro ledger`` CLI surface.
"""

from __future__ import annotations

import json

import pytest

from repro.graph.generators import grid_2d
from repro.observability.analysis import (
    SpanNode,
    analyze_file,
    analyze_probe,
    analyze_spans,
    build_tree,
    layer_of,
    nodes_from_chrome_trace,
)
from repro.observability.export import to_chrome_trace, write_events_jsonl
from repro.observability.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    ledger_enabled,
    make_record,
)
from repro.observability.probe import Probe
from repro.observability.profile import profile_algorithm
from repro.observability.regression import compare


# -- synthetic span helpers -----------------------------------------------------------


def _span(sid, name, start, dur, parent=None, tid=1, **attrs):
    return SpanNode(
        span_id=sid,
        name=name,
        start=start,
        duration=dur,
        parent_id=parent,
        thread_id=tid,
        thread_name=f"t{tid}",
        attrs=attrs,
    )


def _synthetic_run(frontier_scale=1.0):
    """Three supersteps on a driver thread: each holds one advance and
    one frontier conversion; ``frontier_scale`` inflates the frontier
    layer's share (the artificial-slowdown knob)."""
    nodes = []
    sid = 0
    t = 0.0
    f = 0.010 * frontier_scale
    for i in range(3):
        step_dur = 0.002 + 0.020 + f
        root = _span(sid, "superstep", t, step_dur,
                     iteration=i, frontier_size=10 * (i + 1),
                     edges_expanded=40 * (i + 1),
                     output_frontier_size=10 * (i + 2))
        nodes.append(root)
        root_id, sid = sid, sid + 1
        nodes.append(_span(sid, "operator:advance", t + 0.001, 0.020,
                           parent=root_id, direction="push", fused=True,
                           representation="sparse"))
        sid += 1
        nodes.append(_span(sid, "frontier:convert", t + 0.0215, f,
                           parent=root_id, source="SparseFrontier",
                           target="DenseFrontier"))
        sid += 1
        t += step_dur + 0.001  # 1 ms of untraced bookkeeping between steps
    return nodes


# -- tree + attribution ---------------------------------------------------------------


def test_layer_of_maps_span_vocabulary():
    assert layer_of("graph:view") == "graph"
    assert layer_of("frontier:convert") == "frontier"
    assert layer_of("operator:advance") == "operator"
    assert layer_of("superstep") == "loop"
    assert layer_of("scheduler:task") == "loop"
    assert layer_of("pregel:send") == "comm"
    assert layer_of("proc:round") == "comm"
    assert layer_of("proc:task") == "operator"
    assert layer_of("checkpoint:save") == "resilience"
    for name in ("dynamic:mutate", "dynamic:snapshot", "dynamic:compact"):
        assert layer_of(name) == "graph"
    assert layer_of("dynamic:repair") == "operator"
    assert layer_of("dynamic:window") == "other"
    assert layer_of("somebody:else") == "other"


def test_build_tree_links_children_and_orphans():
    a = _span(1, "superstep", 0.0, 1.0)
    b = _span(2, "operator:advance", 0.1, 0.5, parent=1)
    c = _span(3, "operator:filter", 0.7, 0.1, parent=99)  # dropped parent
    roots = build_tree([a, b, c])
    assert [r.span_id for r in roots] == [1, 3]
    assert [ch.span_id for ch in a.children] == [2]
    assert a.self_time == pytest.approx(0.5)
    assert b.self_time == pytest.approx(0.5)


def test_attribution_self_time_no_double_counting():
    report = analyze_spans(_synthetic_run())
    # Layer totals + nothing double counted: attributed == wall (the
    # inter-step gaps are attributed to loop as bookkeeping).
    assert report.attributed_seconds == pytest.approx(
        report.wall_seconds, rel=1e-6
    )
    assert report.coverage == pytest.approx(1.0)
    assert report.layers["operator"] == pytest.approx(0.060, rel=1e-6)
    assert report.layers["frontier"] == pytest.approx(0.030, rel=1e-6)
    assert report.untraced_seconds == pytest.approx(0.002, rel=1e-6)


def test_critical_path_descends_heaviest_child():
    report = analyze_spans(_synthetic_run())
    names = [e.name for e in report.critical_path]
    assert names[0] == "operator:advance"  # the heaviest chain member
    assert "superstep" in names
    assert report.critical_path_seconds > 0
    assert report.critical_path_seconds <= report.wall_seconds * 1.001


def test_frontier_timeline_rows_and_direction():
    report = analyze_spans(_synthetic_run(), n_vertices=100)
    assert len(report.supersteps) == 3
    row = report.supersteps[1]
    assert row.iteration == 1
    assert row.frontier_size == 20
    assert row.output_size == 30
    assert row.edges_expanded == 80
    assert row.density == pytest.approx(0.2)
    assert row.direction == "push" and row.fused is True
    assert row.representation == "sparse"
    assert report.direction_flips == 0


def test_worker_imbalance_from_task_spans():
    nodes = [_span(0, "async:run", 0.0, 1.0, tid=1)]
    sid = 1
    # Worker 0 does 3x the busy time of the other three.
    for worker, busy in ((0, 0.9), (1, 0.3), (2, 0.3), (3, 0.3)):
        for j in range(3):
            nodes.append(
                _span(sid, "scheduler:task", 0.01 * j, busy / 3,
                      tid=10 + worker, worker=worker, stolen=(j == 2))
            )
            sid += 1
    report = analyze_spans(nodes)
    assert len(report.workers) == 4
    mean = (0.9 + 0.3 * 3) / 4
    assert report.imbalance_factor == pytest.approx(0.9 / mean)
    w0 = next(w for w in report.workers if w.worker == 0)
    assert w0.tasks == 3 and w0.steals == 1
    assert "imbalance" in report.diagnosis()


def test_diagnosis_names_artificially_slowed_layer():
    """A 3x slowdown injected into one layer moves the diagnosis."""
    baseline = analyze_spans(_synthetic_run(frontier_scale=1.0))
    assert baseline.bottleneck_layer() == "operator"
    slowed = analyze_spans(_synthetic_run(frontier_scale=7.0))
    assert slowed.bottleneck_layer() == "frontier"
    assert "frontier" in slowed.diagnosis()
    assert "frontier:convert" in slowed.diagnosis()


def test_empty_input_produces_empty_report():
    report = analyze_spans([])
    assert report.span_count == 0
    assert "no spans" in report.diagnosis()
    assert report.render()  # renders without raising


# -- real traces ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sssp_report():
    graph = grid_2d(32, 32, weighted=True, seed=0)
    return profile_algorithm(graph, "sssp")


def test_probe_attribution_covers_95_percent_of_wall(sssp_report):
    report = analyze_probe(sssp_report.probe)
    assert report.span_count > 0
    assert report.coverage >= 0.95
    # Per-superstep rows track the run's actual iterations.
    assert len(report.supersteps) == sssp_report.stats.num_iterations
    sizes = [r.frontier_size for r in report.supersteps]
    assert sizes == [it.frontier_size for it in sssp_report.stats.iterations]
    assert report.n_vertices == 1024  # from the profile gauge
    assert any(r.density is not None for r in report.supersteps)
    assert report.bottleneck_layer() in ("operator", "loop")


def test_chrome_trace_roundtrip_matches_probe_analysis(sssp_report, tmp_path):
    """Containment-based parent reconstruction recovers the same tree
    shape the probe recorded (same span count, same layer ranking)."""
    direct = analyze_probe(sssp_report.probe)
    path = tmp_path / "trace.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(sssp_report.probe), fh)
    from_file = analyze_file(str(path))
    assert from_file.span_count == direct.span_count
    assert from_file.bottleneck_layer() == direct.bottleneck_layer()
    assert from_file.wall_seconds == pytest.approx(
        direct.wall_seconds, rel=1e-3
    )
    assert len(from_file.supersteps) == len(direct.supersteps)


def test_events_jsonl_analysis_includes_density(sssp_report, tmp_path):
    path = tmp_path / "events.jsonl"
    write_events_jsonl(sssp_report.probe, str(path))
    report = analyze_file(str(path))
    assert report.n_vertices == 1024  # metrics line carries the gauge
    assert any(r.density is not None for r in report.supersteps)
    assert report.coverage >= 0.95


def test_chrome_parent_reconstruction_orders_equal_timestamps():
    obj = {
        "traceEvents": [
            {"name": "child", "ph": "X", "ts": 0.0, "dur": 50.0,
             "pid": 0, "tid": 1, "args": {}},
            {"name": "parent", "ph": "X", "ts": 0.0, "dur": 100.0,
             "pid": 0, "tid": 1, "args": {}},
        ]
    }
    nodes = nodes_from_chrome_trace(obj)
    by_name = {n.name: n for n in nodes}
    assert by_name["child"].parent_id == by_name["parent"].span_id
    assert by_name["parent"].parent_id is None


# -- ledger ---------------------------------------------------------------------------


def test_ledger_append_get_tail_and_prefix(tmp_path):
    ledger = RunLedger(str(tmp_path / "runs"))
    ids = []
    for i in range(3):
        record = make_record(
            kind="run", algorithm="sssp", metrics={"seconds": 0.01 * (i + 1)}
        )
        ids.append(ledger.append(record))
    assert len(ledger) == 3
    assert ledger.get(ids[1])["metrics"]["seconds"] == pytest.approx(0.02)
    # Unique prefix resolves; the shared prefix of all three does not.
    assert ledger.get(ids[2][:-1]) is not None or ledger.get(ids[2]) is not None
    assert ledger.get("r") is None  # ambiguous
    tail = ledger.tail(2)
    assert [r["run_id"] for r in tail] == ids[1:]
    assert ledger.latest("run")["run_id"] == ids[2]
    assert ledger.latest("benchmark") is None


def test_ledger_skips_corrupt_lines(tmp_path):
    ledger = RunLedger(str(tmp_path / "runs"))
    rid = ledger.append(make_record(kind="run", algorithm="bfs"))
    with open(ledger.path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
        fh.write(json.dumps({"schema": LEDGER_SCHEMA}) + "\n")  # no run_id
    assert [r["run_id"] for r in ledger.records()] == [rid]


def test_ledger_rejects_wrong_schema(tmp_path):
    ledger = RunLedger(str(tmp_path / "runs"))
    with pytest.raises(ValueError):
        ledger.append({"schema": "other/v9", "run_id": "x"})


def test_ledger_env_disable(monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER", "0")
    assert not ledger_enabled()
    monkeypatch.setenv("REPRO_LEDGER", "1")
    assert ledger_enabled()


def test_record_embeds_bounded_supersteps(sssp_report):
    record = make_record(
        kind="profile", algorithm="sssp", stats=sssp_report.stats
    )
    assert record["schema"] == LEDGER_SCHEMA
    assert len(record["supersteps"]) == sssp_report.stats.num_iterations
    assert record["environment"]["python"]
    assert record["created_at"].endswith("Z")


# -- regression gate ------------------------------------------------------------------


def _entry(**seconds):
    return {
        "schema": "repro-bench-trajectory/v1",
        "workloads": [
            {"name": name, "algorithm": name, "seconds": s,
             "n_vertices": 1, "n_edges": 1, "trials": 5}
            for name, s in seconds.items()
        ],
    }


def test_gate_passes_within_threshold():
    report = compare(_entry(sssp=0.100), _entry(sssp=0.110), threshold=0.25)
    assert report.exit_code() == 0
    assert not report.regressions
    assert "gate passed" in report.render()


def test_gate_flags_3x_regression_nonzero_exit():
    report = compare(_entry(sssp=0.100), _entry(sssp=0.300), threshold=0.25)
    assert report.exit_code() == 1
    (bad,) = report.regressions
    assert bad.name == "sssp" and bad.ratio == pytest.approx(3.0)
    assert "REGRESSED" in report.render()


def test_gate_improvement_never_fails():
    report = compare(_entry(sssp=0.300), _entry(sssp=0.100), threshold=0.25)
    assert report.exit_code() == 0
    assert report.improvements and "improved" in report.render()


def test_gate_absolute_noise_floor():
    # 3x slower but only 60 us absolute: below the floor, not a regression.
    report = compare(
        _entry(tiny=0.00003), _entry(tiny=0.00009), threshold=0.25
    )
    assert report.exit_code() == 0


def test_gate_ledger_records_and_missing_workloads():
    base = make_record(kind="run", algorithm="sssp", metrics={"seconds": 0.1})
    cand = make_record(kind="run", algorithm="sssp", metrics={"seconds": 0.5})
    report = compare(base, cand)
    assert report.exit_code() == 1
    both = compare(_entry(a=0.1, b=0.1), _entry(a=0.1, c=0.1))
    assert both.missing == ["b", "c"]
    with pytest.raises(ValueError):
        compare({"schema": "nope"}, _entry(a=0.1))


# -- CLI surface ----------------------------------------------------------------------


def test_cli_explain_trace_file(tmp_path, capsys, sssp_report):
    from repro.cli import main

    path = tmp_path / "trace.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(sssp_report.probe), fh)
    assert main(["explain", str(path)]) == 0
    out = capsys.readouterr().out
    assert "per-layer attribution" in out
    assert "critical path" in out
    assert "frontier timeline" in out
    assert "diagnosis:" in out


def test_cli_explain_json_mode(tmp_path, capsys, sssp_report):
    from repro.cli import main

    path = tmp_path / "events.jsonl"
    write_events_jsonl(sssp_report.probe, str(path))
    assert main(["explain", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coverage"] >= 0.95
    assert payload["bottleneck_layer"] in ("operator", "loop")
    assert payload["supersteps"]


def test_cli_profile_records_ledger_then_explain_and_diff(tmp_path, capsys):
    """The full loop: profile -> ledger record -> explain by run id ->
    diff two runs of the same workload."""
    from repro.cli import main

    ids = []
    for _ in range(2):
        assert main(["profile", "sssp", "--scale", "8"]) == 0
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if l.startswith("ledger: "))
        ids.append(line.split("ledger: ", 1)[1].strip())

    assert main(["ledger"]) == 0
    out = capsys.readouterr().out
    assert ids[0] in out and ids[1] in out

    assert main(["explain", ids[0]]) == 0
    out = capsys.readouterr().out
    assert "diagnosis:" in out and "critical path" in out

    code = main(["diff", ids[0], ids[1], "--threshold", "10.0"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "sssp" in out


def test_cli_diff_flags_regression_between_entries(tmp_path, capsys):
    from repro.cli import main

    base, cand = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(_entry(sssp_grid=0.100)))
    cand.write_text(json.dumps(_entry(sssp_grid=0.300)))
    assert main(["diff", str(base), str(cand)]) == 1
    assert "REGRESSED" in capsys.readouterr().out
    assert main(["diff", str(base), str(base)]) == 0


def test_cli_explain_unknown_target_errors(capsys):
    from repro.cli import main

    assert main(["explain", "no-such-run-id"]) == 1
    assert "neither" in capsys.readouterr().err


def test_cli_run_no_ledger_flag(tmp_path, capsys):
    from repro.cli import main
    from repro.graph.io import save_graph_npz

    g = grid_2d(8, 8, weighted=True, seed=0)
    gpath = tmp_path / "g.npz"
    save_graph_npz(g, str(gpath))
    assert main(["run", "sssp", str(gpath), "--no-ledger"]) == 0
    assert "ledger:" not in capsys.readouterr().err
    assert main(["run", "sssp", str(gpath)]) == 0
    assert "ledger:" in capsys.readouterr().err
