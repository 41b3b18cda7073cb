#!/usr/bin/env python3
"""The canonical benchmark: seven workloads, four end-to-end metrics,
per-layer rows from a separate traced run.

    python benchmarks/suite/run.py                      # all workloads
    python benchmarks/suite/run.py --trace --json out.json
    python benchmarks/suite/run.py --workload bulk-rmat16 --seed 3
    python benchmarks/suite/run.py --smoke              # < 30 s
    python benchmarks/suite/run.py --selfcheck          # two sets must agree
    python benchmarks/suite/run.py --compare A.json B.json

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  ``--seconds`` bounds the measured time (split
evenly over the passes); without it each pass runs the workload's
constant op count, so exact-count rows repeat between runs.

README.md beside this file says why each workload exists and how to
read the output.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, SUITE_DIR)

import compare  # noqa: E402
from harness import (  # noqa: E402
    OUT_DIR,
    PASSES,
    ROOT,
    SETUP_REPEATS,
    SETUP_REPEATS_MAX,
    SETUP_SECONDS,
    Budget,
    SpanLog,
    SuiteError,
    bootstrap,
    metadata,
    pin_environment,
    reap_resource_tracker,
    summarize,
)

SCHEMA = "repro-suite/v1"

#: analysis-engine layer -> module name used in metric names.
LAYER_MODULE = {
    "graph": "graph",
    "frontier": "frontier",
    "operator": "operators",
    "loop": "loop",
    "comm": "comm",
    "resilience": "resilience",
    "service": "service",
    "other": "other",
}


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def detail_path(workload: str, traced: bool) -> str:
    return os.path.join(
        OUT_DIR, f"{workload}.{'traced' if traced else 'untraced'}.json"
    )


# -- one workload ----------------------------------------------------------------------


def _timed_setup(workload, observe: bool = False) -> float:
    t0 = time.perf_counter()
    workload.setup(observe)
    return time.perf_counter() - t0


def _untraced(workload, budget: Budget, passes: int, smoke: bool):
    """Set up repeatedly (the last one stays up), then run the passes.

    A quick set-up is repeated more often than a slow one: the median
    of three 0.4 s set-ups moves with one scheduler hiccup."""
    setup_s = [_timed_setup(workload)]
    while not smoke and (
        len(setup_s) < SETUP_REPEATS
        or (sum(setup_s) < SETUP_SECONDS and len(setup_s) < SETUP_REPEATS_MAX)
    ):
        workload.teardown()
        setup_s.append(_timed_setup(workload))
    results = [workload.run_pass(budget) for _ in range(passes)]
    return setup_s, results


def _traced(workload, budget: Budget, passes: int, spans: SpanLog):
    """One untraced reference pass, then the same ops traced: the suite's
    spans on, the program's probe installed (``--observe`` for a server)."""
    _timed_setup(workload)
    reference = workload.run_pass(budget)
    workload.teardown()
    _timed_setup(workload, observe=True)
    spans.enabled = True
    results = [
        workload.run_pass(budget, traced=True)
        for _ in range(max(1, passes - 1))
    ]
    spans.enabled = False
    return reference, results


def _resources() -> Dict[str, Any]:
    """What a run must hand back: shared-memory segments, child
    processes, threads and file descriptors."""
    return {
        "shm": set(os.listdir("/dev/shm")),
        "children": len(multiprocessing.active_children()),
        "threads": threading.active_count(),
        "fds": len(os.listdir("/proc/self/fd")),
    }


def _hygiene(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "shm_leaked": sorted(after["shm"] - before["shm"]),
        "children_alive": after["children"],
        "threads": [before["threads"], after["threads"]],
        "fds": [before["fds"], after["fds"]],
    }


def run_workload(
    name: str, seed: int, seconds: Optional[float], traced: bool, smoke: bool
) -> Dict[str, Any]:
    """Run one workload in this process; returns its detail document."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    spans = SpanLog(enabled=False)
    try:
        pin_environment(tmp_dir)
        bootstrap()
        from workloads import BY_NAME

        workload = BY_NAME[name](
            seed, smoke=smoke, tmp_dir=tmp_dir, spans=spans
        )
        passes = 1 if smoke else PASSES
        ops = workload.smoke_ops if smoke else workload.ops_per_pass
        budget = (
            Budget(seconds=seconds / passes)
            if seconds is not None
            else Budget(ops=ops)
        )
        meta = metadata(seed)
        meta.update(
            smoke=smoke,
            seconds=seconds,
            passes=passes,
            ops_per_pass=None if seconds is not None else ops,
        )
        before = _resources()
        workload.plan()
        try:
            if traced:
                reference, results = _traced(workload, budget, passes, spans)
                setup_s: List[float] = []
            else:
                setup_s, results = _untraced(workload, budget, passes, smoke)
                reference = None
            rss_mb = workload.peak_rss_mb()
            workload.verify()
        finally:
            workload.teardown()
            reap_resource_tracker()
        detail = _report(
            workload, meta, traced, setup_s, rss_mb, results, reference, spans
        )
        detail["hygiene"] = _hygiene(before, _resources())
        if traced:
            spans.write(os.path.join(OUT_DIR, f"trace-{name}.jsonl"))
        with open(detail_path(name, traced), "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True)
        return detail
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def _report(workload, meta, traced, setup_s, rss_mb, results, reference, spans):
    summary = summarize(results)
    attempted = sum(len(p.op_ms) for p in results)
    failed = sum(p.failed for p in results) + workload.oracle_failures
    if reference is not None:
        attempted += len(reference.op_ms)
        failed += reference.failed
    invalid = workload.timings_valid()
    detail: Dict[str, Any] = {
        "schema": SCHEMA,
        "workload": workload.name,
        "why": workload.why,
        "traced": traced,
        "meta": meta,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "oracle_checks": workload.oracle_checks,
        "op_ms_p95": summary["op_ms_p95"],
        "counts": workload.counts,
        "rows": workload.rows,
    }
    if not traced:
        metrics = {
            "setup_s": {
                "value": statistics.median(setup_s),
                "unit": "s",
                "passes": setup_s,
            },
            "op_ms_p50": summary["op_ms_p50"],
            "ops_per_s": summary["ops_per_s"],
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        if invalid is not None:
            for key in ("setup_s", "op_ms_p50", "ops_per_s"):
                metrics[key] = {
                    "value": None,
                    "unit": metrics[key]["unit"],
                    "reason": invalid,
                }
        detail["end_to_end"] = metrics
    else:
        detail["per_layer"] = _per_layer(workload, summary, reference)
        detail["calls"] = spans.call_ms()
    return detail


def _per_layer(workload, summary, reference) -> Dict[str, Dict[str, Any]]:
    split = workload.split
    ops = max(1, split.ops)
    out: Dict[str, Dict[str, Any]] = {}
    for layer, module in LAYER_MODULE.items():
        out[f"{module}.self_ms"] = {
            "value": split.layers.get(layer, 0.0) / ops * 1e3,
            "unit": "ms",
            "samples": split.ops,
        }
    out["observability.unattributed_pct"] = {
        "value": 100.0 * split.untraced / split.wall if split.wall else 0.0,
        "unit": "%",
        "base": "traced wall time that no span of the program covers",
    }
    untraced_p50 = statistics.median(reference.op_ms)
    out["observability.trace_overhead_pct"] = {
        "value": 100.0 * (summary["op_ms_p50"]["value"] / untraced_p50 - 1.0),
        "unit": "%",
        "base": f"traced op_ms_p50 / untraced {untraced_p50:.4f} ms - 1",
    }
    supersteps = workload.counts.get("loop.supersteps") or [0]
    out["loop.supersteps"] = {
        "value": statistics.mean(supersteps),
        "unit": "count",
        "per_op": supersteps,
    }
    return out


def contract_line(detail: Dict[str, Any]) -> str:
    """The driver's last line: exactly the declared metrics."""
    metrics = detail["per_layer" if detail["traced"] else "end_to_end"]
    return json.dumps(
        {
            "correct": detail["ops_failed"] == 0,
            "attempted": detail["ops_attempted"],
            "failed": detail["ops_failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in metrics.items()
            },
        }
    )


def print_detail(detail: Dict[str, Any]) -> None:
    name = detail["workload"]
    print(
        f"{name}: ops_attempted={detail['ops_attempted']} "
        f"ops_failed={detail['ops_failed']} "
        f"oracle_checks={detail['oracle_checks']}"
    )
    sections = ("per_layer", "calls", "rows") if detail["traced"] else ("end_to_end", "rows")
    for section in sections:
        for metric, m in detail[section].items():
            extra = f"  (n={m['samples']})" if "samples" in m else ""
            if m.get("reason"):
                extra += f"  [{m['reason']}]"
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name} {metric} = {value} {m['unit']}{extra}")
    p95 = detail["op_ms_p95"]
    print(f"  {name} op_ms_p95 = {p95['value']:.6g} ms  (n={p95['samples']}, diagnostic)")
    for key, value in detail["counts"].items():
        print(f"  {name} {key} = {json.dumps(value)}  (exact count)")


# -- the whole set ---------------------------------------------------------------------


def _child(arguments: List[str]) -> None:
    command = [sys.executable, os.path.abspath(__file__)] + arguments
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    # A workload's own lines, minus the driver's JSON line.
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1] if proc.returncode in (0, 1) else lines))
    if proc.returncode not in (0, 1):
        raise SuiteError(f"{' '.join(arguments)} exited {proc.returncode}")


def run_all(args) -> Dict[str, Any]:
    """Every workload, each in its own process so peak RSS is its own."""
    from workloads import WORKLOADS

    names = [cls.name for cls in WORKLOADS]
    document: Dict[str, Any] = {"schema": SCHEMA, "workloads": {}}
    common = ["--seed", str(args.seed)]
    if args.seconds is not None:
        common += ["--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    for name in names:
        modes = [False, True] if args.trace else [False]
        entry: Dict[str, Any] = {}
        for traced in modes:
            _child(["--workload", name, "--trace", str(int(traced))] + common)
            with open(detail_path(name, traced), "r", encoding="utf-8") as fh:
                detail = json.load(fh)
            entry["traced" if traced else "untraced"] = detail
        meta = document.setdefault(
            "meta", {**entry["untraced"]["meta"], "ops_per_pass": {}}
        )
        meta["ops_per_pass"][name] = entry["untraced"]["meta"]["ops_per_pass"]
        document["workloads"][name] = entry
    if args.trace:
        _child(["--layers"] + common)
        with open(os.path.join(OUT_DIR, "layers.json"), "r", encoding="utf-8") as fh:
            document["layers"] = json.load(fh)
    return document


def ops_failed(document: Dict[str, Any]) -> int:
    return sum(
        detail["ops_failed"]
        for entry in document["workloads"].values()
        for detail in entry.values()
    )


def print_summary(document: Dict[str, Any]) -> None:
    print("\nend-to-end (untraced run)")
    for name, entry in document["workloads"].items():
        detail = entry["untraced"]
        cells = []
        for metric, m in detail["end_to_end"].items():
            value = "null" if m["value"] is None else f"{m['value']:.5g}"
            cells.append(f"{metric}={value}{m['unit']}")
        print(
            f"  {name:22s} {' '.join(cells)} "
            f"ops_attempted={detail['ops_attempted']} "
            f"ops_failed={detail['ops_failed']}"
        )


def selfcheck(args) -> int:
    """Two complete sets of one commit must agree within each bound."""
    first = run_all(args)
    second = run_all(args)
    rows = compare.end_to_end_rows(first, second, load_contract())
    compare.print_rows(rows)
    # Neither set is the better one: a difference in either direction
    # beyond the bound means the suite does not repeat.
    apart = [
        r
        for r in rows
        if r["ratio"] is not None and abs(r["ratio"] - 1.0) > r["bound"]
    ]
    counts = compare.count_mismatches(first, second)
    for line in counts:
        print(f"exact count differs: {line}")
    failed = ops_failed(first) + ops_failed(second)
    print(
        f"selfcheck: {len(rows) - len(apart)}/{len(rows)} end-to-end values "
        f"agree within their bound, {len(counts)} exact counts differ, "
        f"ops_failed={failed}"
    )
    return 1 if apart or counts or failed else 0


# -- command line ----------------------------------------------------------------------


def parse_args(argv: Optional[List[str]] = None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload (default: all seven)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--seconds",
        type=float,
        help="measure for this long instead of the constant op counts",
    )
    p.add_argument(
        "--trace",
        nargs="?",
        type=int,
        choices=(0, 1),
        const=1,
        default=0,
        help="also (with --workload: only) do the traced run for layer rows",
    )
    p.add_argument("--smoke", action="store_true", help="tiny graphs, 1 pass")
    p.add_argument("--json", metavar="PATH", help="write the result document")
    p.add_argument("--layers", action="store_true", help="only the layer rows")
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], load_contract())
    bootstrap()
    if args.workload:
        from workloads import BY_NAME

        if args.workload not in BY_NAME:
            raise SuiteError(
                f"unknown workload {args.workload!r}; one of {sorted(BY_NAME)}"
            )
        detail = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
        print_detail(detail)
        print(contract_line(detail))
        return 0 if detail["ops_failed"] == 0 else 1
    if args.layers:
        import layers

        return layers.main(args.seed, args.smoke)
    if args.selfcheck:
        return selfcheck(args)
    document = run_all(args)
    print_summary(document)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
    return 1 if ops_failed(document) else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SuiteError as exc:
        print(f"suite: {exc}", file=sys.stderr)
        sys.exit(2)
