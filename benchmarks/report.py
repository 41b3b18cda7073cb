#!/usr/bin/env python
"""Render benchmark results: pytest-benchmark tables and the trajectory.

Usage:
    pytest benchmarks/ --benchmark-only --benchmark-json=results.json
    python benchmarks/report.py results.json       # per-experiment tables
    python benchmarks/report.py --json BENCH_PR2.json   # write a trajectory entry
    python benchmarks/report.py --check BENCH_PR2.json  # schema-validate one
    python benchmarks/report.py --trajectory            # render all BENCH_*.json
    python benchmarks/report.py --compare BENCH_PR3.json BENCH_PR4.json
                                                        # regression gate (exit 1)

Tables: groups map to DESIGN.md experiment ids (T1, L1-L4, P1-P4, F1-F2,
A1, ablations); within each group rows are sorted fastest-first and shown
with the slowdown relative to the group's best — the "who wins, by what
factor" shape EXPERIMENTS.md records.

Trajectory: each PR commits a ``BENCH_PRn.json`` file — a small, seeded,
probe-instrumented workload sweep — so performance across the PR stack
can be compared from the files alone.  ``--json`` produces the entry for
this checkout, ``--check`` is the CI well-formedness gate,
``--trajectory`` renders every committed entry side by side, and
``--compare`` runs the regression gate between two entries (exit 1 on
regression — what CI runs against the previous PR's entry).
"""

from __future__ import annotations

import glob
import json
import os
import sys
import time
from collections import defaultdict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCH_SCHEMA = "repro-bench-trajectory/v1"

GROUP_TITLES = {
    "L1": "Listing 1 — graph API over sparse formats",
    "L2": "Listing 2 — frontier representations",
    "L3": "Listing 3 — neighbor-expand policy overloads",
    "L4": "Listing 4 — complete SSSP vs baselines",
    "P1": "Pillar 1 (Timing) — BSP vs async",
    "P2": "Pillar 2 (Communication) — shared memory vs messages",
    "P3": "Pillar 3 (Execution model) — push vs pull",
    "P4": "Pillar 4 (Partitioning) — heuristic cost",
    "F1": "Frontier representation crossover",
    "F2": "Load-balancing schedules",
    "A1": "Algorithm suite",
    "R1": "Resilience — checkpoint overhead by interval",
    "R2": "Resilience — retry scaffolding cost",
    "O1": "Observability — probe overhead (disabled/metrics/trace)",
    "ablation": "Ablations",
}


def experiment_of(group: str) -> str:
    for key in GROUP_TITLES:
        if group.startswith(key):
            return key
    return "other"


def load_rows(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    rows = defaultdict(list)
    for bench in data.get("benchmarks", []):
        group = bench.get("group") or "ungrouped"
        rows[group].append((bench["name"], bench["stats"]["mean"]))
    return rows


def render(rows) -> str:
    out = []
    by_experiment = defaultdict(list)
    for group in sorted(rows):
        by_experiment[experiment_of(group)].append(group)
    for exp in GROUP_TITLES:
        groups = by_experiment.get(exp)
        if not groups:
            continue
        out.append("")
        out.append("=" * 78)
        out.append(f"{exp}: {GROUP_TITLES[exp]}")
        out.append("=" * 78)
        for group in groups:
            entries = sorted(rows[group], key=lambda r: r[1])
            best = entries[0][1]
            out.append(f"\n  [{group}]")
            out.append(
                f"  {'benchmark':<52} {'mean':>12} {'vs best':>9}"
            )
            for name, mean in entries:
                ratio = mean / best if best > 0 else float("inf")
                out.append(
                    f"  {name:<52} {mean * 1e3:>9.3f} ms {ratio:>8.2f}x"
                )
    leftovers = by_experiment.get("other", [])
    for group in leftovers:
        out.append(f"\n  [{group}] (uncategorized)")
        for name, mean in sorted(rows[group], key=lambda r: r[1]):
            out.append(f"  {name:<52} {mean * 1e3:>9.3f} ms")
    return "\n".join(out)


# -- trajectory entries (BENCH_PRn.json) -----------------------------------------------

#: The seeded workload sweep a trajectory entry records.  Small enough
#: for a CI commit check, broad enough to cover the BSP, priority,
#: asynchronous, and message-passing timing models.
TRAJECTORY_WORKLOADS = [
    {"name": "sssp_grid", "algorithm": "sssp", "scale": 12},
    {"name": "sssp_delta_grid", "algorithm": "sssp_delta", "scale": 12},
    {"name": "bfs_grid", "algorithm": "bfs", "scale": 12},
    {"name": "pagerank_grid", "algorithm": "pagerank", "scale": 10},
    {"name": "pregel_pagerank_grid", "algorithm": "pregel_pagerank", "scale": 8},
]


def _bootstrap_repro() -> None:
    """Make ``repro`` importable when run from a plain checkout."""
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


#: Trials per workload when collecting a trajectory entry.  MTEPS is a
#: *throughput capacity* metric; a single run of these millisecond-scale
#: workloads is dominated by scheduler noise and first-call
#: initialization on a shared machine, so each workload runs
#: ``TRAJECTORY_TRIALS`` times and the entry keeps the fastest run —
#: the least-contaminated estimate of steady state.  The kept run's
#: ``trials`` field records the count for provenance.
TRAJECTORY_TRIALS = 5


def collect_entry(label: str = "", trials: int = TRAJECTORY_TRIALS) -> dict:
    """Run the trajectory workloads under the probe; return the entry.

    Each workload is measured ``trials`` times on a fresh seeded graph
    and the fastest run is recorded (see :data:`TRAJECTORY_TRIALS`).
    """
    _bootstrap_repro()
    import numpy as np

    from repro.graph import generators as gen
    from repro.observability.profile import profile_algorithm

    workloads = []
    for spec in TRAJECTORY_WORKLOADS:
        side = int(np.sqrt(1 << spec["scale"]))
        best = None
        for _ in range(max(1, trials)):
            graph = gen.grid_2d(side, side, weighted=True, seed=0)
            report = profile_algorithm(graph, spec["algorithm"])
            entry = report.summary_metrics()
            if best is None or entry["seconds"] < best["seconds"]:
                best = entry
        best["name"] = spec["name"]
        best["scale"] = spec["scale"]
        best["trials"] = max(1, trials)
        workloads.append(best)
    entry = {
        "schema": BENCH_SCHEMA,
        "label": label,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": workloads,
    }
    _ledger_entry(entry)
    return entry


def _ledger_entry(entry: dict) -> None:
    """Best-effort run-ledger record of a trajectory collection.

    Stores the workload sweep under ``metrics.workloads`` — the shape
    ``repro diff`` compares directly against another benchmark record or
    a committed ``BENCH_*.json``.
    """
    from repro.observability import ledger as ledger_mod

    if not ledger_mod.ledger_enabled():
        return
    record = ledger_mod.make_record(
        kind="benchmark",
        algorithm="trajectory",
        label=entry.get("label", ""),
        metrics={"workloads": entry["workloads"]},
    )
    try:
        run_id = ledger_mod.RunLedger().append(record)
    except OSError:
        return
    print(f"ledger: {run_id}", file=sys.stderr)


def check_entry(entry) -> list:
    """Well-formedness problems of one trajectory entry (empty = valid)."""
    problems = []
    if not isinstance(entry, dict):
        return [f"entry must be an object, got {type(entry).__name__}"]
    if entry.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema {entry.get('schema')!r} != {BENCH_SCHEMA!r}"
        )
    workloads = entry.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        return problems + ["workloads must be a non-empty list"]
    for i, w in enumerate(workloads):
        where = f"workloads[{i}]"
        if not isinstance(w, dict):
            problems.append(f"{where} is not an object")
            continue
        for key in ("name", "algorithm", "seconds", "n_vertices", "n_edges"):
            if key not in w:
                problems.append(f"{where} missing {key!r}")
        seconds = w.get("seconds")
        if not isinstance(seconds, (int, float)) or seconds < 0:
            problems.append(f"{where} seconds must be a non-negative number")
    return problems


def trajectory_files() -> list:
    """Committed BENCH_*.json entries, repo root then benchmarks/."""
    found = []
    for base in (REPO_ROOT, os.path.join(REPO_ROOT, "benchmarks")):
        found.extend(sorted(glob.glob(os.path.join(base, "BENCH_*.json"))))
    return found


def render_trajectory(paths) -> str:
    """Side-by-side seconds per workload across all trajectory entries."""
    entries = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            entries.append((os.path.basename(path), json.load(fh)))
    if not entries:
        return "no BENCH_*.json trajectory entries found"
    names = []
    for _, entry in entries:
        for w in entry.get("workloads", []):
            if w.get("name") not in names:
                names.append(w.get("name"))
    out = [
        f"{'workload':<24} " + " ".join(f"{label:>18}" for label, _ in entries)
    ]
    out.append("-" * (25 + 19 * len(entries)))
    for name in names:
        cells = []
        for _, entry in entries:
            match = next(
                (w for w in entry.get("workloads", []) if w.get("name") == name),
                None,
            )
            cells.append(
                f"{match['seconds'] * 1e3:>15.1f} ms" if match else f"{'—':>18}"
            )
        out.append(f"{name:<24} " + " ".join(cells))
    return "\n".join(out)


def main(argv=None) -> int:
    argv = list(argv if argv is not None else sys.argv[1:])
    if argv and argv[0] == "--json":
        if len(argv) != 2:
            print("usage: report.py --json OUT.json", file=sys.stderr)
            return 2
        entry = collect_entry(
            label=os.path.splitext(os.path.basename(argv[1]))[0]
        )
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {argv[1]} ({len(entry['workloads'])} workloads)")
        return 0
    if argv and argv[0] == "--check":
        if len(argv) != 2:
            print("usage: report.py --check BENCH_PRn.json", file=sys.stderr)
            return 2
        try:
            with open(argv[1], "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{argv[1]}: unreadable ({exc})", file=sys.stderr)
            return 1
        problems = check_entry(entry)
        for p in problems:
            print(f"{argv[1]}: {p}", file=sys.stderr)
        if not problems:
            print(f"{argv[1]}: ok")
        return 1 if problems else 0
    if argv and argv[0] == "--trajectory":
        print(render_trajectory(trajectory_files()))
        return 0
    if argv and argv[0] == "--compare":
        threshold = None
        if "--threshold" in argv:
            i = argv.index("--threshold")
            try:
                threshold = float(argv[i + 1])
            except (IndexError, ValueError):
                print("--threshold requires a number", file=sys.stderr)
                return 2
            del argv[i : i + 2]
        if len(argv) != 3:
            print(
                "usage: report.py --compare BASELINE.json CANDIDATE.json "
                "[--threshold X]",
                file=sys.stderr,
            )
            return 2
        _bootstrap_repro()
        from repro.observability.regression import (
            DEFAULT_THRESHOLD,
            compare,
            load_comparable,
        )

        try:
            baseline = load_comparable(argv[1])
            candidate = load_comparable(argv[2])
            report = compare(
                baseline,
                candidate,
                threshold=threshold if threshold is not None else DEFAULT_THRESHOLD,
                baseline_label=os.path.basename(argv[1]),
                candidate_label=os.path.basename(argv[2]),
            )
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            print(f"--compare: {exc}", file=sys.stderr)
            return 2
        print(report.render())
        return report.exit_code()
    if len(argv) != 1:
        print(__doc__)
        return 2
    print(render(load_rows(argv[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
