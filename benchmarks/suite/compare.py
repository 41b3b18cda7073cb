"""``run.py --compare A.json B.json``: B judged against A.

One row per workload x end-to-end metric with both medians, the ratio
with its base, the bound from ``BENCHMARK.json`` and a verdict:

``ok``          B is no worse than A by more than the bound;
``regressed``   it is;
``unresolved``  it is not, but the passes of one side spread wider than
                the bound, so "unchanged" cannot be claimed either.

Layer rows follow as plain deltas: they explain a move, they do not gate.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, Iterator, List, Tuple


def _spread(metric: Dict[str, Any]) -> float:
    """Spread of a metric's passes as a share of their median: the full
    range of three passes, the interquartile range of more (set-up
    repeats, whose first one also pays the lazy imports)."""
    passes = [p for p in metric.get("passes") or [] if p is not None]
    if len(passes) < 2:
        return 0.0
    if len(passes) > 3:
        q1, _, q3 = statistics.quantiles(passes, n=4)
    else:
        q1, q3 = min(passes), max(passes)
    middle = statistics.median(passes)
    return (q3 - q1) / middle if middle else 0.0


def end_to_end_rows(
    a: Dict[str, Any], b: Dict[str, Any], contract: Dict[str, Any]
) -> List[Dict[str, Any]]:
    rows = []
    for name, entry in a["workloads"].items():
        other = b["workloads"].get(name)
        if other is None:
            continue
        for declared in contract["end_to_end"]:
            metric = declared["name"]
            ma = entry["untraced"]["end_to_end"][metric]
            mb = other["untraced"]["end_to_end"][metric]
            row = {
                "workload": name,
                "metric": metric,
                "unit": declared["unit"],
                "a": ma["value"],
                "b": mb["value"],
                "bound": declared["bound"],
            }
            if ma["value"] is None or mb["value"] is None:
                row.update(ratio=None, worse=None, verdict="unresolved")
                rows.append(row)
                continue
            ratio = mb["value"] / ma["value"]
            worse = ratio - 1.0 if declared["better"] == "lower" else 1.0 - ratio
            spread = max(_spread(ma), _spread(mb))
            if worse > declared["bound"]:
                verdict = "regressed"
            elif spread > declared["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            row.update(ratio=ratio, worse=worse, spread=spread, verdict=verdict)
            rows.append(row)
    return rows


def count_mismatches(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Exact-count rows that differ between two sets of one seed."""
    out = []
    for name, entry in a["workloads"].items():
        for section, detail in entry.items():
            other = b["workloads"][name][section]["counts"]
            for key, value in detail["counts"].items():
                if other.get(key) != value:
                    out.append(f"{name}/{section}/{key}: {value} != {other.get(key)}")
    return out


def print_rows(rows: List[Dict[str, Any]]) -> None:
    print(
        f"{'workload':22s} {'metric':12s} {'A':>12s} {'B':>12s} "
        f"{'B/A':>8s} {'bound':>6s}  verdict"
    )
    for r in rows:
        if r["ratio"] is None:
            print(
                f"{r['workload']:22s} {r['metric']:12s} {'null':>12s} "
                f"{'null':>12s} {'-':>8s} {r['bound']:6.2f}  {r['verdict']}"
            )
            continue
        print(
            f"{r['workload']:22s} {r['metric']:12s} {r['a']:12.5g} "
            f"{r['b']:12.5g} {r['ratio']:8.4f} {r['bound']:6.2f}  "
            f"{r['verdict']}"
            + (f" (pass spread {r['spread']:.1%})" if r["verdict"] == "unresolved" else "")
        )


def _layer_values(document: Dict[str, Any]) -> Iterator[Tuple[str, Any, str]]:
    for name, row in (document.get("layers") or {}).items():
        yield name, row.get("value"), row.get("unit", "")
    for workload, entry in document["workloads"].items():
        for section, detail in entry.items():
            groups = ["rows"] + (["per_layer", "calls"] if section == "traced" else [])
            for group in groups:
                for name, row in (detail.get(group) or {}).items():
                    yield (
                        f"{workload}/{section}/{name}",
                        row.get("value"),
                        row.get("unit", ""),
                    )


def print_layer_deltas(a: Dict[str, Any], b: Dict[str, Any]) -> None:
    theirs = {name: value for name, value, _ in _layer_values(b)}
    print("\nlayer rows (B vs A; base is A)")
    for name, value, unit in _layer_values(a):
        other = theirs.get(name)
        if not isinstance(value, (int, float)) or not isinstance(other, (int, float)):
            continue
        delta = f"{(other / value - 1.0):+.1%}" if value else "n/a"
        print(f"  {name:64s} {value:12.5g} -> {other:12.5g} {unit:6s} {delta}")


def main(path_a: str, path_b: str, contract: Dict[str, Any]) -> int:
    with open(path_a, "r", encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, "r", encoding="utf-8") as fh:
        b = json.load(fh)
    for label, doc in (("A", a), ("B", b)):
        meta = doc.get("meta", {})
        print(
            f"{label}: sha={meta.get('git_sha')} seed={meta.get('seed')} "
            f"cores={meta.get('cores')} workers={meta.get('workers')} "
            f"loadavg_1m={meta.get('loadavg_1m')}"
        )
    rows = end_to_end_rows(a, b, contract)
    print_rows(rows)
    print_layer_deltas(a, b)
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0
