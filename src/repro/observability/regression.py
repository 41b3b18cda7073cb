"""The performance-regression gate: compare two runs, exit nonzero on loss.

Compares workload timings between any two of:

* trajectory entries (schema ``repro-bench-trajectory/v1``, e.g. the
  service soak's ``--json`` output — each workload's ``seconds`` is
  already a best-of-n statistic, recorded in its ``trials`` field);
* run-ledger records (schema ``repro-run-ledger/v1``);
* raw dicts of the same shapes (what the tests construct).

The comparison is deliberately the one benchmark farms actually hold
up under: each side's number is the *minimum* over its trials (the
least-noise-contaminated estimate of steady state), and a workload
regresses when the candidate is more than ``threshold`` relatively
slower than the baseline *and* slower by more than ``min_seconds``
absolutely (sub-noise-floor workloads cannot flag).  Improvements are reported symmetrically but
never fail the gate.

Used by ``repro diff``.  The benchmark suite's own gate is
``benchmarks/suite/run.py --compare``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Default relative slowdown that counts as a regression (25% — CI
#: compares entries collected in separate sessions of a shared machine,
#: so single-digit percentages would gate on noise).
DEFAULT_THRESHOLD = 0.25

#: Absolute noise floor: a workload must be at least this much slower
#: in absolute seconds to flag (guards microsecond-scale workloads).
DEFAULT_MIN_SECONDS = 0.0005


@dataclass
class WorkloadComparison:
    """One workload's baseline-vs-candidate verdict."""

    name: str
    baseline_seconds: float
    candidate_seconds: float
    regressed: bool
    improved: bool
    trials: Optional[int] = None

    @property
    def ratio(self) -> float:
        """candidate / baseline (>1 = slower)."""
        if self.baseline_seconds <= 0:
            return float("inf") if self.candidate_seconds > 0 else 1.0
        return self.candidate_seconds / self.baseline_seconds


@dataclass
class RegressionReport:
    """All comparisons plus the gate verdict."""

    comparisons: List[WorkloadComparison]
    threshold: float
    baseline_label: str = "baseline"
    candidate_label: str = "candidate"
    missing: Optional[List[str]] = None

    @property
    def regressions(self) -> List[WorkloadComparison]:
        return [c for c in self.comparisons if c.regressed]

    @property
    def improvements(self) -> List[WorkloadComparison]:
        return [c for c in self.comparisons if c.improved]

    def exit_code(self) -> int:
        """0 = gate passes, 1 = at least one regression."""
        return 1 if self.regressions else 0

    def render(self) -> str:
        """The comparison table plus the gate verdict line."""
        out: List[str] = []
        out.append(
            f"{self.baseline_label} -> {self.candidate_label} "
            f"(threshold {self.threshold:.0%})"
        )
        out.append(
            f"  {'workload':<24} {'baseline':>12} {'candidate':>12} "
            f"{'ratio':>8}  verdict"
        )
        for c in self.comparisons:
            if c.regressed:
                verdict = "REGRESSED"
            elif c.improved:
                verdict = "improved"
            else:
                verdict = "ok"
            out.append(
                f"  {c.name:<24} {c.baseline_seconds * 1e3:>9.3f} ms "
                f"{c.candidate_seconds * 1e3:>9.3f} ms {c.ratio:>7.2f}x"
                f"  {verdict}"
            )
        for name in self.missing or []:
            out.append(f"  {name:<24} (not present on both sides, skipped)")
        if self.regressions:
            worst = max(self.regressions, key=lambda c: c.ratio)
            out.append(
                f"REGRESSION: {len(self.regressions)} workload(s) exceed the "
                f"{self.threshold:.0%} threshold (worst: {worst.name} at "
                f"{worst.ratio:.2f}x)"
            )
        else:
            out.append("gate passed: no workload regressed")
        return "\n".join(out)


# -- input normalization ---------------------------------------------------------------


def workloads_of(obj: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Extract ``name -> {seconds, trials}`` from any supported shape.

    Trajectory entries contribute every workload; a ledger record
    contributes either its embedded trajectory workloads (benchmark
    runs) or one workload named after its algorithm.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object, got {type(obj).__name__}")
    schema = obj.get("schema", "")
    if isinstance(obj.get("workloads"), list):
        out = {}
        for w in obj["workloads"]:
            if isinstance(w, dict) and "name" in w and "seconds" in w:
                out[str(w["name"])] = {
                    "seconds": float(w["seconds"]),
                    "trials": w.get("trials"),
                }
        if out:
            return out
        raise ValueError("workloads list carries no (name, seconds) pairs")
    if schema.startswith("repro-run-ledger"):
        metrics = obj.get("metrics", {})
        if isinstance(metrics.get("workloads"), list):
            return workloads_of({"workloads": metrics["workloads"]})
        seconds = metrics.get("seconds")
        if not isinstance(seconds, (int, float)):
            raise ValueError(
                f"ledger record {obj.get('run_id')!r} has no "
                f"metrics.seconds to compare"
            )
        name = obj.get("algorithm") or "run"
        return {str(name): {"seconds": float(seconds), "trials": 1}}
    raise ValueError(
        f"unrecognized comparison input (schema {schema!r}); expected a "
        f"trajectory entry or a ledger record"
    )


def load_comparable(path: str) -> Dict[str, Any]:
    """Load a comparison side from a JSON file (trajectory entry or a
    single-record JSON dump of a ledger record)."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- the gate --------------------------------------------------------------------------


def compare(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    baseline_label: str = "baseline",
    candidate_label: str = "candidate",
) -> RegressionReport:
    """Compare two runs/entries workload by workload."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    base = workloads_of(baseline)
    cand = workloads_of(candidate)
    shared = [name for name in base if name in cand]
    missing = sorted(
        (set(base) | set(cand)) - set(shared)
    )
    comparisons = []
    for name in shared:
        b = base[name]["seconds"]
        c = cand[name]["seconds"]
        slower = c - b
        regressed = (
            b > 0
            and c / b > 1.0 + threshold
            and slower > min_seconds
        )
        improved = b > 0 and c / b < 1.0 - threshold and (b - c) > min_seconds
        comparisons.append(
            WorkloadComparison(
                name=name,
                baseline_seconds=b,
                candidate_seconds=c,
                regressed=regressed,
                improved=improved,
                trials=cand[name].get("trials") or base[name].get("trials"),
            )
        )
    return RegressionReport(
        comparisons=comparisons,
        threshold=threshold,
        baseline_label=baseline_label,
        candidate_label=candidate_label,
        missing=missing,
    )
