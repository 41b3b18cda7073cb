"""The run ledger: append-only machine-checkable performance history.

Every ``repro run`` and ``repro profile`` appends one JSON line to
``.repro/runs/ledger.jsonl`` — config, environment, headline metrics,
per-superstep summaries, and (when spans were collected) the analysis
engine's attribution — so ``repro explain <run id>`` can answer "where
did this run spend its time?" months later, without re-reading Chrome
traces.

The ledger is *append-only*: records are never rewritten, a run id
never changes meaning, and corrupt lines are skipped on read (a crashed
writer cannot poison history).  The directory is chosen by (in order)
an explicit argument, the ``REPRO_LEDGER_DIR`` environment variable,
and the default ``.repro/runs`` under the current working directory;
setting ``REPRO_LEDGER=0`` disables recording entirely.
"""

from __future__ import annotations

import json
import os
import platform
import time
import uuid
from typing import Any, Dict, Iterator, List, Optional

#: Schema tag stamped into every ledger record.
LEDGER_SCHEMA = "repro-run-ledger/v1"

#: Default ledger location (relative to the working directory).
DEFAULT_LEDGER_DIR = os.path.join(".repro", "runs")

#: Per-superstep rows kept verbatim in a record; longer runs keep the
#: head and a rollup so ledger lines stay bounded.
MAX_SUPERSTEP_ROWS = 512


def ledger_enabled() -> bool:
    """Whether recording is enabled (``REPRO_LEDGER=0`` disables)."""
    return os.environ.get("REPRO_LEDGER", "1") != "0"


def resolve_ledger_dir(explicit: Optional[str] = None) -> str:
    """The ledger directory: explicit arg > env var > default."""
    if explicit:
        return explicit
    return os.environ.get("REPRO_LEDGER_DIR") or DEFAULT_LEDGER_DIR


def new_run_id() -> str:
    """A unique, sortable run id: ``r<utc-timestamp>-<random>``."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"r{stamp}-{uuid.uuid4().hex[:6]}"


def capture_environment() -> Dict[str, Any]:
    """The environment fields a record carries for later comparability."""
    env: Dict[str, Any] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
    }
    try:
        import numpy

        env["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    return env


def summarize_supersteps(stats) -> List[Dict[str, Any]]:
    """Per-superstep summaries from a :class:`RunStats` (bounded).

    Keeps up to :data:`MAX_SUPERSTEP_ROWS` rows; longer runs keep the
    head and append a rollup row (``type: "rollup"``) with the elided
    totals, so truncation is always visible in the record itself.
    """
    if stats is None:
        return []
    rows = [
        {
            "iteration": it.iteration,
            "frontier_size": it.frontier_size,
            "edges_touched": it.edges_touched,
            "seconds": it.seconds,
        }
        for it in stats.iterations
    ]
    if len(rows) <= MAX_SUPERSTEP_ROWS:
        return rows
    kept = rows[:MAX_SUPERSTEP_ROWS]
    rest = rows[MAX_SUPERSTEP_ROWS:]
    kept.append(
        {
            "type": "rollup",
            "elided": len(rest),
            "edges_touched": sum(r["edges_touched"] for r in rest),
            "seconds": sum(r["seconds"] for r in rest),
        }
    )
    return kept


def make_record(
    *,
    kind: str,
    algorithm: str,
    config: Optional[Dict[str, Any]] = None,
    metrics: Optional[Dict[str, Any]] = None,
    stats=None,
    analysis: Optional[Dict[str, Any]] = None,
    label: str = "",
) -> Dict[str, Any]:
    """Assemble one ledger record (pure; nothing is written)."""
    return {
        "schema": LEDGER_SCHEMA,
        "run_id": new_run_id(),
        "kind": kind,
        "algorithm": algorithm,
        "label": label,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": dict(config or {}),
        "environment": capture_environment(),
        "metrics": dict(metrics or {}),
        "supersteps": summarize_supersteps(stats),
        "analysis": analysis,
    }


class RunLedger:
    """Reader/appender for one ledger file.

    Parameters
    ----------
    root:
        Ledger directory (see :func:`resolve_ledger_dir`).  Created on
        first append, not on construction — instantiating a ledger to
        *read* never touches the filesystem.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = resolve_ledger_dir(root)
        self.path = os.path.join(self.root, "ledger.jsonl")
        #: Unparseable/garbage lines skipped by the most recent read
        #: pass (:meth:`records` resets it each time).  Skipping keeps a
        #: crashed writer from poisoning history, but the tolerance must
        #: not be silent — readers surface this count.
        self.skipped_lines = 0

    # -- writing -----------------------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> str:
        """Append one record; returns its run id."""
        if record.get("schema") != LEDGER_SCHEMA:
            raise ValueError(
                f"record schema {record.get('schema')!r} != {LEDGER_SCHEMA!r}"
            )
        run_id = record.get("run_id")
        if not run_id:
            raise ValueError("record has no run_id")
        os.makedirs(self.root, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return str(run_id)

    # -- reading -----------------------------------------------------------------------

    def records(self) -> Iterator[Dict[str, Any]]:
        """All parseable records, oldest first.

        Corrupt lines (truncated writes, non-JSON garbage, records with
        no run id) are skipped, counted in :attr:`skipped_lines`, and
        mirrored to the ambient probe as the ``ledger.corrupt_lines``
        counter — tolerated, never hidden.
        """
        self.skipped_lines = 0
        if not os.path.exists(self.path):
            return
        skipped = 0
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        skipped += 1
                        self.skipped_lines = skipped
                        continue
                    if isinstance(record, dict) and record.get("run_id"):
                        yield record
                    else:
                        skipped += 1
                        self.skipped_lines = skipped
        finally:
            if skipped:
                from repro.observability.probe import active_probe

                probe = active_probe()
                if probe.enabled:
                    probe.counter("ledger.corrupt_lines", skipped)

    def tail(self, n: int = 10) -> List[Dict[str, Any]]:
        """The most recent ``n`` records, oldest first."""
        return list(self.records())[-n:]

    def get(self, run_id: str) -> Optional[Dict[str, Any]]:
        """The record with the given id; unique prefixes also match
        (``repro explain r20260806`` works like an abbreviated git sha).
        Service query records additionally match on their ``qid`` field,
        so ``repro explain q1234-000007`` resolves the id a query
        response reported.  Returns ``None`` when absent or ambiguous."""
        exact = None
        prefixed: List[Dict[str, Any]] = []
        for record in self.records():
            ids = [str(record["run_id"])]
            qid = record.get("qid")
            if qid:
                ids.append(str(qid))
            if run_id in ids:
                exact = record  # last exact match wins (append-only)
            elif any(i.startswith(run_id) for i in ids):
                prefixed.append(record)
        if exact is not None:
            return exact
        if len(prefixed) == 1:
            return prefixed[0]
        return None

    def latest(self, kind: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """The most recent record (optionally of one kind)."""
        found = None
        for record in self.records():
            if kind is None or record.get("kind") == kind:
                found = record
        return found

    def __len__(self) -> int:
        return sum(1 for _ in self.records())
