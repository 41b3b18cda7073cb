"""Command-line interface: ``repro <command>``.

Gives the library a shell-usable surface, mirroring the driver binaries
GPU graph frameworks ship:

* ``repro generate`` — synthesize a seeded graph to any supported format;
* ``repro info``     — structural summary of a graph file;
* ``repro convert``  — transcode between graph file formats;
* ``repro run``      — run an algorithm and print (or save) results;
* ``repro profile``  — run an algorithm under the observability probe and
  export traces (Chrome/Perfetto), event logs (JSONL), or a summary;
* ``repro explain``  — trace analysis: critical path, per-layer time
  attribution, worker imbalance, frontier timeline, diagnosis — from a
  trace file or a run-ledger id;
* ``repro ledger``   — list or show run-ledger records (every ``run``/
  ``profile`` appends one under ``.repro/runs/``);
* ``repro partition``— partition and report quality metrics;
* ``repro stream``   — replay a windowed edge stream against a dynamic
  graph, alternating mutation batches with incremental queries, and
  report freshness vs full-recompute cost;
* ``repro table1``   — print the regenerated capability matrix;
* ``repro verify``   — the conformance harness: differential matrix
  (algorithm × policy × direction × representation × fused over the
  adversarial graph pool), metamorphic oracles, the dynamic
  (incremental==full) oracle, and the par_nosync race checker; every
  mismatch prints a one-line repro command.

Every command is a thin shell over the public API, so scripted use and
programmatic use stay equivalent.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np


# -- file format plumbing ----------------------------------------------------------


def _load_graph(path: str, *, directed: bool = True):
    from repro.graph.io import (
        load_graph_npz,
        read_dimacs,
        read_edgelist,
        read_matrix_market,
    )

    if path.endswith(".npz"):
        return load_graph_npz(path)
    if path.endswith(".mtx"):
        return read_matrix_market(path)
    if path.endswith(".gr"):
        return read_dimacs(path, directed=directed)
    return read_edgelist(path, directed=directed)


def _save_graph(graph, path: str) -> None:
    from repro.graph.io import (
        save_graph_npz,
        write_dimacs,
        write_edgelist,
        write_matrix_market,
    )

    if path.endswith(".npz"):
        save_graph_npz(graph, path)
    elif path.endswith(".mtx"):
        write_matrix_market(graph, path)
    elif path.endswith(".gr"):
        write_dimacs(graph, path)
    else:
        write_edgelist(graph, path)


# -- commands ------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: synthesize a seeded graph to a file."""
    from repro.graph import generators as gen

    kind = args.kind
    if kind == "rmat":
        g = gen.rmat(
            args.scale,
            args.edge_factor,
            weighted=args.weighted,
            directed=not args.undirected,
            seed=args.seed,
        )
    elif kind == "er":
        n = 1 << args.scale
        g = gen.erdos_renyi_gnm(
            n,
            n * args.edge_factor,
            weighted=args.weighted,
            directed=not args.undirected,
            seed=args.seed,
        )
    elif kind == "grid":
        side = int(np.sqrt(1 << args.scale))
        g = gen.grid_2d(side, side, weighted=args.weighted, seed=args.seed)
    elif kind == "ws":
        g = gen.watts_strogatz(
            1 << args.scale, args.edge_factor, 0.05, seed=args.seed
        )
        if args.weighted:
            g = gen.with_random_weights(g, seed=args.seed)
    elif kind == "ba":
        g = gen.barabasi_albert(
            1 << args.scale, max(1, args.edge_factor // 2), seed=args.seed
        )
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(kind)
    _save_graph(g, args.output)
    print(
        f"wrote {args.output}: {g.n_vertices} vertices, {g.n_edges} edges "
        f"({g.properties.describe()})"
    )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """``repro info``: structural summary of a graph file."""
    g = _load_graph(args.graph, directed=not args.undirected)
    degrees = g.out_degrees()
    info = {
        "path": args.graph,
        "n_vertices": g.n_vertices,
        "n_edges": g.n_edges,
        "properties": g.properties.describe(),
        "degree_min": int(degrees.min(initial=0)),
        "degree_max": int(degrees.max(initial=0)),
        "degree_mean": round(float(degrees.mean()) if degrees.size else 0.0, 3),
        "views": list(g.materialized_views()),
    }
    if args.components:
        from repro.algorithms import connected_components

        info["n_components"] = connected_components(g).n_components
    if args.stats:
        from repro.graph.stats import summarize

        summary = summarize(g, diameter_probes=2, seed=0)
        info["degree_skew"] = round(summary["degree"].skew, 3)
        info["degree_gini"] = round(summary["degree"].gini, 3)
        info["diameter_lower_bound"] = summary["diameter_lower_bound"]
        info["hints"] = summary["hints"]
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        for k, v in info.items():
            print(f"{k:>14}: {v}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    """``repro convert``: transcode between graph file formats."""
    g = _load_graph(args.input, directed=not args.undirected)
    _save_graph(g, args.output)
    print(f"converted {args.input} -> {args.output}")
    return 0


_OWN = "default: the algorithm's own"
_POLICIES = ["seq", "par", "par_nosync", "par_vector", "par_proc"]
#: Flags that set plan fields: dest -> (field, add_argument kwargs).
_PLAN_FLAGS = {
    "source": ("source", dict(type=int, help="default: vertex 0")),
    "policy": ("policy", dict(choices=_POLICIES, help=_OWN)),
    "direction": ("direction", dict(choices=["push", "pull", "auto"], help=_OWN)),
    "backend": (
        "backend",
        dict(choices=["native", "linalg", "auto"], help="default native; "
             "bfs/sssp/cc run native under linalg (recorded as a fallback)"),
    ),
    "seed": ("seed", dict(type=int, help=_OWN)),
    "workers": ("num_workers", dict(type=int, help=_OWN)),
    "chaos_seed": ("resilience", dict(type=int, help="fault seed, default 0")),
    "chaos_rate": (
        "resilience", dict(type=float, help="fault probability, default 0 (off)")
    ),
    "checkpoint_every": (
        "resilience", dict(type=int, help="snapshot every N supersteps, 0 = off")
    ),
    "retry_attempts": (
        "resilience", dict(type=int, help="attempts per faulted op, default 8")
    ),
}


def _add_plan_flags(p: argparse.ArgumentParser, *dests: str) -> None:
    for dest in dests:
        p.add_argument("--" + dest.replace("_", "-"), **_PLAN_FLAGS[dest][1])
    p.set_defaults(plan_flags=dests)


class _UsageError(Exception):
    """A flag the chosen algorithm does not consume (exit 2, as argparse)."""


def _plan_from_flags(args: argparse.Namespace) -> dict:
    """The plan fields the user set, keyed as the algorithm's spec names
    them.  Unset flags stay out, so every field keeps the one default
    its entry's signature declares; a set flag the spec does not consume
    is a :class:`_UsageError`."""
    from repro.algorithms import REGISTRY

    spec = REGISTRY[args.algorithm]
    plan, unused = {}, []
    for dest in args.plan_flags:
        name = _PLAN_FLAGS[dest][0]
        if getattr(args, dest) is None:
            continue
        if name not in spec.fields:
            unused.append("--" + dest.replace("_", "-"))
        elif name == "resilience":
            plan[name] = _build_resilience(args)
        else:
            plan[name] = getattr(args, dest)
    if unused:
        raise _UsageError(
            f"{', '.join(unused)} not consumed by {args.algorithm!r}, which "
            f"takes {', '.join(spec.fields) or 'no plan fields'}"
        )
    return plan


def _build_resilience(args: argparse.Namespace):
    """Translate the ``run`` command's chaos/checkpoint flags into a
    :class:`~repro.resilience.ResiliencePolicy` (``None`` when neither
    chaos nor checkpoints are on)."""
    chaos_rate = args.chaos_rate or 0.0
    checkpoint_every = args.checkpoint_every or 0
    retry_attempts = 8 if args.retry_attempts is None else args.retry_attempts
    if not (0.0 <= chaos_rate <= 1.0):
        raise SystemExit(f"--chaos-rate must be in [0, 1], got {chaos_rate}")
    if checkpoint_every < 0:
        raise SystemExit(
            f"--checkpoint-every must be >= 0, got {checkpoint_every}"
        )
    if retry_attempts < 1:
        raise SystemExit(
            f"--retry-attempts must be >= 1, got {retry_attempts}"
        )
    if not (chaos_rate > 0 or checkpoint_every > 0):
        return None
    from repro.resilience import (
        FaultInjector,
        ResiliencePolicy,
        RetryPolicy,
    )

    chaos = (
        FaultInjector.uniform(seed=args.chaos_seed or 0, rate=chaos_rate)
        if chaos_rate > 0
        else None
    )
    return ResiliencePolicy(
        chaos=chaos,
        retry=RetryPolicy(
            max_attempts=retry_attempts, base_delay=0.0, max_delay=0.0
        ),
        checkpoint_every=checkpoint_every,
    )


def _ledger_config(args: argparse.Namespace, plan: dict, **identity) -> dict:
    """A ledger record's ``config``: the graph's identity plus every
    field the algorithm consumed, at the value it ran with."""
    from repro.algorithms import REGISTRY

    config = {**identity, **REGISTRY[args.algorithm].defaults, **plan}
    if "resilience" in config:
        config["resilience"] = {
            dest: getattr(args, dest)
            for dest in args.plan_flags
            if _PLAN_FLAGS[dest][0] == "resilience"
            and getattr(args, dest) is not None
        } or None
    return config


def _export_probe(probe, args: argparse.Namespace, algorithm: str) -> None:
    """Write the probe's telemetry to whichever outputs were requested."""
    from repro.observability.export import (
        write_chrome_trace,
        write_events_jsonl,
    )

    if getattr(args, "trace", None):
        write_chrome_trace(
            probe, args.trace, process_name=f"repro:{algorithm}"
        )
        print(f"chrome trace written to {args.trace}")
    if getattr(args, "events", None):
        write_events_jsonl(probe, args.events, algorithm=algorithm)
        print(f"event log written to {args.events}")


def _append_ledger_record(
    args: argparse.Namespace,
    *,
    kind: str,
    algorithm: str,
    metrics: dict,
    stats=None,
    probe=None,
    config: Optional[dict] = None,
) -> None:
    """Append one run-ledger record (quietly skipped when disabled).

    The analysis engine's attribution is embedded when the run collected
    spans, so ``repro explain <run-id>`` can answer from the ledger
    alone.  Recording failures never fail the command — telemetry must
    not break runs.
    """
    from repro.observability import ledger as ledger_mod

    if getattr(args, "no_ledger", False) or not ledger_mod.ledger_enabled():
        return
    analysis = None
    if probe is not None and probe.enabled and probe.trace and len(probe.tracer):
        from repro.observability.analysis import analyze_probe

        analysis = analyze_probe(probe).to_dict()
    record = ledger_mod.make_record(
        kind=kind,
        algorithm=algorithm,
        config=config,
        metrics=metrics,
        stats=stats,
        analysis=analysis,
    )
    try:
        run_id = ledger_mod.RunLedger(
            getattr(args, "ledger_dir", None)
        ).append(record)
    except OSError as exc:
        print(f"ledger: not recorded ({exc})", file=sys.stderr)
        return
    # stderr: --json consumers own stdout.
    print(f"ledger: {run_id}", file=sys.stderr)


def _add_ledger_args(p: argparse.ArgumentParser) -> None:
    """Ledger controls shared by the recording subcommands."""
    p.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip the .repro/runs ledger record for this invocation",
    )
    p.add_argument("--ledger-dir", help="ledger root (default .repro/runs)")


#: Conventional exit code for "terminated by interrupt" (128 + SIGINT).
INTERRUPT_EXIT = 130


def _raise_interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def _recorded(args: argparse.Namespace, body) -> int:
    """Run ``body(args, probe)``, the work of ``repro run``/``profile``.

    ``probe`` is a fresh :class:`~repro.observability.probe.Probe` when
    the command profiles or exports telemetry (``--trace``/``--events``),
    else ``None``.  On SIGINT/SIGTERM whatever the run produced is
    flushed — the probe's trace buffer to the requested export files,
    and an ``interrupted: true`` record to the run ledger — so a killed
    run still leaves evidence, then the conventional 130 is returned.
    """
    import signal
    import threading
    import time as time_mod

    from repro.observability.probe import Probe

    t0 = time_mod.perf_counter()
    probe = None
    if args.command == "profile" or args.trace or args.events:
        probe = Probe(trace=not getattr(args, "no_spans", False))
    # A supervisor's TERM takes the Ctrl-C path (handlers install only
    # from the main thread; elsewhere Ctrl-C's path still works).
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _raise_interrupt) if on_main else None
    try:
        return body(args, probe)
    except KeyboardInterrupt:
        seconds = time_mod.perf_counter() - t0
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    if probe is not None:
        try:
            _export_probe(probe, args, args.algorithm)
        except Exception as exc:  # noqa: BLE001 - already dying
            print(f"interrupt: trace export failed ({exc})", file=sys.stderr)
    _append_ledger_record(
        args,
        kind=args.command,
        algorithm=args.algorithm,
        metrics={"seconds": seconds, "interrupted": True},
        probe=probe,
    )
    print(
        f"interrupted: partial telemetry flushed ({args.command} "
        f"{args.algorithm}, {seconds:.2f}s in)",
        file=sys.stderr,
    )
    return INTERRUPT_EXIT


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: execute an algorithm and report stats.

    With ``--trace``/``--events`` the run happens under an ambient
    :class:`~repro.observability.probe.Probe` and the telemetry is
    exported afterwards — ``repro run`` and ``repro profile`` share the
    same instrumentation, they differ in emphasis (results vs telemetry).
    Every run appends a run-ledger record (``--no-ledger`` opts out).
    SIGINT/SIGTERM flush partial telemetry and exit 130.
    """
    return _recorded(args, _run_body)


def _run_body(args: argparse.Namespace, probe) -> int:
    """The ``run`` command: one registry entry on one graph, under
    ``probe`` when there is one."""
    import time as time_mod

    from repro.algorithms import REGISTRY
    from repro.observability.probe import NULL_PROBE

    name = args.algorithm
    spec = REGISTRY[name]
    plan = _plan_from_flags(args)
    with probe if probe is not None else NULL_PROBE:
        g = _load_graph(args.graph, directed=not args.undirected)
        t0 = time_mod.perf_counter()
        result = spec.run(g, plan)
        seconds = time_mod.perf_counter() - t0
    extra = spec.extra(g, result) if spec.extra else {}
    if spec.summary:
        print(spec.summary.format(**extra))
    metrics = dict(
        seconds=seconds, **extra, n_vertices=g.n_vertices, n_edges=g.n_edges
    )
    stats = result.stats
    print(
        f"{name}: {stats.num_iterations} supersteps, "
        f"{stats.total_edges_touched} edges touched, "
        f"{stats.mteps:.3f} MTEPS"
    )
    metrics.update(
        iterations=stats.num_iterations,
        edges_expanded=stats.total_edges_touched,
        mteps=stats.mteps,
        converged=stats.converged,
    )
    _append_ledger_record(
        args,
        kind="run",
        algorithm=name,
        metrics=metrics,
        stats=stats,
        probe=probe,
        config=_ledger_config(args, plan, graph=args.graph),
    )
    resilience = plan.get("resilience")
    if resilience is not None:
        active = resilience.counters.as_dict()
        if resilience.chaos is not None:
            active["faults_injected"] = resilience.chaos.total_faults
        print(
            "resilience: "
            + (
                ", ".join(f"{k}={v}" for k, v in sorted(active.items()))
                or "no events"
            )
        )
    values = spec.values_of(result)
    if values is None and (args.output or args.head):
        print(f"{name} has no per-vertex values to write", file=sys.stderr)
    elif args.output:
        np.save(args.output, values)
        print(f"values written to {args.output}")
    elif args.head:
        print(f"first {args.head} values: {np.asarray(values)[: args.head]}")
    if probe is not None:
        _export_probe(probe, args, name)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile``: run an algorithm under the probe, export traces.

    With no graph argument a seeded weighted grid is generated, so
    ``repro profile sssp --trace out.json`` works standalone (the CI
    smoke-profile job relies on this).  SIGINT/SIGTERM flush partial
    telemetry and exit 130, like ``repro run``.
    """
    return _recorded(args, _profile_body)


def _profile_body(args: argparse.Namespace, probe) -> int:
    from repro.observability.export import render_summary
    from repro.observability.profile import profile_algorithm

    plan = _plan_from_flags(args)
    if args.graph:
        g = _load_graph(args.graph, directed=not args.undirected)
        graph_id = args.graph
    else:
        from repro.graph import generators as gen

        side = int(np.sqrt(1 << args.scale))
        g = gen.grid_2d(side, side, weighted=True, seed=args.seed)
        graph_id = f"grid:{side}x{side}:seed={args.seed}"
        print(
            f"profiling on generated {side}x{side} grid "
            f"({g.n_vertices} vertices, {g.n_edges} edges)"
        )
    report = profile_algorithm(g, args.algorithm, probe=probe, **plan)
    if args.json:
        print(json.dumps(report.summary_metrics(), indent=2, sort_keys=True))
    else:
        print(render_summary(report.probe, top=args.top))
        print(
            f"\n{args.algorithm}: {report.seconds * 1e3:.1f} ms end-to-end "
            f"({len(report.probe.tracer) if report.probe.trace else 0} spans)"
        )
    _export_probe(report.probe, args, args.algorithm)
    _append_ledger_record(
        args,
        kind="profile",
        algorithm=args.algorithm,
        metrics=report.summary_metrics(),
        stats=report.stats,
        probe=report.probe,
        config=_ledger_config(args, plan, graph=graph_id),
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """``repro verify``: run the conformance harness; exit 1 on any
    divergence.

    Four suites — differential matrix, metamorphic relations, dynamic
    (incremental==full) oracle, race checker — all run by default;
    ``--metamorphic`` / ``--dynamic`` / ``--races`` narrow to those
    suites, and any matrix-axis filter (``--policy``, ``--direction``,
    ``--representation``, ``--fused``) narrows to the matrix alone,
    which is how the printed repro commands replay a single cell.
    """
    from repro.verify import (
        check_races,
        run_dynamic,
        run_matrix,
        run_metamorphic,
        spec_names,
    )
    from repro.verify.graph_pool import GraphPool

    if args.list:
        from repro.verify import get_spec

        pool = GraphPool(seed=args.seed, quick=not args.full)
        for name in spec_names():
            spec = get_spec(name)
            axes = [a for a in spec.axes.policies if a is not None]
            print(
                f"{name:12s} baseline={spec.baseline_name:22s} "
                f"comparator={spec.comparator_name:22s} "
                f"policies={','.join(axes) or '-'}"
            )
        print(f"graphs: {', '.join(c.name for c in pool.cases())}")
        return 0

    quick = not args.full
    axis_filtered = any(
        x is not None
        for x in (
            args.policy,
            args.direction,
            args.representation,
            args.backend,
        )
    ) or args.fused != "both"
    explicit = bool(args.metamorphic or args.races or args.dynamic)
    # Axis filters narrow the run to the matrix; an explicit
    # --metamorphic runs the relations alone.
    run_m = ((not explicit and not args.no_matrix) or axis_filtered) and not (
        args.metamorphic and not args.races and not args.dynamic
    )
    run_meta = (args.metamorphic or not explicit) and (
        not axis_filtered or args.metamorphic
    )
    run_dyn = (args.dynamic or not explicit) and not axis_filtered
    run_r = (args.races or not explicit) and not axis_filtered

    fused_filter = None
    if args.fused == "on":
        fused_filter = [True]
    elif args.fused == "off":
        fused_filter = [False]
    # Matrix variants carry None for the native backend (the axis
    # default); the CLI spells it "native".
    backend_filter = None
    if args.backend is not None:
        backend_filter = [None if args.backend == "native" else args.backend]

    failed = False
    records = {}
    if args.algo:
        known = set(spec_names())
        unknown = [a for a in args.algo if a not in known]
        if unknown:
            raise SystemExit(
                f"unknown algorithm(s) {', '.join(sorted(unknown))}; "
                f"see `repro verify --list`"
            )
    if args.graph:
        pool_names = {
            c.name for c in GraphPool(seed=args.seed, quick=quick).cases()
        }
        unknown = [g for g in args.graph if g not in pool_names]
        if unknown:
            mode_hint = "" if args.full else " (full-only graph? add --full)"
            raise SystemExit(
                f"unknown graph(s) {', '.join(sorted(unknown))}"
                f"{mode_hint}; see `repro verify --list`"
            )
    if run_m:
        report = run_matrix(
            seed=args.seed,
            quick=quick,
            algos=args.algo,
            graphs=args.graph,
            policies=args.policy,
            directions=args.direction,
            representations=args.representation,
            fused=fused_filter,
            backends=backend_filter,
        )
        mode = "quick" if quick else "full"
        print(
            f"matrix: {report.cells_run} cells, {report.cells_passed} "
            f"passed, {len(report.mismatches)} mismatches "
            f"({mode}, seed {args.seed}, {report.seconds:.1f}s)"
        )
        for m in report.mismatches[:20]:
            print(f"  MISMATCH {m.cell.label()}: {m.detail}")
            print(f"    replay: {m.repro}")
        if len(report.mismatches) > 20:
            print(f"  ... and {len(report.mismatches) - 20} more")
        records["matrix"] = report.to_record()
        failed = failed or not report.ok
    if run_meta:
        meta = run_metamorphic(seed=args.seed, quick=quick, graphs=args.graph)
        print(
            f"metamorphic: {meta.checks_run} checks, "
            f"{len(meta.failures)} failures ({meta.seconds:.1f}s)"
        )
        for f in meta.failures[:20]:
            print(f"  FAILED {f.relation} [{f.algo} on {f.graph}]: {f.detail}")
            print(f"    replay: {f.repro}")
        records["metamorphic"] = meta.to_record()
        failed = failed or not meta.ok
    if run_dyn:
        dyn = run_dynamic(seed=args.seed, quick=quick, graphs=args.graph)
        print(
            f"dynamic: {dyn.checks_run} checks, "
            f"{len(dyn.failures)} failures ({dyn.seconds:.1f}s)"
        )
        for f in dyn.failures[:20]:
            print(
                f"  FAILED {f.check} [{f.algo} on {f.graph}, "
                f"{f.policy}]: {f.detail}"
            )
            print(f"    replay: {f.repro}")
        records["dynamic"] = dyn.to_record()
        failed = failed or not dyn.ok
    if run_r:
        try:
            races = check_races(
                seed=args.seed,
                trials=args.trials,
                quick=quick,
                algos=args.algo if args.races else None,
                graphs=args.graph,
            )
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]) if exc.args else str(exc))
        print(
            f"races: {races.runs} perturbed runs, "
            f"{len(races.findings)} findings, "
            f"{len(races.benign)} benign ({races.seconds:.1f}s)"
        )
        for f in races.findings[:20]:
            print(f"  RACE {f.algo} on {f.graph} ({f.kind}): {f.detail}")
            print(f"    replay: {f.repro}")
        records["races"] = races.to_record()
        failed = failed or not races.ok

    _append_ledger_record(
        args,
        kind="verify",
        algorithm=",".join(args.algo) if args.algo else "all",
        metrics={"ok": not failed, **records},
        config={"seed": args.seed, "full": args.full},
    )
    if args.json:
        print(json.dumps({"ok": not failed, **records}, indent=2))
    if failed:
        print("verify: FAILED", file=sys.stderr)
        return 1
    print("verify: ok")
    return 0


# -- trace analysis / ledger commands -------------------------------------------------


def _render_ledger_analysis(record: dict) -> str:
    """Human rendering of a ledger record's stored analysis summary."""
    lines = [
        f"run {record['run_id']} — {record.get('kind')} "
        f"{record.get('algorithm')} at {record.get('created_at')}"
    ]
    metrics = record.get("metrics", {})
    if "seconds" in metrics:
        lines.append(f"  seconds: {metrics['seconds'] * 1e3:.3f} ms")
    for key in ("iterations", "edges_expanded", "mteps", "converged"):
        if key in metrics:
            lines.append(f"  {key}: {metrics[key]}")
    analysis = record.get("analysis")
    if analysis:
        wall = analysis.get("wall_seconds", 0.0) or 0.0
        lines.append(
            f"  traced wall: {wall * 1e3:.3f} ms over "
            f"{analysis.get('span_count', 0)} spans "
            f"(coverage {analysis.get('coverage', 0.0):.1%})"
        )
        layers = analysis.get("layers", {})
        denom = max(wall, sum(layers.values()))  # parallel runs exceed wall
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            share = seconds / denom if denom > 0 else 0.0
            lines.append(f"    {layer:<12} {seconds * 1e3:>9.3f} ms {share:>7.1%}")
        lines.append(
            f"  imbalance factor: {analysis.get('imbalance_factor', 1.0):.2f}x"
        )
        path = analysis.get("critical_path", [])
        if path:
            lines.append("  critical path:")
            for entry in path:
                lines.append(
                    f"    {entry['name']:<28} x{entry['count']:<6} "
                    f"{entry['seconds'] * 1e3:>9.3f} ms {entry['share']:>7.1%}"
                )
        lines.append(f"  diagnosis: {analysis.get('diagnosis', '(none)')}")
    supersteps = record.get("supersteps", [])
    if supersteps:
        lines.append(f"  supersteps recorded: {len(supersteps)}")
    return "\n".join(lines)


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: trace analysis of a file or a ledger run id."""
    import os

    target = args.target
    if os.path.exists(target):
        from repro.observability.analysis import analyze_file

        report = analyze_file(target)
        if report.span_count == 0:
            print(f"{target}: no spans to analyze", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.render(max_timeline_rows=args.timeline_rows))
        return 0
    from repro.observability.ledger import RunLedger

    ledger = RunLedger(args.ledger_dir)
    record = ledger.get(target)
    if record is None:
        print(
            f"{target}: neither a trace file nor a (unique) run id in "
            f"{ledger.path}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(_render_ledger_analysis(record))
        trace = record.get("trace")
        if trace:
            from repro.observability.analysis import (
                nodes_from_span_dicts,
                render_span_tree,
            )

            qid = record.get("qid") or record["run_id"]
            lines = [f"  span tree ({len(trace)} spans, trace id {qid}):"]
            for line in render_span_tree(nodes_from_span_dicts(trace)).splitlines():
                lines.append(f"    {line}")
            if record.get("incident"):
                lines.append(f"  incident file: {record['incident']}")
            print("\n".join(lines))
    return 0


def cmd_ledger(args: argparse.Namespace) -> int:
    """``repro ledger``: list recent records, or show one by id."""
    from repro.observability.ledger import RunLedger

    ledger = RunLedger(args.ledger_dir)

    def warn_skipped() -> None:
        if ledger.skipped_lines:
            print(
                f"warning: skipped {ledger.skipped_lines} corrupt ledger "
                f"line(s) in {ledger.path} (a crashed writer left torn "
                f"records; history shown is what remained parseable)",
                file=sys.stderr,
            )

    if args.run_id:
        record = ledger.get(args.run_id)
        warn_skipped()
        if record is None:
            print(f"{args.run_id}: not found in {ledger.path}", file=sys.stderr)
            return 1
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    records = ledger.tail(args.last)
    warn_skipped()
    if not records:
        print(f"no records in {ledger.path}")
        return 0
    print(f"{'run id':<26} {'kind':<10} {'algorithm':<18} {'seconds':>10}  created")
    for record in records:
        seconds = record.get("metrics", {}).get("seconds")
        cell = f"{seconds * 1e3:.2f} ms" if isinstance(seconds, (int, float)) else "-"
        print(
            f"{record['run_id']:<26} {record.get('kind', '?'):<10} "
            f"{record.get('algorithm', '?'):<18} {cell:>10}  "
            f"{record.get('created_at', '?')}"
        )
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    """``repro partition``: partition a graph and report quality."""
    from repro import partition as part

    g = _load_graph(args.graph, directed=not args.undirected)
    fns = {
        "random": lambda: part.random_partition(g, args.parts, seed=args.seed),
        "contiguous": lambda: part.contiguous_partition(g, args.parts),
        "ldg": lambda: part.ldg_partition(g, args.parts, seed=args.seed),
        "fennel": lambda: part.fennel_partition(g, args.parts, seed=args.seed),
        "metis": lambda: part.metis_like_partition(g, args.parts, seed=args.seed),
    }
    p = fns[args.method]()
    print(
        f"{args.method} k={args.parts}: edge_cut={part.edge_cut(g, p)} "
        f"balance={part.load_balance(p):.3f} "
        f"comm_volume={part.communication_volume(g, p)}"
    )
    if args.output:
        np.save(args.output, p.assignment)
        print(f"assignment written to {args.output}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the long-running deadline-driven query daemon.

    Loads/generates the catalog once, recovers the query journal (any
    query in flight when a previous process died is marked aborted),
    then serves JSONL queries over TCP until a client sends the
    ``shutdown`` op (exit 0) or SIGINT/SIGTERM arrives (in-flight
    queries are cancelled at their next superstep boundary, connection
    threads joined, exit 130).
    """
    import os
    import signal
    import threading

    from repro.errors import CatalogError, ServiceError
    from repro.service import (
        GraphCatalog,
        GraphQueryServer,
        QueryService,
        ServiceConfig,
        parse_graph_spec,
    )

    catalog = GraphCatalog(data_dir=args.data_dir)
    try:
        restored = catalog.restore()
        for spec_text in args.graph or []:
            catalog.add(parse_graph_spec(spec_text))
    except CatalogError as exc:
        raise SystemExit(f"catalog: {exc}") from exc
    if not len(catalog):
        raise SystemExit(
            "serve needs at least one --graph (name=path or name=kind:scale),"
            " or a --data-dir whose catalog manifest has entries"
        )
    if restored:
        print(f"catalog restored from manifest: {sorted(restored)}",
              file=sys.stderr)

    config = ServiceConfig(
        max_concurrent=args.max_concurrent,
        max_queue_depth=args.max_queue_depth,
        per_tenant_limit=args.tenant_limit,
        default_timeout_s=args.default_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        cache_ttl_s=args.cache_ttl,
        retry_attempts=args.retry_attempts,
        record_ledger=not args.no_ledger,
        observe=args.observe,
        flight_capacity=args.flight_capacity,
    )
    try:
        service = QueryService(
            catalog, data_dir=args.data_dir, config=config
        )
    except ServiceError as exc:
        raise SystemExit(f"serve: {exc}") from exc
    if service.recovered:
        print(
            f"journal recovery: {len(service.recovered)} in-flight "
            f"queries from a previous process marked aborted",
            file=sys.stderr,
        )

    server = GraphQueryServer(service, host=args.host, port=args.port)
    interrupted = threading.Event()

    def on_signal(signum, frame) -> None:
        interrupted.set()

    previous = {}
    if threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, on_signal)
            except ValueError:  # pragma: no cover - non-main interpreter
                pass
    server.start()
    host, port = server.address
    print(
        f"serving {sorted(catalog.names())} on {host}:{port} "
        f"(pid {os.getpid()}, {config.max_concurrent} slots)"
    )
    sys.stdout.flush()
    try:
        while not interrupted.is_set():
            if service.shutdown_requested.wait(timeout=0.1):
                break
    finally:
        server.stop()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        stats = service.stats()
        codes = ", ".join(f"{k}={v}" for k, v in stats["codes"].items())
        print(f"served: {codes or 'no queries'}", file=sys.stderr)
    if interrupted.is_set():
        print("interrupted: in-flight queries cancelled, journal flushed",
              file=sys.stderr)
        return INTERRUPT_EXIT
    return 0


def _render_latency_table(latency: dict) -> str:
    """Human rendering of the per-(graph, algorithm) latency summaries
    (the ``latency_ms`` section of `stats`/`metrics` responses)."""
    lines = [
        f"{'graph/algo':<24} {'count':>7} {'p50':>9} {'p95':>9} "
        f"{'p99':>9} {'max':>9}"
    ]
    keys = sorted(k for k in latency if k != "_all")
    if "_all" in latency:
        keys.append("_all")
    for key in keys:
        entry = latency[key]
        cells = " ".join(
            f"{entry.get(col, 0.0):>9.2f}" for col in ("p50", "p95", "p99", "max")
        )
        lines.append(f"{key:<24} {int(entry.get('count', 0)):>7} {cells}")
    return "\n".join(lines)


def _render_top(snapshot: dict) -> str:
    """One ``repro top`` frame from a metrics snapshot."""
    queries = snapshot.get("queries", {})
    responses = queries.get("responses", {})
    codes = ", ".join(
        f"{code}={count}" for code, count in sorted(responses.items())
    )
    workers = snapshot.get("workers", {})
    trace = snapshot.get("trace", {})
    incidents = snapshot.get("incidents", {})
    admission = snapshot.get("admission", {})
    cache = snapshot.get("cache", {})
    lines = [
        f"repro top — uptime {snapshot.get('uptime_s', 0.0):.1f}s",
        f"  responses: {codes or '(none yet)'}",
        f"  admission: active={admission.get('active', 0)} "
        f"waiting={admission.get('waiting', 0)} "
        f"admitted={admission.get('admitted', 0)} "
        f"shed={admission.get('shed_queue_full', 0) + admission.get('shed_tenant_cap', 0) + admission.get('shed_timeout', 0)}",
        f"  cache: entries={cache.get('entries', 0)} "
        f"hit_ratio={cache.get('hit_ratio', 0.0):.2f} "
        f"stale_served={cache.get('stale_served', 0)}",
        f"  workers: n={workers.get('num_workers', 0)} "
        f"busy={workers.get('busy_fraction', 0.0):.1%} "
        f"restarts={workers.get('restarts', 0)}",
        f"  trace: buffered={trace.get('buffered_spans', 0)} "
        f"dropped={trace.get('dropped_spans', 0)}   "
        f"incidents: dumped={incidents.get('dumped', 0)} "
        f"dir={incidents.get('dir', '-')}",
    ]
    breakers = snapshot.get("breakers") or {}
    tripped = {
        key: entry for key, entry in breakers.items()
        if entry.get("state") != "closed"
    }
    if tripped:
        cells = ", ".join(
            f"{key}={entry.get('state')}" for key, entry in sorted(tripped.items())
        )
        lines.append(f"  breakers: {cells}")
    latency = queries.get("latency_ms") or {}
    if latency:
        lines.append("")
        lines.extend(
            "  " + row for row in _render_latency_table(latency).splitlines()
        )
    epochs = snapshot.get("epochs") or {}
    lagging = {
        name: entry for name, entry in epochs.items() if entry.get("lag")
    }
    if lagging:
        cells = ", ".join(
            f"{name} lag={entry['lag']}" for name, entry in sorted(lagging.items())
        )
        lines.append(f"  epochs: {cells}")
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    """``repro top``: poll a running server's metrics op and render a
    terminal dashboard (latency percentiles, admission, cache, workers,
    breakers).  Needs the server started with ``--observe`` for the
    latency/worker sections; the rest works regardless."""
    import time as _time

    from repro.errors import ServiceError
    from repro.service import ServiceClient

    iterations = 0
    try:
        with ServiceClient(
            args.host, args.port, timeout=args.connect_timeout
        ) as client:
            while True:
                snapshot = client.metrics()
                if not args.no_clear and sys.stdout.isatty():
                    print("\x1b[2J\x1b[H", end="")
                print(_render_top(snapshot))
                sys.stdout.flush()
                iterations += 1
                if args.iterations and iterations >= args.iterations:
                    return 0
                _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except (OSError, ServiceError) as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 1


def cmd_query(args: argparse.Namespace) -> int:
    """``repro query``: one request against a running ``repro serve``.

    Prints the full JSON response; exits 0 for 200/206, 1 otherwise, so
    shell scripts can branch on degradation.
    """
    from repro.errors import ServiceError
    from repro.service import ServiceClient

    params = {}
    for kv in args.param or []:
        key, sep, value = kv.partition("=")
        if not sep:
            raise SystemExit(f"--param must look like key=value, got {kv!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value  # bare strings need no quoting
    if args.op == "query" and not (args.graph and args.algorithm):
        raise SystemExit("query op needs GRAPH and ALGORITHM arguments")
    if args.op == "mutate" and not args.graph:
        raise SystemExit("mutate op needs a GRAPH argument")

    def parse_edge(text: str, *, flag: str) -> list:
        parts = text.split(",")
        try:
            if flag == "--insert" and len(parts) == 3:
                return [int(parts[0]), int(parts[1]), float(parts[2])]
            if len(parts) == 2:
                return [int(parts[0]), int(parts[1])]
        except ValueError:
            pass
        raise SystemExit(f"{flag} must look like SRC,DST"
                         + ("[,W]" if flag == "--insert" else "")
                         + f", got {text!r}")

    try:
        with ServiceClient(
            args.host, args.port, timeout=args.connect_timeout
        ) as client:
            if args.op == "query":
                resp = client.query(
                    args.graph,
                    args.algorithm,
                    params,
                    timeout_s=args.timeout,
                    tenant=args.tenant,
                )
            elif args.op == "mutate":
                resp = client.mutate(
                    args.graph,
                    insert=[parse_edge(e, flag="--insert")
                            for e in args.insert or []],
                    remove=[parse_edge(e, flag="--remove")
                            for e in args.remove or []],
                    tenant=args.tenant,
                )
            elif args.op == "metrics" and args.format == "prom":
                resp = client.request({"op": "metrics", "format": "prom"})
            else:
                resp = client.request({"op": args.op})
    except (OSError, ServiceError) as exc:
        print(f"query: {exc}", file=sys.stderr)
        return 1
    ok = resp.get("code") in (200, 206)
    if ok and args.op == "metrics" and args.format == "prom":
        print(resp.get("result", {}).get("text", ""), end="")
        return 0
    print(json.dumps(resp, indent=2, sort_keys=True))
    if ok and args.op == "stats":
        latency = resp.get("result", {}).get("latency_ms") or {}
        if latency:
            print(_render_latency_table(latency), file=sys.stderr)
    return 0 if ok else 1


def cmd_stream(args: argparse.Namespace) -> int:
    """``repro stream``: windowed edge-stream replay with incremental
    queries.

    Generates a seeded R-MAT stream (base prefix + insert/delete mix),
    replays it window by window against a
    :class:`~repro.dynamic.dynamic_graph.DynamicGraph`, runs the
    configured queries incrementally each window, and prints freshness
    (mutate + snapshot + repair) against full-recompute cost.
    ``--check`` additionally verifies every repaired result against the
    from-scratch answer and exits 1 on any divergence.
    """
    from repro.dynamic import EdgeStream, StreamDriver
    from repro.dynamic.stream import STREAM_ALGORITHMS

    algorithms = args.algorithm or list(STREAM_ALGORITHMS)
    stream = EdgeStream.rmat(
        args.scale,
        args.edge_factor,
        base_fraction=args.base_fraction,
        delete_fraction=args.delete_fraction,
        seed=args.seed,
    )
    print(
        f"stream: scale {args.scale} R-MAT, base "
        f"{stream.base.n_vertices} vertices / {stream.base.n_edges} edges, "
        f"{stream.n_events} events, window {args.window}"
    )
    driver = StreamDriver(
        stream,
        algorithms=algorithms,
        source=args.source,
        policy=args.policy,
        window_events=args.window,
        compare_full=not args.no_compare,
        verify=args.check,
    )
    report = driver.run(max_windows=args.windows)
    for w in report.windows:
        parts = []
        for name in report.algorithms:
            q = w["queries"][name]
            cell = f"{name} {q['incremental_seconds'] * 1e3:.1f}ms"
            if "full_seconds" in q:
                cell += f"/{q['full_seconds'] * 1e3:.1f}ms"
            if q.get("matches_full") is False:
                cell += " MISMATCH"
            parts.append(cell)
        print(
            f"  window {w['window']:>3}: +{w['n_inserted']} -{w['n_removed']} "
            f"(epoch {w['epoch']}, mutate {w['mutate_seconds'] * 1e3:.1f}ms, "
            f"snapshot {w['snapshot_seconds'] * 1e3:.1f}ms)  "
            + "  ".join(parts)
        )
    summary = report.summary()
    print(
        f"totals: {summary['n_windows']} windows, {summary['n_events']} "
        f"events, mutate {summary['mutate_seconds'] * 1e3:.1f}ms, "
        f"snapshot {summary['snapshot_seconds'] * 1e3:.1f}ms"
    )
    mismatched = 0
    for name, entry in summary["algorithms"].items():
        line = f"  {name}: incremental {entry['incremental_seconds'] * 1e3:.1f}ms"
        if "full_seconds" in entry:
            line += (
                f", full {entry['full_seconds'] * 1e3:.1f}ms "
                f"({entry['speedup']:.2f}x)"
            )
        if entry.get("mismatched_windows"):
            line += f", {entry['mismatched_windows']} MISMATCHED windows"
            mismatched += entry["mismatched_windows"]
        print(line)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, default=float))
    if mismatched:
        print("stream: FAILED (incremental != full)", file=sys.stderr)
        return 1
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    """``repro table1``: print and verify the capability matrix."""
    from repro.capability import format_table, verify_capabilities

    print(format_table())
    failures = verify_capabilities()
    if failures:
        for f in failures:
            print(f"MISSING: {f}", file=sys.stderr)
        return 1
    print("\nall captured models verified against the codebase")
    return 0


# -- parser --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    from repro.algorithms.registry import REGISTRY
    from repro.dynamic.stream import STREAM_ALGORITHMS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Essentials of Parallel Graph Analytics — Python reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a seeded graph")
    p.add_argument("kind", choices=["rmat", "er", "grid", "ws", "ba"])
    p.add_argument("output", help="output path (.npz/.mtx/.gr/anything=edgelist)")
    p.add_argument("--scale", type=int, default=10, help="log2 vertex count")
    p.add_argument("--edge-factor", type=int, default=16)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("info", help="summarize a graph file")
    p.add_argument("graph")
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--components", action="store_true")
    p.add_argument(
        "--stats",
        action="store_true",
        help="degree skew / diameter estimate / configuration hints",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("convert", help="transcode between graph formats")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--undirected", action="store_true")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser(
        "run",
        help="run an algorithm; a plan flag it does not consume is an error",
    )
    p.add_argument("algorithm", choices=list(REGISTRY))
    p.add_argument("graph")
    _add_plan_flags(
        p, "source", "policy", "direction", "backend", "seed",
        "chaos_seed", "chaos_rate", "checkpoint_every", "retry_attempts",
    )
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--output", help="write the per-vertex result as .npy")
    p.add_argument("--head", type=int, default=0, help="print first N values")
    p.add_argument(
        "--trace",
        help="run under the probe and write a Chrome/Perfetto trace here",
    )
    p.add_argument(
        "--events",
        help="run under the probe and write a JSONL event log here",
    )
    _add_ledger_args(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "profile",
        help="run an algorithm under the observability probe",
    )
    p.add_argument("algorithm", choices=list(REGISTRY))
    p.add_argument(
        "graph",
        nargs="?",
        help="graph file (omitted: a seeded grid is generated)",
    )
    p.add_argument(
        "--scale",
        type=int,
        default=12,
        help="log2 vertex count of the generated grid (no graph given)",
    )
    _add_plan_flags(p, "source", "policy", "workers", "backend")
    p.add_argument("--undirected", action="store_true")
    p.add_argument(
        "--seed", type=int, default=0, help="seed of the generated grid"
    )
    p.add_argument(
        "--trace", help="write a Chrome/Perfetto trace (open in ui.perfetto.dev)"
    )
    p.add_argument("--events", help="write a JSONL event log")
    p.add_argument(
        "--json",
        action="store_true",
        help="print summary metrics as JSON instead of the table",
    )
    p.add_argument(
        "--no-spans",
        action="store_true",
        help="metrics-only profile (skip span collection)",
    )
    p.add_argument(
        "--top", type=int, default=20, help="span rows in the summary table"
    )
    _add_ledger_args(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "explain",
        help="analyze a trace file or a ledgered run: critical path, "
        "per-layer attribution, imbalance, frontier timeline",
    )
    p.add_argument(
        "target",
        help="a Chrome trace / events JSONL path, or a run id (prefix ok)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument(
        "--timeline-rows",
        type=int,
        default=12,
        help="max frontier-timeline rows in the rendered report",
    )
    p.add_argument("--ledger-dir", help="ledger root (default .repro/runs)")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("ledger", help="list or show recorded runs")
    p.add_argument("run_id", nargs="?", help="show one record (prefix ok)")
    p.add_argument("--last", type=int, default=10, help="rows to list")
    p.add_argument("--ledger-dir", help="ledger root (default .repro/runs)")
    p.set_defaults(fn=cmd_ledger)

    p = sub.add_parser("partition", help="partition a graph, report quality")
    p.add_argument("graph")
    p.add_argument(
        "--method",
        choices=["random", "contiguous", "ldg", "fennel", "metis"],
        default="metis",
    )
    p.add_argument("--parts", type=int, default=4)
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write the assignment as .npy")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser(
        "serve",
        help="long-running query daemon: catalog loaded once, deadline-"
        "driven queries over a JSONL socket",
    )
    p.add_argument(
        "--graph",
        action="append",
        metavar="NAME=SPEC",
        help="catalog entry: name=path/to/file, or name=kind:scale with "
        "kind in grid/rmat/er/ws/ba (repeatable)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    p.add_argument(
        "--data-dir",
        help="persistence root: catalog manifest, query journal, query "
        "ledger live here; enables crash recovery on restart",
    )
    p.add_argument("--max-concurrent", type=int, default=4)
    p.add_argument("--max-queue-depth", type=int, default=16)
    p.add_argument(
        "--tenant-limit",
        type=int,
        default=None,
        help="per-tenant concurrent-query cap (default unlimited)",
    )
    p.add_argument(
        "--default-timeout",
        type=float,
        default=30.0,
        help="deadline for queries that do not carry one, seconds",
    )
    p.add_argument("--breaker-threshold", type=int, default=5)
    p.add_argument("--breaker-cooldown", type=float, default=2.0)
    p.add_argument("--cache-ttl", type=float, default=60.0)
    p.add_argument("--retry-attempts", type=int, default=2)
    p.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip per-query run-ledger records",
    )
    p.add_argument(
        "--observe",
        action="store_true",
        help="per-query tracing, latency percentiles, and the incident "
        "flight recorder (metrics op + `repro top` need this)",
    )
    p.add_argument(
        "--flight-capacity",
        type=int,
        default=256,
        help="flight-recorder ring size (recent events kept for "
        "incident dumps)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "query", help="send one request to a running `repro serve`"
    )
    p.add_argument("graph", nargs="?", help="catalog graph name")
    p.add_argument("algorithm", nargs="?", choices=list(REGISTRY))
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="algorithm parameter (JSON value or bare string; repeatable)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="query deadline in seconds (server default applies if unset)",
    )
    p.add_argument("--tenant", default="default")
    p.add_argument(
        "--op",
        choices=[
            "query", "mutate", "ping", "stats", "metrics", "catalog",
            "shutdown",
        ],
        default="query",
        help="non-query ops need no graph/algorithm",
    )
    p.add_argument(
        "--format",
        choices=["json", "prom"],
        default="json",
        help="metrics op only: prom prints the Prometheus text "
        "exposition raw instead of the JSON response",
    )
    p.add_argument(
        "--insert",
        action="append",
        metavar="SRC,DST[,W]",
        help="mutate op: edge to insert (repeatable)",
    )
    p.add_argument(
        "--remove",
        action="append",
        metavar="SRC,DST",
        help="mutate op: edge to remove (repeatable)",
    )
    p.add_argument(
        "--connect-timeout",
        type=float,
        default=60.0,
        help="socket timeout for connecting and reading, seconds",
    )
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser(
        "top",
        help="live terminal dashboard over a running `repro serve` "
        "(latency percentiles and worker stats need --observe)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between metric scrapes",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after N frames (0 = run until interrupted)",
    )
    p.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (for logs/CI)",
    )
    p.add_argument(
        "--connect-timeout",
        type=float,
        default=60.0,
        help="socket timeout for connecting and reading, seconds",
    )
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "stream",
        help="replay a windowed edge stream with incremental queries",
    )
    p.add_argument("--scale", type=int, default=10, help="R-MAT scale (2^scale vertices)")
    p.add_argument("--edge-factor", type=int, default=8)
    p.add_argument(
        "--base-fraction",
        type=float,
        default=0.5,
        help="fraction of edges in the initial snapshot",
    )
    p.add_argument(
        "--delete-fraction",
        type=float,
        default=0.2,
        help="deletions interleaved per insert",
    )
    p.add_argument("--window", type=int, default=1024, help="events per window")
    p.add_argument(
        "--windows", type=int, default=None, help="stop after this many windows"
    )
    p.add_argument(
        "--algorithm",
        action="append",
        choices=STREAM_ALGORITHMS,
        help="queries to run each window (repeatable; default all)",
    )
    p.add_argument("--source", type=int, default=0)
    p.add_argument(
        "--policy",
        choices=["seq", "par", "par_vector", "par_proc"],
        default="par_vector",
    )
    p.add_argument(
        "--no-compare",
        action="store_true",
        help="skip the full-recompute baseline each window",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="verify incremental == full every window; exit 1 on mismatch",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(fn=cmd_stream)

    p = sub.add_parser("table1", help="print the capability matrix")
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser(
        "verify",
        help="conformance harness: differential matrix, metamorphic "
        "oracles, race checker; exits 1 on any divergence",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick",
        action="store_true",
        help="small graphs, pinned secondary axes (the default; CI mode)",
    )
    mode.add_argument(
        "--full",
        action="store_true",
        help="all pool graphs and the full variant product (nightly mode)",
    )
    p.add_argument(
        "--algo",
        action="append",
        help="restrict to this algorithm (repeatable)",
    )
    p.add_argument(
        "--graph",
        action="append",
        help="restrict to this pool graph (repeatable)",
    )
    p.add_argument(
        "--policy",
        action="append",
        choices=_POLICIES + ["async"],
        help="matrix only: restrict the policy axis (repeatable)",
    )
    p.add_argument(
        "--direction",
        action="append",
        choices=["push", "pull", "auto"],
        help="matrix only: restrict the direction axis (repeatable)",
    )
    p.add_argument(
        "--representation",
        action="append",
        choices=["sparse", "dense", "auto"],
        help="matrix only: restrict the frontier-representation axis",
    )
    p.add_argument(
        "--fused",
        choices=["on", "off", "both"],
        default="both",
        help="matrix only: restrict the operator-fusion axis",
    )
    p.add_argument(
        "--backend",
        choices=["native", "linalg"],
        help="matrix only: restrict the execution-backend axis (linalg: "
        "scipy's spgemm)",
    )
    p.add_argument(
        "--metamorphic",
        action="store_true",
        help="run only the metamorphic suite",
    )
    p.add_argument(
        "--dynamic",
        action="store_true",
        help="run only the dynamic (incremental==full) oracle",
    )
    p.add_argument(
        "--races",
        action="store_true",
        help="run only the race checker",
    )
    p.add_argument(
        "--no-matrix",
        action="store_true",
        help="skip the differential matrix",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trials",
        type=int,
        default=3,
        help="perturbed runs per (algorithm, graph) in the race checker",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="list oracle-registered algorithms and pool graphs",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")
    _add_ledger_args(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
