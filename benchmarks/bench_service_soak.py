#!/usr/bin/env python
"""Chaos soak for the query service (``repro serve``).

Drives a real :class:`GraphQueryServer` over TCP with a mixed client
fleet while injecting faults, and asserts the service's operational
contract instead of just timing it:

* **Deadline compliance** — every query that carried a ``timeout_s``
  is *answered* (with any code) within ``timeout_s + GRACE_S``; a 504
  that arrives late is a broken promise, not a degraded one.
* **Zero leaked threads** — after ``server.stop()`` the process is back
  to its pre-server thread count: connection threads joined, worker
  pools drained, no orphaned pollers.
* **Breaker cycle** — a hammered (graph, algorithm) pair trips its
  circuit breaker OPEN, degrades to stale/503 while open, and recovers
  to CLOSED after the cooldown probe succeeds.
* **Load shedding** — an admission-saturating burst sheds with 429
  rather than queueing without bound.
* **Crash recovery** — a ``repro serve`` subprocess SIGKILLed with a
  query in flight restarts on the same ``--data-dir``, marks the orphan
  aborted in the journal, and serves immediately.

The run ends with the mixed phase's p50/p95/p99 round-trip latencies
and throughput on one line.  Tracked service latencies are the
benchmark suite's ``service-*`` workloads (``benchmarks/suite/``).

Usage::

    python benchmarks/bench_service_soak.py --smoke            # CI, ~15 s
    python benchmarks/bench_service_soak.py --seconds 30       # the soak
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Answer-by grace on top of a query's own deadline (socket + superstep
#: boundary + bookkeeping).  The acceptance bound from the issue.
GRACE_S = 0.25

#: Response codes the mixed phase is allowed to see.  500 is reachable
#: when injected chaos outlives the server's retry budget and there is
#: no stale entry to degrade to — rare, legal, counted.
EXPECTED_CODES = {200, 206, 400, 404, 408, 429, 500, 503, 504}


def _bootstrap() -> None:
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


# -- workload mix ----------------------------------------------------------------------


def _pick_request(rng: random.Random) -> dict:
    """One request from the mixed distribution (good, tight-deadline,
    cacheable-repeat, bad-params, unknown-graph)."""
    roll = rng.random()
    if roll < 0.05:
        return {"graph": "nope", "algorithm": "bfs", "params": {}}  # 404
    if roll < 0.10:
        return {  # client mistake: 400, must not trip the breaker
            "graph": "grid",
            "algorithm": "sssp",
            "params": {"source": -1},
        }
    if roll < 0.25:
        return {  # induced timeout: tiny budget, huge pagerank -> 206/504
            "graph": "grid",
            "algorithm": "pagerank",
            "params": {"tolerance": 0.0, "max_iterations": 100000},
            "timeout_s": rng.choice([0.005, 0.02, 0.05]),
        }
    if roll < 0.40:
        return {  # cacheable repeat: identical params across the fleet
            "graph": "grid",
            "algorithm": "cc",
            "params": {},
            "timeout_s": 10.0,
        }
    algorithm = rng.choice(["bfs", "sssp", "pagerank", "ppr", "cc"])
    params: dict = {}
    if algorithm in ("bfs", "sssp", "ppr"):
        params["source"] = rng.randrange(0, 256)  # within both graphs
    return {
        "graph": rng.choice(["grid", "ring"]),
        "algorithm": algorithm,
        "params": params,
        "timeout_s": 10.0,
    }


# -- phases ----------------------------------------------------------------------------


def mixed_phase(address, seconds, clients, seed, log):
    """The client fleet: mixed queries against a live server."""
    from repro.service import ServiceClient

    stop_at = time.monotonic() + seconds
    lock = threading.Lock()
    samples = []  # (code, wall_s, timeout_s or None)
    errors = []

    def fleet(worker: int) -> None:
        rng = random.Random(seed * 1000 + worker)
        try:
            with ServiceClient(*address, timeout=60.0) as client:
                while time.monotonic() < stop_at:
                    req = _pick_request(rng)
                    t0 = time.monotonic()
                    resp = client.query(
                        req["graph"],
                        req["algorithm"],
                        req["params"],
                        timeout_s=req.get("timeout_s"),
                        tenant=f"tenant{worker % 3}",
                    )
                    wall = time.monotonic() - t0
                    with lock:
                        samples.append(
                            (resp["code"], wall, req.get("timeout_s"))
                        )
        except Exception as exc:  # noqa: BLE001 - a dead client is a finding
            with lock:
                errors.append(f"client {worker}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=fleet, args=(i,), name=f"soak-client-{i}")
        for i in range(clients)
    ]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - t0

    assert not errors, f"client fleet died: {errors}"
    assert samples, "mixed phase produced no samples"

    codes: dict = {}
    for code, _, _ in samples:
        codes[code] = codes.get(code, 0) + 1
    unexpected = set(codes) - EXPECTED_CODES
    assert not unexpected, f"unexpected response codes: {unexpected}"
    assert codes.get(200, 0) > 0, f"no successful queries at all: {codes}"

    late = [
        (code, wall, timeout)
        for code, wall, timeout in samples
        if timeout is not None and wall > timeout + GRACE_S
    ]
    assert not late, (
        f"{len(late)} responses broke the deadline+{GRACE_S}s bound "
        f"(worst: {max(w - t for _, w, t in late):.3f}s over): {late[:5]}"
    )

    ok_lat = sorted(w for c, w, _ in samples if c in (200, 206))
    log(
        f"mixed: {len(samples)} requests in {elapsed:.1f}s "
        f"({len(samples) / elapsed:.1f} qps), codes {codes}"
    )
    return {
        "requests": len(samples),
        "elapsed_s": elapsed,
        "qps": len(samples) / elapsed,
        "codes": {str(k): v for k, v in sorted(codes.items())},
        "p50_s": _percentile(ok_lat, 0.50),
        "p95_s": _percentile(ok_lat, 0.95),
        "p99_s": _percentile(ok_lat, 0.99),
    }


def breaker_phase(service, address, log):
    """Trip one breaker with induced timeouts; watch it recover."""
    from repro.service import ServiceClient
    from repro.service.breaker import CLOSED, OPEN

    threshold = service.config.breaker_threshold
    with ServiceClient(*address, timeout=60.0) as client:
        # sssp has no anytime prefix: a tiny budget is a guaranteed 504.
        for _ in range(threshold):
            resp = client.query(
                "grid", "sssp", {"source": 7}, timeout_s=1e-4
            )
            assert resp["code"] == 504, f"expected 504, got {resp}"
        breaker = service.breakers.of("grid", "sssp")
        assert breaker.state == OPEN, f"breaker not open: {breaker.stats()}"

        # While open: instant degradation, no execution.
        resp = client.query("grid", "sssp", {"source": 7}, timeout_s=5.0)
        assert resp["code"] == 503 or resp["server"].get("stale"), resp

        time.sleep(service.config.breaker_cooldown_s + 0.1)
        resp = client.query("grid", "sssp", {"source": 7}, timeout_s=10.0)
        assert resp["code"] == 200, f"probe after cooldown failed: {resp}"
        assert breaker.state == CLOSED, breaker.stats()
    log(
        f"breaker: opened after {threshold} induced timeouts, "
        f"recovered after {service.config.breaker_cooldown_s}s cooldown"
    )


def shedding_phase(service, address, log):
    """Saturate admission; the overflow must shed with 429."""
    from repro.service import ServiceClient

    burst = service.config.max_concurrent + service.config.max_queue_depth + 8
    codes = []
    lock = threading.Lock()

    def one(i: int) -> None:
        with ServiceClient(*address, timeout=60.0) as client:
            resp = client.query(
                "grid",
                "pagerank",
                {"tolerance": 0.0, "max_iterations": 2000, "damping": 0.85},
                timeout_s=10.0,
                tenant=f"burst{i}",
            )
            with lock:
                codes.append(resp["code"])

    threads = [threading.Thread(target=one, args=(i,)) for i in range(burst)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    shed = codes.count(429) + codes.count(408)
    served = codes.count(200) + codes.count(206)
    assert served > 0, f"burst starved everything: {codes}"
    assert shed > 0, (
        f"burst of {burst} against {service.config.max_concurrent} slots "
        f"shed nothing: {codes}"
    )
    log(f"shedding: burst {burst} -> {served} served, {shed} shed")


def crash_recovery_phase(log):
    """SIGKILL a serve subprocess mid-query; the restart must recover."""
    from repro.service import ServiceClient
    from repro.service.protocol import encode

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")

    def start_serve(data_dir, extra=()):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *extra,
             "--port", "0", "--data-dir", data_dir, "--no-ledger"],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        banner = proc.stdout.readline()
        match = re.search(r"on ([\d.]+):(\d+)", banner)
        assert match, f"no serve banner: {banner!r} (rc={proc.poll()})"
        return proc, (match.group(1), int(match.group(2)))

    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        data_dir = os.path.join(tmp, "svc")
        proc, (host, port) = start_serve(
            data_dir, ("--graph", "grid=grid:7")
        )
        sock = None
        try:
            # A long query, fired and abandoned: journal gets a begin.
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.sendall(encode({
                "op": "query", "graph": "grid", "algorithm": "pagerank",
                "params": {"tolerance": 0.0, "max_iterations": 10_000_000},
                "timeout_s": 120.0,
            }))
            journal = os.path.join(data_dir, "journal.jsonl")
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if os.path.exists(journal) and '"begin"' in open(journal).read():
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("query never reached the journal")
        finally:
            proc.kill()  # SIGKILL: no atexit, no journal end record
            proc.wait(timeout=30)
            if sock is not None:
                sock.close()

        # Restart on the same data dir: catalog comes back from the
        # manifest (no --graph), the orphaned query is marked aborted.
        proc, (host, port) = start_serve(data_dir)
        try:
            with ServiceClient(host, port, timeout=30.0) as client:
                stats = client.stats()
                assert stats["recovered_aborted"] >= 1, stats
                assert stats["catalog"] == ["grid"], stats
                resp = client.query("grid", "bfs", {"source": 0},
                                    timeout_s=10.0)
                assert resp["code"] == 200, resp
        finally:
            proc.terminate()
            rc = proc.wait(timeout=30)
        assert rc == 130, f"SIGTERM exit was {rc}, want 130"
        events = [json.loads(l) for l in open(journal)]
        assert any(e.get("event") == "aborted" for e in events), events
    log("crash recovery: SIGKILL mid-query -> restart aborted the "
        "orphan, restored the catalog, answered, exited 130 on TERM")


# -- latency summary --------------------------------------------------------------------


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return float(sorted_values[idx])


# -- main ------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="mixed-phase duration (default 30)")
    parser.add_argument("--clients", type=int, default=6,
                        help="concurrent client threads (default 6)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI preset: short mixed phase, small fleet")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--observe", action="store_true",
                        help="soak with per-query tracing, latency "
                        "histograms, and the incident flight recorder on "
                        "(measures the observability layer under load)")
    parser.add_argument("--skip-subprocess", action="store_true",
                        help="skip the kill-and-restart phase")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 5.0)
        args.clients = min(args.clients, 4)

    _bootstrap()
    from repro.resilience import FaultInjector, ResiliencePolicy, RetryPolicy
    from repro.service import (
        GraphCatalog,
        GraphQueryServer,
        QueryService,
        ServiceConfig,
    )

    def log(msg: str) -> None:
        print(f"[soak] {msg}")
        sys.stdout.flush()

    catalog = GraphCatalog()
    catalog.add({"name": "grid", "generator": "grid", "scale": 10, "seed": 0})
    catalog.add({"name": "ring", "generator": "ws", "scale": 8, "seed": 1})

    baseline_threads = threading.active_count()
    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        service = QueryService(
            catalog,
            data_dir=os.path.join(tmp, "svc"),
            config=ServiceConfig(
                max_concurrent=4,
                max_queue_depth=4,
                breaker_threshold=5,
                breaker_cooldown_s=1.0,
                cache_ttl_s=5.0,
                record_ledger=False,
                observe=args.observe,
                incidents_dir=os.path.join(tmp, "incidents"),
            ),
        )
        # Chaos rides the server's own resilience policy: injected task
        # faults are mostly absorbed by its retries; the survivors
        # exercise the 500 / stale-while-error path.
        service._resilience = ResiliencePolicy(
            chaos=FaultInjector(seed=args.seed, task_rate=0.01),
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0),
        )
        server = GraphQueryServer(service)
        server.start()
        log(f"serving {sorted(catalog.names())} on "
            f"{server.address[0]}:{server.address[1]}")
        try:
            mixed = mixed_phase(
                server.address, args.seconds, args.clients, args.seed, log
            )
            breaker_phase(service, server.address, log)
            shedding_phase(service, server.address, log)
        finally:
            server.stop()

        settle = time.monotonic() + 5.0
        while (
            threading.active_count() > baseline_threads
            and time.monotonic() < settle
        ):
            time.sleep(0.02)
        leaked = threading.active_count() - baseline_threads
        assert leaked <= 0, f"{leaked} threads leaked after server.stop()"
        log("threads: zero leaked after stop")

        if args.observe:
            flight = service.observability.flight.stats()
            latency = service.observability.latency_summary()
            overall = latency.get("_all", {})
            log(
                f"observe: {flight['recorded']} ring events, "
                f"{flight['dumped']} incident files, traced p99 "
                f"{overall.get('p99', 0.0):.1f} ms over "
                f"{int(overall.get('count', 0))} queries"
            )

        assert service.journal is not None
        assert service.journal.in_flight() == [], "journal left orphans"

    if not args.skip_subprocess:
        crash_recovery_phase(log)

    log(
        f"PASS: p50 {mixed['p50_s'] * 1e3:.1f} ms, "
        f"p95 {mixed['p95_s'] * 1e3:.1f} ms, "
        f"p99 {mixed['p99_s'] * 1e3:.1f} ms, "
        f"{mixed['qps']:.1f} qps"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
