"""Query-service tests: protocol, admission, breaker, cache, journal,
catalog, the full handler pipeline, and the TCP layer.

The handler tests drive :meth:`QueryService.handle` on plain dicts —
every policy decision (shed, 404, 504, stale-while-error, breaker
cycling) is asserted without a socket.  The socket tests then check
only what the socket adds: framing, concurrency, and zero leaked
threads after stop.
"""

import dataclasses
import functools
import json
import os
import threading
import time

import pytest

from repro.algorithms import REGISTRY
from repro.errors import (
    AdmissionRejected,
    CatalogError,
    ProtocolError,
    ServiceError,
)
from repro.service import (
    AdmissionController,
    BreakerBoard,
    CircuitBreaker,
    GraphCatalog,
    GraphQueryServer,
    QueryJournal,
    QueryService,
    ResultCache,
    ServiceClient,
    ServiceConfig,
    cache_key,
    parse_graph_spec,
)
from repro.service import protocol
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN


# -- protocol --------------------------------------------------------------------------


class TestProtocol:
    def test_roundtrip(self):
        req = {"op": "query", "graph": "g", "algorithm": "bfs", "params": {}}
        assert protocol.decode(protocol.encode(req)) == req

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            protocol.decode(b"not json\n")
        with pytest.raises(ProtocolError):
            protocol.decode(b"[1, 2]\n")

    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError, match="cap"):
            protocol.decode(b"x" * (protocol.MAX_FRAME_BYTES + 1))

    def test_validate_fills_defaults(self):
        req = protocol.validate_request(
            {"graph": "g", "algorithm": "pagerank"}
        )
        assert req["op"] == "query"
        assert req["tenant"] == "default"
        assert req["params"] == REGISTRY["pagerank"].defaults
        assert req["timeout_s"] is None

    @pytest.mark.parametrize(
        "bad",
        [
            {"op": "explode"},
            {"op": "query"},  # no graph
            {"op": "query", "graph": "g"},  # no algorithm
            {"op": "query", "graph": "g", "algorithm": "quantum"},
            {"op": "query", "graph": "g", "algorithm": "bfs", "params": 3},
            {
                "op": "query",
                "graph": "g",
                "algorithm": "bfs",
                "timeout_s": -1,
            },
        ],
    )
    def test_validate_rejects(self, bad):
        with pytest.raises(ProtocolError):
            protocol.validate_request(bad)

    def test_response_status_mapping(self):
        assert protocol.response(None, 200)["status"] == "ok"
        assert protocol.response(None, 206)["status"] == "partial"
        assert protocol.response(None, 429)["status"] == "error"
        resp = protocol.response({"id": 7}, 200, result={"x": 1}, cached=True)
        assert resp["id"] == 7
        assert resp["server"]["cached"] is True


@pytest.mark.parametrize(
    "algorithm, entry",
    [
        (name, spec.entry.__name__)
        for name, spec in REGISTRY.items()
        if "policy" in spec.fields
    ],
)
def test_query_policy_reaches_the_entry_point(algorithm, entry, monkeypatch):
    from repro.graph.generators import grid_2d
    from repro.service.queries import execute_query

    spec = REGISTRY[algorithm]
    seen = []

    @functools.wraps(spec.entry)
    def spy(*args, **kwargs):
        seen.append(kwargs.get("policy"))
        return spec.entry(*args, **kwargs)

    monkeypatch.setitem(REGISTRY, algorithm, dataclasses.replace(spec, entry=spy))
    graph = grid_2d(5, 5, weighted=True, seed=1)
    source = {"source": 0} if "source" in spec.fields else {}
    execute_query(graph, algorithm, {**source, "policy": "seq"})
    assert seen == ["seq"]
    with pytest.raises(ProtocolError):
        execute_query(graph, algorithm, {**source, "policy": "warp"})


# -- admission -------------------------------------------------------------------------


class TestAdmission:
    def test_acquire_release_counts(self):
        adm = AdmissionController(max_concurrent=2)
        adm.acquire("a")
        adm.acquire("b")
        assert adm.active == 2
        adm.release("a")
        adm.release("b")
        assert adm.active == 0
        assert adm.stats()["admitted"] == 2

    def test_queue_full_sheds_immediately(self):
        adm = AdmissionController(max_concurrent=1, max_queue_depth=0)
        adm.acquire("a")
        t0 = time.monotonic()
        with pytest.raises(AdmissionRejected) as info:
            adm.acquire("b", timeout=5.0)
        assert info.value.reason == "queue_full"
        assert time.monotonic() - t0 < 0.5  # shed, not queued
        adm.release("a")

    def test_tenant_cap_sheds(self):
        adm = AdmissionController(max_concurrent=4, per_tenant_limit=1)
        adm.acquire("greedy")
        with pytest.raises(AdmissionRejected) as info:
            adm.acquire("greedy")
        assert info.value.reason == "tenant_cap"
        adm.acquire("polite")  # other tenants unaffected
        adm.release("greedy")
        adm.release("polite")

    def test_wait_timeout_sheds(self):
        adm = AdmissionController(max_concurrent=1, max_queue_depth=4)
        adm.acquire("a")
        with pytest.raises(AdmissionRejected) as info:
            adm.acquire("b", timeout=0.05)
        assert info.value.reason == "timeout"
        assert adm.stats()["shed_timeout"] == 1
        adm.release("a")

    def test_waiter_admitted_on_release(self):
        adm = AdmissionController(max_concurrent=1, max_queue_depth=4)
        adm.acquire("a")
        admitted = threading.Event()

        def waiter():
            adm.acquire("b", timeout=5.0)
            admitted.set()

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        assert not admitted.is_set()
        adm.release("a")
        t.join(timeout=5.0)
        assert admitted.is_set()
        adm.release("b")

    def test_release_without_acquire_raises(self):
        with pytest.raises(ServiceError):
            AdmissionController().release("x")


# -- breaker ---------------------------------------------------------------------------


class TestBreaker:
    def _breaker(self, clock, **kw):
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("cooldown_s", 10.0)
        return CircuitBreaker(clock=lambda: clock[0], **kw)

    def test_opens_after_consecutive_failures(self):
        clock = [0.0]
        b = self._breaker(clock)
        for _ in range(2):
            assert b.allow()
            b.record(False)
        assert b.state == CLOSED  # one short of threshold
        b.allow()
        b.record(False)
        assert b.state == OPEN
        assert not b.allow()

    def test_success_resets_the_count(self):
        clock = [0.0]
        b = self._breaker(clock)
        b.record(False)
        b.record(False)
        b.record(True)
        b.record(False)
        b.record(False)
        assert b.state == CLOSED

    def test_half_open_probe_closes_on_success(self):
        clock = [0.0]
        b = self._breaker(clock)
        for _ in range(3):
            b.record(False)
        assert not b.allow()
        clock[0] = 11.0  # past cooldown
        assert b.allow()  # the probe
        assert b.state == HALF_OPEN
        assert not b.allow()  # only ONE probe at a time
        b.record(True)
        assert b.state == CLOSED
        assert b.allow()

    def test_half_open_probe_reopens_on_failure(self):
        clock = [0.0]
        b = self._breaker(clock)
        for _ in range(3):
            b.record(False)
        clock[0] = 11.0
        assert b.allow()
        b.record(False)
        assert b.state == OPEN
        assert not b.allow()  # cooldown restarted at t=11
        clock[0] = 22.0
        assert b.allow()

    def test_board_isolates_pairs(self):
        board = BreakerBoard(failure_threshold=1, cooldown_s=10.0)
        board.of("g", "bfs").record(False)
        assert board.of("g", "bfs").state == OPEN
        assert board.of("g", "pagerank").state == CLOSED
        assert board.of("h", "bfs").state == CLOSED
        assert "g/bfs" in board.stats()


# -- cache -----------------------------------------------------------------------------


class TestCache:
    def _cache(self, clock, **kw):
        kw.setdefault("capacity", 3)
        kw.setdefault("ttl_s", 10.0)
        return ResultCache(clock=lambda: clock[0], **kw)

    def test_fresh_hit_within_ttl(self):
        clock = [0.0]
        c = self._cache(clock)
        c.put("k", {"v": 1})
        assert c.get_fresh("k") == {"v": 1}
        clock[0] = 11.0
        assert c.get_fresh("k") is None  # expired
        result, age = c.get_stale("k")  # but stale path still serves
        assert result == {"v": 1} and age == 11.0

    def test_lru_eviction(self):
        clock = [0.0]
        c = self._cache(clock)
        for i in range(3):
            c.put(f"k{i}", {"v": i})
        c.get_fresh("k0")  # refresh k0's recency
        c.put("k3", {"v": 3})
        assert c.get_fresh("k0") is not None
        assert c.get_fresh("k1") is None  # the LRU victim
        assert len(c) == 3

    def test_cache_key_canonicalizes_params(self):
        assert cache_key("g", "bfs", {"a": 1, "b": 2}) == cache_key(
            "g", "bfs", {"b": 2, "a": 1}
        )
        assert cache_key("g", "bfs", {"a": 1}) != cache_key(
            "g", "bfs", {"a": 2}
        )


# -- journal ---------------------------------------------------------------------------


class TestJournal:
    def test_begin_end_resolves(self, tmp_path):
        j = QueryJournal(str(tmp_path / "journal.jsonl"))
        j.begin("q1", graph="g", algorithm="bfs")
        j.end("q1", code=200, seconds=0.1)
        assert j.in_flight() == []

    def test_recover_marks_orphans_aborted(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        j = QueryJournal(path)
        j.begin("q1", graph="g", algorithm="bfs")
        j.end("q1", code=200, seconds=0.1)
        j.begin("q2", graph="g", algorithm="pagerank")  # "crash" here

        j2 = QueryJournal(path)  # the restarted process
        orphans = j2.recover()
        assert [o["qid"] for o in orphans] == ["q2"]
        assert j2.in_flight() == []
        events = list(j2.events())
        assert events[-1]["event"] == "aborted"
        assert j2.recover() == []  # idempotent

    def test_corrupt_lines_counted(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        j = QueryJournal(path)
        j.begin("q1", graph="g", algorithm="bfs")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn!!\n')
        j.end("q1", code=200, seconds=0.1)
        assert len(list(j.events())) == 2
        assert j.skipped_lines == 1


# -- catalog ---------------------------------------------------------------------------


class TestCatalog:
    def test_parse_path_spec(self):
        assert parse_graph_spec("web=data/web.npz") == {
            "name": "web",
            "path": "data/web.npz",
        }

    def test_parse_generator_specs(self):
        assert parse_graph_spec("g=grid:8") == {
            "name": "g",
            "generator": "grid",
            "scale": 8,
        }
        spec = parse_graph_spec("r=rmat:6:seed=3:edge_factor=4")
        assert spec == {
            "name": "r",
            "generator": "rmat",
            "scale": 6,
            "seed": 3,
            "edge_factor": 4,
        }

    @pytest.mark.parametrize("bad", ["noequals", "=grid:8", "g=grid:8:bogus=1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(CatalogError):
            parse_graph_spec(bad)

    def test_add_get_and_unknown(self):
        cat = GraphCatalog()
        g = cat.add({"name": "g", "generator": "grid", "scale": 6})
        assert cat.get("g") is g
        assert "g" in cat and len(cat) == 1
        with pytest.raises(CatalogError, match="unknown graph"):
            cat.get("nope")

    def test_manifest_persists_and_restores(self, tmp_path):
        data_dir = str(tmp_path / "svc")
        cat = GraphCatalog(data_dir=data_dir)
        cat.add({"name": "g", "generator": "grid", "scale": 6, "seed": 1})
        assert os.path.exists(os.path.join(data_dir, "catalog.json"))

        fresh = GraphCatalog(data_dir=data_dir)
        assert fresh.restore() == ["g"]
        assert fresh.get("g").n_vertices == cat.get("g").n_vertices
        assert fresh.describe()["g"]["spec"]["generator"] == "grid"


# -- the handler pipeline --------------------------------------------------------------


@pytest.fixture
def service(tmp_path):
    cat = GraphCatalog()
    cat.add({"name": "g", "generator": "grid", "scale": 8, "seed": 0})
    return QueryService(
        cat,
        data_dir=str(tmp_path / "svc"),
        config=ServiceConfig(
            breaker_threshold=2,
            breaker_cooldown_s=0.2,
            cache_ttl_s=0.2,
            record_ledger=False,
        ),
    )


def query(service, algorithm="pagerank", graph="g", params=None, **extra):
    req = {
        "op": "query",
        "graph": graph,
        "algorithm": algorithm,
        "params": params or {},
    }
    req.update(extra)
    return service.handle(req)


class TestHandlerPipeline:
    def test_ok_query_and_cache_hit(self, service):
        first = query(service)
        assert first["code"] == 200
        assert first["result"]["converged"] is True
        assert first["result"]["n"] == 256
        second = query(service)
        assert second["code"] == 200
        assert second["server"]["cached"] is True

    def test_unknown_graph_404(self, service):
        assert query(service, graph="nope")["code"] == 404

    def test_malformed_request_400(self, service):
        assert service.handle({"op": "query"})["code"] == 400
        assert service.handle({"op": "voodoo"})["code"] == 400

    def test_bad_params_400_not_500(self, service):
        resp = query(service, "bfs", params={"source": 10**9})
        assert resp["code"] == 400
        assert "out of range" in resp["error"]

    def test_deadline_504_within_grace(self, service):
        t0 = time.monotonic()
        resp = query(service, "bfs", timeout_s=1e-4)
        elapsed = time.monotonic() - t0
        assert resp["code"] == 504
        assert "deadline exceeded" in resp["error"]
        assert elapsed < 1e-4 + 0.25  # the issue's grace bound

    def test_pagerank_partial_206(self, service):
        resp = query(
            service,
            "pagerank",
            params={"tolerance": 0.0, "max_iterations": 100000},
            timeout_s=0.03,
        )
        assert resp["code"] == 206
        assert resp["status"] == "partial"
        assert resp["result"]["converged"] is False

    def test_breaker_opens_serves_stale_then_recovers(self, service):
        # Prime the cache with a completed bfs.
        assert query(service, "bfs")["code"] == 200
        time.sleep(0.25)  # let the fresh entry expire (ttl_s=0.2)

        # Two deadline blowups open the breaker (threshold=2).
        for _ in range(2):
            assert query(service, "bfs", timeout_s=1e-4)["code"] == 504
        assert service.breakers.of("g", "bfs").state == OPEN

        # Open + cached history => stale serve, marked as such.
        resp = query(service, "bfs")
        assert resp["code"] == 200
        assert resp["server"]["stale"] is True
        assert resp["server"]["breaker"] == "open"

        # Open + no history (different params) => 503.
        resp = query(service, "bfs", params={"source": 5})
        assert resp["code"] == 503

        # After the cooldown one probe runs; success closes the breaker.
        time.sleep(0.25)
        resp = query(service, "bfs", params={"source": 5})
        assert resp["code"] == 200
        assert service.breakers.of("g", "bfs").state == CLOSED

    def test_client_errors_do_not_trip_breaker(self, service):
        for _ in range(5):
            assert query(service, "bfs", params={"source": -5})["code"] == 400
        assert service.breakers.of("g", "bfs").state == CLOSED

    def test_internal_error_serves_stale(self, service, monkeypatch):
        assert query(service, "cc")["code"] == 200
        time.sleep(0.25)  # past ttl: fresh path misses

        import repro.service.server as server_mod

        def explode(*a, **kw):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(server_mod, "execute_query", explode)
        resp = query(service, "cc")
        assert resp["code"] == 200
        assert resp["server"]["stale"] is True
        assert "kaboom" in resp["error"]

    def test_journal_records_every_query(self, service):
        query(service)
        query(service, "bfs", timeout_s=1e-4)
        events = list(service.journal.events())
        begins = [e for e in events if e["event"] == "begin"]
        ends = [e for e in events if e["event"] == "end"]
        # The cache-missing executions journal; the codes land in 'end'.
        assert len(begins) == len(ends) == 2
        assert sorted(e["code"] for e in ends) == [200, 504]

    def test_ping_stats_catalog_ops(self, service):
        assert service.handle({"op": "ping"})["result"]["pong"] is True
        query(service)
        stats = service.handle({"op": "stats"})["result"]
        assert stats["catalog"] == ["g"]
        assert stats["codes"]["200"] == 1
        cat = service.handle({"op": "catalog"})["result"]
        assert cat["g"]["n_vertices"] == 256

    def test_shed_429_when_saturated(self, service, monkeypatch):
        import repro.service.server as server_mod

        release = threading.Event()
        started = threading.Event()

        def slow(*a, **kw):
            started.set()
            release.wait(5.0)
            return {"algorithm": "x", "n": 0, "converged": True,
                    "partial": False, "iterations": 0, "checksum": 0.0,
                    "head": []}

        monkeypatch.setattr(server_mod, "execute_query", slow)
        monkeypatch.setattr(service.admission, "max_concurrent", 1)
        monkeypatch.setattr(service.admission, "max_queue_depth", 0)

        results = {}
        t = threading.Thread(
            target=lambda: results.update(slow_resp=query(service, "sssp"))
        )
        t.start()
        assert started.wait(5.0)
        shed = query(service, "sssp", params={"source": 1})
        assert shed["code"] == 429
        assert shed["server"]["shed"] == "queue_full"
        release.set()
        t.join(5.0)
        assert results["slow_resp"]["code"] == 200

    def test_tenant_cap_sheds_per_tenant(self, tmp_path, monkeypatch):
        cat = GraphCatalog()
        cat.add({"name": "g", "generator": "grid", "scale": 6})
        svc = QueryService(
            cat,
            config=ServiceConfig(
                per_tenant_limit=1, record_ledger=False
            ),
        )
        import repro.service.server as server_mod

        release = threading.Event()
        started = threading.Event()

        def slow(*a, **kw):
            started.set()
            release.wait(5.0)
            return {"algorithm": "x", "n": 0, "converged": True,
                    "partial": False, "iterations": 0, "checksum": 0.0,
                    "head": []}

        monkeypatch.setattr(server_mod, "execute_query", slow)
        t = threading.Thread(
            target=lambda: query(svc, "sssp", tenant="greedy")
        )
        t.start()
        assert started.wait(5.0)
        shed = query(svc, "sssp", params={"source": 1}, tenant="greedy")
        assert shed["code"] == 429
        assert shed["server"]["shed"] == "tenant_cap"
        release.set()
        t.join(5.0)

    def test_shutdown_op_cancels_in_flight(self, service):
        resp = service.handle({"op": "shutdown"})
        assert resp["code"] == 200
        assert service.shutdown_requested.is_set()


class TestCrashRecovery:
    def test_restart_replays_journal_and_catalog(self, tmp_path):
        data_dir = str(tmp_path / "svc")
        cat = GraphCatalog(data_dir=data_dir)
        cat.add({"name": "g", "generator": "grid", "scale": 6, "seed": 0})
        svc = QueryService(
            cat, data_dir=data_dir, config=ServiceConfig(record_ledger=False)
        )
        assert query(svc, "bfs")["code"] == 200
        # Simulate dying mid-query: a begin with no end.
        svc.journal.begin("q-crash", graph="g", algorithm="pagerank")

        # --- restart ---
        cat2 = GraphCatalog(data_dir=data_dir)
        assert cat2.restore() == ["g"]
        svc2 = QueryService(
            cat2, data_dir=data_dir, config=ServiceConfig(record_ledger=False)
        )
        assert [o["qid"] for o in svc2.recovered] == ["q-crash"]
        assert svc2.journal.in_flight() == []
        assert query(svc2, "bfs")["code"] == 200  # fully operational
        assert svc2.stats()["recovered_aborted"] == 1


# -- the TCP layer ---------------------------------------------------------------------


class TestSocketServer:
    @pytest.fixture
    def running(self, tmp_path):
        cat = GraphCatalog()
        cat.add({"name": "g", "generator": "grid", "scale": 8})
        service = QueryService(
            cat, config=ServiceConfig(record_ledger=False)
        )
        server = GraphQueryServer(service)
        server.start()
        yield server
        server.stop()

    def test_roundtrip_and_concurrency(self, running):
        host, port = running.address

        results = []
        lock = threading.Lock()

        def client_run(i):
            with ServiceClient(host, port) as c:
                r = c.query("g", "bfs", {"source": i})
                with lock:
                    results.append(r["code"])

        threads = [
            threading.Thread(target=client_run, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert results == [200] * 6

    def test_tc_answers_without_per_vertex_values(self, running):
        host, port = running.address
        with ServiceClient(host, port) as c:
            r = c.query("g", "tc")
        assert r["code"] == 200
        assert r["result"]["triangles"] == 0  # grids have none
        assert not {"n", "checksum", "head"} & set(r["result"])

    def test_garbage_line_gets_400_connection_survives(self, running):
        import socket

        host, port = running.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            f = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            resp = json.loads(f.readline())
            assert resp["code"] == 400
            sock.sendall(protocol.encode({"op": "ping"}))
            assert json.loads(f.readline())["code"] == 200

    def test_stop_leaks_no_threads(self, tmp_path):
        cat = GraphCatalog()
        cat.add({"name": "g", "generator": "grid", "scale": 6})
        service = QueryService(cat, config=ServiceConfig(record_ledger=False))
        baseline = threading.active_count()
        server = GraphQueryServer(service)
        server.start()
        host, port = server.address
        with ServiceClient(host, port) as c:
            assert c.ping()
        server.stop()
        deadline = time.monotonic() + 5.0
        while (
            threading.active_count() > baseline
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert threading.active_count() <= baseline

    def test_shutdown_op_over_the_wire(self, tmp_path):
        cat = GraphCatalog()
        cat.add({"name": "g", "generator": "grid", "scale": 6})
        service = QueryService(cat, config=ServiceConfig(record_ledger=False))
        server = GraphQueryServer(service)
        server.start()
        try:
            host, port = server.address
            with ServiceClient(host, port) as c:
                resp = c.shutdown()
            assert resp["code"] == 200
            assert service.shutdown_requested.is_set()
        finally:
            server.stop()
