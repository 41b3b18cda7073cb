"""Tests for the command-line interface (direct main() invocation)."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.graph.generators import grid_2d
from repro.graph.io import load_graph_npz, save_graph_npz


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.npz"
    save_graph_npz(grid_2d(6, 6, weighted=True, seed=1), path)
    return str(path)


class TestGenerate:
    @pytest.mark.parametrize("kind", ["rmat", "er", "grid", "ws", "ba"])
    def test_kinds(self, tmp_path, kind, capsys):
        out = str(tmp_path / f"{kind}.npz")
        rc = main(
            ["generate", kind, out, "--scale", "6", "--edge-factor", "4",
             "--seed", "3"]
        )
        assert rc == 0
        g = load_graph_npz(out)
        assert g.n_vertices > 0 and g.n_edges > 0
        assert "wrote" in capsys.readouterr().out

    def test_weighted_flag(self, tmp_path):
        out = str(tmp_path / "w.npz")
        main(["generate", "rmat", out, "--scale", "6", "--weighted"])
        assert load_graph_npz(out).properties.weighted

    def test_edgelist_output(self, tmp_path):
        out = str(tmp_path / "g.txt")
        main(["generate", "grid", out, "--scale", "4"])
        assert "vertices" in open(out).readline()

    def test_deterministic(self, tmp_path):
        a = str(tmp_path / "a.npz")
        b = str(tmp_path / "b.npz")
        main(["generate", "rmat", a, "--scale", "6", "--seed", "9"])
        main(["generate", "rmat", b, "--scale", "6", "--seed", "9"])
        ga, gb = load_graph_npz(a), load_graph_npz(b)
        assert np.array_equal(
            ga.csr().column_indices, gb.csr().column_indices
        )


class TestInfo:
    def test_plain(self, graph_file, capsys):
        assert main(["info", graph_file]) == 0
        out = capsys.readouterr().out
        assert "n_vertices" in out and "36" in out

    def test_json_with_components(self, graph_file, capsys):
        assert main(["info", graph_file, "--components", "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["n_vertices"] == 36
        assert info["n_components"] == 1


class TestConvert:
    @pytest.mark.parametrize("ext", ["mtx", "gr", "txt"])
    def test_roundtrip_through_format(self, graph_file, tmp_path, ext, capsys):
        mid = str(tmp_path / f"g.{ext}")
        back = str(tmp_path / "back.npz")
        assert main(["convert", graph_file, mid]) == 0
        assert main(["convert", mid, back]) == 0
        original = load_graph_npz(graph_file)
        restored = load_graph_npz(back)
        assert restored.n_vertices == original.n_vertices
        assert restored.n_edges == original.n_edges


class TestRun:
    @pytest.mark.parametrize(
        "algorithm", ["sssp", "bfs", "pagerank", "cc", "kcore", "color"]
    )
    def test_algorithms(self, graph_file, algorithm, capsys):
        assert main(["run", algorithm, graph_file]) == 0
        out = capsys.readouterr().out
        assert "supersteps" in out

    def test_tc(self, graph_file, capsys):
        assert main(["run", "tc", graph_file]) == 0
        assert "triangles: 0" in capsys.readouterr().out  # grids have none

    def test_head_prints_values(self, graph_file, capsys):
        main(["run", "sssp", graph_file, "--head", "3"])
        assert "first 3 values" in capsys.readouterr().out

    def test_output_npy(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "dist.npy")
        main(["run", "sssp", graph_file, "--output", out])
        dist = np.load(out)
        assert dist.shape == (36,)
        assert dist[0] == 0.0

    def test_policy_flag(self, graph_file, capsys):
        assert main(["run", "sssp", graph_file, "--policy", "seq"]) == 0

    @pytest.mark.parametrize(
        "algorithm, entry",
        [
            ("sssp", "sssp"),
            ("bfs", "bfs"),
            ("pagerank", "pagerank"),
            ("cc", "connected_components"),
            ("tc", "triangle_count"),
            ("kcore", "kcore_decomposition"),
            ("color", "graph_coloring"),
            ("ppr", "personalized_pagerank"),
            ("mis", "maximal_independent_set"),
            ("ktruss", "ktruss_decomposition"),
        ],
    )
    def test_policy_reaches_the_entry_point(
        self, graph_file, algorithm, entry, monkeypatch, capsys
    ):
        import repro.algorithms as alg

        real = getattr(alg, entry)
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("policy"))
            return real(*args, **kwargs)

        monkeypatch.setattr(alg, entry, spy)
        assert main(["run", algorithm, graph_file, "--policy", "seq"]) == 0
        assert seen == ["seq"]

    @pytest.mark.parametrize("algorithm", ["scc", "communities"])
    def test_policy_is_a_usage_error_without_a_policy_parameter(
        self, graph_file, algorithm, capsys
    ):
        with pytest.raises(SystemExit, match="--policy"):
            main(["run", algorithm, graph_file, "--policy", "seq"])
        assert main(["run", algorithm, graph_file]) == 0

    def test_sssp_matches_library(self, graph_file, tmp_path):
        from repro.algorithms import sssp

        out = str(tmp_path / "d.npy")
        main(["run", "sssp", graph_file, "--output", out])
        ref = sssp(load_graph_npz(graph_file), 0).distances
        assert np.allclose(np.load(out), ref)


class TestPartition:
    @pytest.mark.parametrize(
        "method", ["random", "contiguous", "ldg", "fennel", "metis"]
    )
    def test_methods(self, graph_file, method, capsys):
        assert main(["partition", graph_file, "--method", method]) == 0
        out = capsys.readouterr().out
        assert "edge_cut=" in out and "balance=" in out

    def test_assignment_output(self, graph_file, tmp_path):
        out = str(tmp_path / "parts.npy")
        main(["partition", graph_file, "--parts", "3", "--output", out])
        assignment = np.load(out)
        assert assignment.shape == (36,)
        assert set(np.unique(assignment)) <= {0, 1, 2}


class TestTable1:
    def test_prints_and_verifies(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Timing" in out and "Partitioning" in out
        assert "verified" in out


class TestInfoStats:
    def test_stats_flag(self, graph_file, capsys):
        assert main(["info", graph_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "degree_skew" in out
        assert "diameter_lower_bound" in out
        assert "hints" in out

    def test_stats_json(self, graph_file, capsys):
        assert main(["info", graph_file, "--stats", "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["diameter_lower_bound"] == 10  # 6x6 grid diameter


class TestRunExtendedAlgorithms:
    @pytest.mark.parametrize("algorithm", ["ppr", "mis", "communities"])
    def test_new_algorithms(self, graph_file, algorithm, capsys):
        assert main(["run", algorithm, graph_file]) == 0
        assert "supersteps" in capsys.readouterr().out

    def test_ktruss(self, graph_file, capsys):
        assert main(["run", "ktruss", graph_file]) == 0
        assert "max truss: 2" in capsys.readouterr().out  # grid: no triangles

    def test_mis_reports_size(self, graph_file, capsys):
        main(["run", "mis", graph_file])
        assert "independent set size:" in capsys.readouterr().out

    def test_communities_reports_modularity(self, graph_file, capsys):
        main(["run", "communities", graph_file])
        assert "Q=" in capsys.readouterr().out

    def test_scc(self, graph_file, capsys):
        assert main(["run", "scc", graph_file]) == 0
        assert "strongly connected" in capsys.readouterr().out


class TestInterrupt:
    """SIGINT/SIGTERM on recording commands flush telemetry, exit 130."""

    def _boom(self, monkeypatch, exc_factory):
        import repro.algorithms

        def interrupted_pagerank(*args, **kwargs):
            raise exc_factory()

        monkeypatch.setattr(
            repro.algorithms, "pagerank", interrupted_pagerank
        )

    def test_keyboard_interrupt_exits_130_with_ledger_record(
        self, graph_file, tmp_path, monkeypatch, capsys
    ):
        from repro.observability.ledger import RunLedger

        self._boom(monkeypatch, KeyboardInterrupt)
        ledger_dir = str(tmp_path / "runs")
        rc = main(
            ["run", "pagerank", graph_file, "--ledger-dir", ledger_dir]
        )
        assert rc == 130
        assert "interrupted" in capsys.readouterr().err
        (record,) = RunLedger(ledger_dir).tail(1)
        assert record["metrics"]["interrupted"] is True
        assert record["algorithm"] == "pagerank"

    def test_interrupt_still_flushes_trace(
        self, graph_file, tmp_path, monkeypatch, capsys
    ):
        self._boom(monkeypatch, KeyboardInterrupt)
        trace = str(tmp_path / "trace.json")
        rc = main(
            ["run", "pagerank", graph_file, "--trace", trace,
             "--no-ledger"]
        )
        assert rc == 130
        assert "traceEvents" in json.load(open(trace))  # flushed, parseable

    def test_sigterm_takes_the_interrupt_path(
        self, graph_file, tmp_path, monkeypatch, capsys
    ):
        """A supervisor's TERM must behave exactly like Ctrl-C."""
        import signal
        import time

        def term_factory():
            signal.raise_signal(signal.SIGTERM)
            # The converted KeyboardInterrupt fires on a bytecode
            # boundary; if conversion failed, fail loudly instead.
            time.sleep(0.5)
            return AssertionError("SIGTERM was not converted")

        self._boom(monkeypatch, term_factory)
        rc = main(
            ["run", "pagerank", graph_file, "--ledger-dir",
             str(tmp_path / "runs")]
        )
        assert rc == 130
        assert "interrupted" in capsys.readouterr().err

    def test_profile_interrupt_exits_130(
        self, graph_file, tmp_path, monkeypatch, capsys
    ):
        self._boom(monkeypatch, KeyboardInterrupt)
        rc = main(
            ["profile", "pagerank", graph_file, "--ledger-dir",
             str(tmp_path / "runs")]
        )
        assert rc == 130
        assert "interrupted" in capsys.readouterr().err


class TestLedgerCorruptWarning:
    def test_ledger_cli_warns_on_corrupt_lines(
        self, graph_file, tmp_path, capsys
    ):
        from repro.observability.ledger import RunLedger

        ledger_dir = str(tmp_path / "runs")
        assert main(
            ["run", "bfs", graph_file, "--ledger-dir", ledger_dir]
        ) == 0
        with open(RunLedger(ledger_dir).path, "a", encoding="utf-8") as fh:
            fh.write('{"torn": "no closing brace\n')
        capsys.readouterr()
        assert main(["ledger", "--ledger-dir", ledger_dir]) == 0
        captured = capsys.readouterr()
        assert "bfs" in captured.out  # the intact record still lists
        assert "skipped 1 corrupt ledger line" in captured.err

    def test_no_warning_when_clean(self, graph_file, tmp_path, capsys):
        ledger_dir = str(tmp_path / "runs")
        main(["run", "bfs", graph_file, "--ledger-dir", ledger_dir])
        capsys.readouterr()
        main(["ledger", "--ledger-dir", ledger_dir])
        assert "corrupt" not in capsys.readouterr().err


class TestServeAndQuery:
    """End-to-end over a real process: serve, query, SIGTERM."""

    def test_serve_query_shutdown_cycle(self, tmp_path):
        import os
        import re
        import signal
        import subprocess
        import sys as sys_mod
        import time

        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        data_dir = str(tmp_path / "svc")
        proc = subprocess.Popen(
            [sys_mod.executable, "-m", "repro.cli", "serve",
             "--graph", "g=grid:6", "--port", "0",
             "--data-dir", data_dir, "--no-ledger"],
            cwd="/root/repo",
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"on ([\d.]+):(\d+)", banner)
            assert match, f"no address banner in {banner!r}"
            host, port = match.group(1), match.group(2)

            rc = main(
                ["query", "g", "bfs", "--host", host, "--port", port,
                 "--param", "source=0"]
            )
            assert rc == 0

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 130
            stderr = proc.stderr.read()
            assert "interrupted" in stderr
            assert "served:" in stderr
            # The catalog manifest and journal survived the TERM.
            assert os.path.exists(os.path.join(data_dir, "catalog.json"))
            assert os.path.exists(os.path.join(data_dir, "journal.jsonl"))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
