"""Smoke tests: every shipped example runs end to end.

Run as subprocesses with reduced problem sizes where the script accepts
one, so a broken public API (which examples exercise exactly as users
would) fails the suite.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.skipif(not EXAMPLES.exists(), reason="examples not shipped")
class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "shortest path 0 -> 3" in proc.stdout

    def test_road_network_routing_small(self):
        proc = run_example("road_network_routing.py", "16")
        assert proc.returncode == 0, proc.stderr
        assert "listing 4" in proc.stdout and "sssp pull" in proc.stdout
        assert "dijkstra" in proc.stdout

    def test_social_network_analysis_small(self):
        proc = run_example("social_network_analysis.py", "8")
        assert proc.returncode == 0, proc.stderr
        assert "pagerank" in proc.stdout
        assert "sanity holds" in proc.stdout

    def test_pregel_vertex_programs(self):
        proc = run_example("pregel_vertex_programs.py")
        assert proc.returncode == 0, proc.stderr
        assert "metis-like" in proc.stdout
        assert "NO" not in proc.stdout  # every row matched

    @pytest.mark.slow
    def test_design_space_tour(self):
        proc = run_example("design_space_tour.py")
        assert proc.returncode == 0, proc.stderr
        assert "Pillar 4" in proc.stdout
        assert "all OK" in proc.stdout

    def test_community_and_walks(self):
        proc = run_example("community_and_walks.py", "400")
        assert proc.returncode == 0, proc.stderr
        assert "modularity" in proc.stdout
        assert "locality confirmed" in proc.stdout
