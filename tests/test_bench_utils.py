"""Unit tests for ``benchmarks/_harness.py``, the tables and workloads
the paper-figure scripts share."""

import math
import sys
from pathlib import Path

import pytest

from repro.graph.validation import GraphValidationError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from _harness import (  # noqa: E402
    SeriesResult,
    format_seconds,
    print_kv_table,
    print_sweep_table,
    query_graph_with_edges,
    sample_node_sets,
)


class TestHarness:
    def test_series_result(self):
        series = SeriesResult("PJ")
        series.add(2, 0.5, k=50)
        series.add(3, 1.5)
        assert series.seconds_at(2) == 0.5
        assert series.seconds_at(99) is None
        assert series.runs[0].extra == {"k": 50}

    def test_format_seconds(self):
        assert format_seconds(None).strip() == "--"
        assert format_seconds(math.inf).strip() == "inf"
        assert "0.1000" in format_seconds(0.1)
        assert "12.500" in format_seconds(12.5)
        assert "250.0" in format_seconds(250.0)

    def test_print_sweep_table(self, capsys):
        a, b = SeriesResult("NL"), SeriesResult("PJ")
        a.add(2, 1.0)
        b.add(2, 0.1)
        b.add(3, 0.2)
        text = print_sweep_table("Fig X", "n", [2, 3], [a, b], note="demo")
        out = capsys.readouterr().out
        assert "Fig X" in out and "NL" in out and "PJ" in out
        assert "--" in text  # NL missing at n=3

    def test_print_kv_table(self, capsys):
        text = print_kv_table("AUC", {"Yeast": 0.9453, "runs": 10})
        assert "0.9453" in text
        assert "runs" in capsys.readouterr().out


class TestWorkloads:
    def test_sample_node_sets_disjoint(self):
        sets = sample_node_sets(range(100), count=3, size=10, seed=1)
        assert len(sets) == 3
        flat = [u for s in sets for u in s]
        assert len(flat) == len(set(flat)) == 30

    def test_sample_node_sets_deterministic(self):
        a = sample_node_sets(range(50), 2, 5, seed=9)
        b = sample_node_sets(range(50), 2, 5, seed=9)
        assert a == b

    def test_sample_node_sets_too_large(self):
        with pytest.raises(GraphValidationError):
            sample_node_sets(range(10), count=3, size=5, seed=0)

    @pytest.mark.parametrize("num_edges", [2, 3, 4, 5, 6])
    def test_query_graph_with_edges(self, num_edges):
        q = query_graph_with_edges(num_edges)
        assert q.num_vertices == 3
        assert q.num_edges == num_edges

    def test_query_graph_with_edges_range(self):
        with pytest.raises(GraphValidationError):
            query_graph_with_edges(7)
