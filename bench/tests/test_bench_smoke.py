"""Smoke run of every workload in both modes against ``BENCHMARK.json``."""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import run as bench_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_smoke(capsys, workload, trace):
    status = bench_run.main([
        "--workload", workload, "--scale", "smoke", "--seconds", "0.2",
        "--trace", str(trace),
    ])
    out = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in out if line.startswith("metric ")]
    return status, rows, json.loads(out[-1])


def test_spec_matches_the_benchmark_s_own_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert workload["why"] == bench_run.WORKLOADS[workload["name"]].why
    for section, units in (
        ("end_to_end", bench_run.END_TO_END_UNITS),
        ("per_layer", bench_run.PER_LAYER_UNITS),
    ):
        assert {m["name"]: m["unit"] for m in SPEC[section]} == units
    assert SPEC["run_seconds"] == bench_run.DEFAULT_SECONDS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_once_with_its_unit(capsys, workload, trace):
    status, rows, result = run_smoke(capsys, workload, trace)
    assert status == 0
    expected = {
        m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    assert sorted(row[1] for row in rows) == sorted(expected)  # each exactly once
    for _, name, value, unit in rows:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert unit == expected[name]
        float(value)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_reproduce_the_traced_latency(capsys, workload):
    _, _, result = run_smoke(capsys, workload, 1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    accounted = metrics["bench.unattributed_ms_per_op"] + sum(
        value for name, value in metrics.items()
        if name.endswith(".self_ms_per_op")
    )
    assert accounted == pytest.approx(metrics["bench.traced_mean_lat_ms"], rel=0.02)
    assert metrics["bench.unattributed_ms_per_op"] < 0.15 * metrics["bench.traced_mean_lat_ms"]
