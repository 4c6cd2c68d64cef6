"""Wrapper hygiene: wrappers exist only inside a traced phase."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import layers  # noqa: E402
from bench import run as bench_run  # noqa: E402
from bench.tracing import SpanTracer, resolve  # noqa: E402

PATHS = [path for paths in layers.BOUNDARIES.values() for path in paths]


def raw_attribute(path):
    owner, attr = resolve(path)
    return vars(owner)[attr]


def smoke(workload, trace):
    return bench_run.main([
        "--workload", workload, "--scale", "smoke", "--seconds", "0.2",
        "--trace", str(trace),
    ])


def test_an_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    originals = {path: raw_attribute(path) for path in PATHS}

    def refuse(self):
        raise AssertionError("SpanTracer.install called without --trace 1")

    monkeypatch.setattr(SpanTracer, "install", refuse)
    assert smoke("service_warm", 0) == 0
    for path, original in originals.items():
        assert raw_attribute(path) is original


def test_a_traced_run_restores_every_attribute(capsys):
    originals = {path: raw_attribute(path) for path in PATHS}
    assert smoke("nway_cold", 1) == 0
    for path, original in originals.items():
        assert raw_attribute(path) is original


def test_wrappers_live_only_inside_the_with_block():
    originals = {path: raw_attribute(path) for path in PATHS}
    with SpanTracer() as tracer:
        assert not tracer.unresolved
        for path, original in originals.items():
            assert raw_attribute(path).__wrapped__ is original
    for path, original in originals.items():
        assert raw_attribute(path) is original


def test_a_bogus_path_nulls_its_layer_and_warns(monkeypatch, capsys):
    bogus = "repro.walks.engine.WalkEngine.no_such_kernel"
    monkeypatch.setitem(
        layers.BOUNDARIES, "walks.engine",
        layers.BOUNDARIES["walks.engine"] + (bogus,),
    )
    with pytest.warns(RuntimeWarning, match="no_such_kernel"):
        status = smoke("twoway_cold", 1)
    out = capsys.readouterr().out.splitlines()
    assert status == 0
    assert "metric walks.engine.self_ms_per_op null ms" in out
    metrics = json.loads(out[-1])["metrics"]
    assert metrics["bench.unresolved_paths"]["value"] == 1
    assert metrics["walks.engine.self_ms_per_op"]["value"] == 0
    assert metrics["walks.rounds.self_ms_per_op"]["value"] > 0
