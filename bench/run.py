#!/usr/bin/env python3
"""Run the benchmark: one command, every metric by name with its unit.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--scale full|smoke]

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without it every workload runs in
a fresh subprocess, one after the other.  The exit code is non-zero when
an op failed or a sampled answer did not match its oracle.

End-to-end numbers come from a run in which no wrapper is installed at
all.  A traced run spends part of ``--seconds`` on untraced phases (a
1-client phase on the service workloads, then a reference phase for the
tracing overhead), installs the wrappers of ``bench/tracing.py`` for the
traced phase only, and removes them again.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench: {ROOT / 'src' / 'repro'} not found: nothing to benchmark")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.walks.engine import WalkEngine  # noqa: E402

from bench import layers, verify  # noqa: E402
from bench.tracing import SpanTracer  # noqa: E402
from bench.workloads import (  # noqa: E402
    SERVICE_WORKERS,
    WORKLOADS,
    OpFailed,
    Workload,
)

OUT_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 2014
DEFAULT_SECONDS = 20.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Ops per phase at ``--scale smoke``.
SMOKE_MAX_OPS = 20
#: Spans written to the JSONL trace: the earliest whole ops that fit (the
#: layer summary always uses every span).
MAX_TRACE_SPANS = 50_000
#: Share of a traced run's seconds spent on the untraced 1-client phase
#: (service workloads only).
SINGLE_CLIENT_SHARE = 0.2
#: The rest alternates untraced reference blocks with traced blocks, so
#: that drift in machine speed during the run hits both alike.
TRACE_CYCLES = 4
REFERENCE_SHARE = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "lat_p50_ms": "ms",
    "lat_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

OP_KINDS = (
    "api.two_way.b-idj-y",
    "api.two_way.b-bj",
    "api.multi_way.chain",
    "api.multi_way.star",
    "api.multi_way.triangle",
)

PER_LAYER_UNITS = {
    "graph.load_s": "s",
    "graph.engine_init_s": "s",
    **{f"{kind}.p50_ms": "ms" for kind in OP_KINDS},
    "api.multi_way.auto_over_fixed": "ratio",
    **{f"{layer}.self_ms_per_op": "ms" for layer in layers.BOUNDARIES},
    "planner.q_error_p50": "ratio",
    "bounds_cache.builds_per_op": "count",
    "bounds_cache.hit_ratio": "ratio",
    "walks.engine.propagation_steps_per_op": "count",
    "walks.engine.sparse_products_per_op": "count",
    "walks.peak_block_bytes": "bytes",
    "walks.cache.hit_ratio": "ratio",
    "walks.cache.evictions_per_op": "count",
    "walks.cache.steps_saved_per_op": "count",
    "core.nway.refills_per_op": "count",
    "rankjoin.pulls_per_op": "count",
    "rankjoin.candidates_per_op": "count",
    "exec.checkpoints_per_op": "count",
    "exec.budget_stops": "count",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p90": "ms",
    "service.exec_ms_p50": "ms",
    "service.lat_p99_ms": "ms",
    "service.worker_busy_frac": "ratio",
    "service.rejected": "count",
    "service.errors": "count",
    "service.partial": "count",
    "service.c1_ops_per_s": "ops/s",
    "service.scaling_c2_over_c1": "ratio",
    "obs.query_tracer_overhead_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
    "bench.traced_mean_lat_ms": "ms",
    "bench.unattributed_ms_per_op": "ms",
    "bench.unresolved_paths": "count",
}


@dataclass
class OpRecord:
    index: int
    request: object
    latency_s: float
    outcome: object
    #: ``None`` for a completed op, else ``exception`` or an
    #: :class:`OpFailed` kind (``rejected``/``error``/``partial``).
    failure: Optional[str]


class Phase:
    """One closed-loop phase: its ops, wall time and counter deltas."""

    def __init__(self, records, wall_s, counts, next_index) -> None:
        self.records: List[OpRecord] = records
        self.completed = [r for r in records if r.failure is None]
        self.wall_s: float = wall_s
        self.counts: Counter = counts
        self.next_index: int = next_index

    @property
    def ops_per_s(self) -> float:
        return len(self.completed) / self.wall_s

    def latencies_ms(self) -> List[float]:
        return [r.latency_s * 1e3 for r in self.completed]

    def failures(self, *kinds: str) -> float:
        return float(sum(r.failure in kinds for r in self.records))

    @classmethod
    def merged(cls, blocks: List["Phase"]) -> "Phase":
        """Several blocks of one phase as if they had run back to back."""
        counts: Counter = Counter()
        for block in blocks:
            counts.update(block.counts)
        counts["peak_block_bytes"] = max(
            block.counts["peak_block_bytes"] for block in blocks
        )
        return cls(
            [record for block in blocks for record in block.records],
            sum(block.wall_s for block in blocks),
            counts,
            blocks[-1].next_index,
        )


def run_phase(
    workload: Workload,
    session,
    requests: list,
    first_index: int,
    seconds: float,
    max_ops: Optional[int],
    clients: int,
    tracer: Optional[SpanTracer] = None,
) -> Phase:
    """Closed loop: each client sends its next op when the last returned.

    Runs until ``seconds`` have passed (ops in flight then finish) or
    ``max_ops`` were issued; every client completes at least one op.
    """
    indices = itertools.count(first_index)  # next() is atomic in CPython
    end_index = first_index + max_ops if max_ops else None
    records: List[OpRecord] = []
    perf = time.perf_counter
    before = session.counters()
    start = perf()
    deadline = start + seconds

    def client() -> None:
        done_one = False
        while True:
            index = next(indices)
            if end_index is not None and index >= end_index:
                return
            if done_one and perf() >= deadline:
                return
            request = requests[index % len(requests)]
            if tracer is not None:
                tracer.begin_op(index, request)
            outcome = failure = None
            t0 = perf()
            try:
                outcome = workload.execute(session, request)
            except OpFailed as exc:
                failure = exc.kind
                print(f"bench: op {index} failed: {exc}", file=sys.stderr)
            except Exception:  # an op failure is data, not a crash
                failure = "exception"
                print(f"bench: op {index} raised:", file=sys.stderr)
                traceback.print_exc()
            latency = perf() - t0
            records.append(OpRecord(index, request, latency, outcome, failure))
            done_one = True

    if clients == 1:
        client()
    else:
        threads = [
            threading.Thread(target=client, name=f"bench-client-{c}")
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall_s = perf() - start
    counts = session.counters()
    peak_block_bytes = counts["peak_block_bytes"]
    counts.subtract(before)
    counts["peak_block_bytes"] = peak_block_bytes  # a high-water mark
    next_index = max(r.index for r in records) + 1
    return Phase(records, wall_s, counts, next_index)


def repeat_set_up(workload: Workload, inputs, first: Dict[str, float], smoke: bool):
    """Median set-up timings over ``SETUP_REPS`` set-ups.

    ``first`` is the measured session's own set-up.  The others run here,
    after that session is gone and ``peak_rss_mb`` has been read, one at a
    time: the memory metric comes from a process that had set up once.
    """
    timings = [first]
    for _ in range(0 if smoke else SETUP_REPS - 1):
        session = workload.set_up(inputs, smoke)
        session.close()
        timings.append(session.timings)
        del session
        gc.collect()
    print("bench: setup_s reps " + " ".join(f"{t['setup_s']:.4f}" for t in timings))
    return {
        name: statistics.median(t[name] for t in timings) for name in first
    }


def check_answers(workload: Workload, session, phases: List[Phase], seed: int):
    """Re-evaluate a seeded 10 % sample (at least 10 ops) on another path.

    Returns ``(sample size, mismatch descriptions)``; runs after every
    timed phase, on an engine of its own.
    """
    completed = [r for phase in phases for r in phase.completed]
    rng = np.random.default_rng(seed + 1)
    size = min(len(completed), max(10, len(completed) // 10))
    sample = rng.choice(len(completed), size, replace=False)
    engine = WalkEngine(session.graph)
    oracle_answers: Dict[object, verify.Answer] = {}
    mismatches = []
    for position in sorted(int(i) for i in sample):
        record = completed[position]
        request = record.request
        if request not in oracle_answers:
            oracle_answers[request] = verify.normalise(
                workload.oracle(session.graph, engine, request)
            )
        why = verify.mismatch(
            verify.normalise(workload.rows(record.outcome)),
            oracle_answers[request],
            request.k,
        )
        if why is not None:
            mismatches.append(f"op {record.index} {request!r:.100}: {why}")
    return size, mismatches


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(timed: Phase) -> Dict[str, float]:
    """Everything but ``setup_s``, which :func:`run_workload` adds last."""
    latencies = timed.latencies_ms()
    return {
        "ops_per_s": timed.ops_per_s,
        "lat_p50_ms": percentile(latencies, 50),
        "lat_p90_ms": percentile(latencies, 90),
        # Read before the answer check, whose oracles allocate too.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(
    workload: Workload,
    traced: Phase,
    reference: Phase,
    single_client: Optional[Phase],
    tracer: SpanTracer,
) -> Dict[str, Optional[float]]:
    """Fold the traced phase's spans and counter deltas into metrics.

    Everything ``*_per_op`` is normalised by the traced phase's own op
    count, so the phase may be shorter than an end-to-end run's.
    """
    ops = len(traced.completed)
    counts = traced.counts
    summary = tracer.summary()
    harvested = tracer.counts()
    # graph.load_s and graph.engine_init_s are set-up timings:
    # run_workload fills them in.
    metrics: Dict[str, Optional[float]] = dict.fromkeys(PER_LAYER_UNITS, 0.0)

    by_kind: Dict[str, List[float]] = {}
    by_plan: Dict[str, List[float]] = {"auto": [], "fixed": []}
    for record in traced.completed:
        by_kind.setdefault(workload.kind(record.request), []).append(
            record.latency_s * 1e3
        )
        if hasattr(record.request, "shape"):
            by_plan[record.request.plan].append(record.latency_s)
    for kind in OP_KINDS:
        metrics[f"{kind}.p50_ms"] = percentile(by_kind.get(kind, []), 50)
    # Planning time is inside both latencies.
    metrics["api.multi_way.auto_over_fixed"] = ratio(
        percentile(by_plan["auto"], 50), percentile(by_plan["fixed"], 50)
    )

    for layer, self_s in summary["self_s"].items():
        metrics[f"{layer}.self_ms_per_op"] = (
            None if self_s is None else ratio(self_s * 1e3, ops)
        )
    latency_ms = sum(traced.latencies_ms())
    metrics["bench.traced_mean_lat_ms"] = ratio(latency_ms, ops)
    # Time inside an op but outside every span.  Measured, not a
    # residual: layer self times plus this reproducing the mean latency
    # is a check of the tracer's own bookkeeping.
    metrics["bench.unattributed_ms_per_op"] = ratio(
        latency_ms - summary["client_root_s"] * 1e3, ops
    )
    metrics["bench.trace_overhead_frac"] = 1.0 - ratio(
        traced.ops_per_s, reference.ops_per_s
    )
    metrics["bench.unresolved_paths"] = float(
        sum(len(paths) for paths in tracer.unresolved.values())
    )

    # The engine's counters mirror the bound cache's builds and hits.
    builds = counts["bound_builds"] + counts["plan_builds"]
    hits = counts["bound_cache_hits"] + counts["plan_cache_hits"]
    lookups = counts["walk_cache.hits"] + counts["walk_cache.misses"]
    metrics.update({
        "bounds_cache.builds_per_op": ratio(builds, ops),
        "bounds_cache.hit_ratio": ratio(hits, hits + builds),
        "walks.engine.propagation_steps_per_op": ratio(counts["propagation_steps"], ops),
        "walks.engine.sparse_products_per_op": ratio(counts["sparse_products"], ops),
        "walks.peak_block_bytes": float(counts["peak_block_bytes"]),
        "walks.cache.hit_ratio": ratio(counts["walk_cache.hits"], lookups),
        "walks.cache.evictions_per_op": ratio(counts["walk_cache.evictions"], ops),
        "walks.cache.steps_saved_per_op": ratio(counts["walk_cache.steps_saved"], ops),
        "core.nway.refills_per_op": ratio(harvested["rankjoin.refills"], ops),
        "rankjoin.pulls_per_op": ratio(harvested["rankjoin.pulls"], ops),
        "rankjoin.candidates_per_op": ratio(harvested["rankjoin.candidates"], ops),
        "exec.checkpoints_per_op": ratio(counts["checkpoints"], ops),
        "exec.budget_stops": float(counts["budget_stops"]),
    })

    if single_client is not None:
        responses = [record.outcome for record in traced.completed]
        queued = [response.queued_ms for response in responses]
        executing = [response.latency_ms - response.queued_ms for response in responses]
        metrics.update({
            "service.queue_wait_ms_p50": percentile(queued, 50),
            "service.queue_wait_ms_p90": percentile(queued, 90),
            "service.exec_ms_p50": percentile(executing, 50),
            "service.lat_p99_ms": percentile(traced.latencies_ms(), 99),
            "service.worker_busy_frac": ratio(
                sum(executing) / 1e3, traced.wall_s * SERVICE_WORKERS
            ),
            "service.rejected": traced.failures("rejected"),
            "service.errors": traced.failures("error", "exception"),
            "service.partial": traced.failures("partial"),
            "service.c1_ops_per_s": single_client.ops_per_s,
            "service.scaling_c2_over_c1": ratio(
                reference.ops_per_s, single_client.ops_per_s
            ),
        })
    return metrics


def traced_run(workload, session, inputs, first_index, seconds, smoke):
    """The ``--trace 1`` phases; returns ``(phases, per-layer metrics)``."""
    index = first_index
    budget = seconds * (1.0 - workload.extras_share)

    def phase(phase_seconds, clients, max_ops, tracer=None):
        nonlocal index
        result = run_phase(
            workload, session, inputs.requests, index, phase_seconds,
            max_ops if smoke else None, clients, tracer,
        )
        index = result.next_index
        return result

    single_client = None
    if workload.clients > 1:
        single_client = phase(seconds * SINGLE_CLIENT_SHARE, 1, SMOKE_MAX_OPS)
        budget -= seconds * SINGLE_CLIENT_SHARE
    block_s = budget / TRACE_CYCLES
    block_ops = SMOKE_MAX_OPS // TRACE_CYCLES
    tracer = SpanTracer()
    reference_blocks, traced_blocks = [], []
    for _ in range(TRACE_CYCLES):
        reference_blocks.append(
            phase(block_s * REFERENCE_SHARE, workload.clients, block_ops)
        )
        with tracer:
            traced_blocks.append(phase(
                block_s * (1.0 - REFERENCE_SHARE), workload.clients, block_ops,
                tracer,
            ))
    reference = Phase.merged(reference_blocks)
    traced = Phase.merged(traced_blocks)
    metrics = per_layer_metrics(workload, traced, reference, single_client, tracer)
    metrics.update(workload.extra_layer_metrics(
        session, inputs.requests, seconds * workload.extras_share, smoke
    ))
    trace_path = OUT_DIR / f"trace_{workload.name}.jsonl"
    written = tracer.write_jsonl(trace_path, MAX_TRACE_SPANS)
    print(
        f"bench: trace spans={tracer.span_count()} written={written} "
        f"file={trace_path.relative_to(ROOT)}"
    )
    phases = [p for p in (single_client, reference, traced) if p is not None]
    return phases, metrics


def fingerprint() -> Dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run_workload(args) -> int:
    """Run one workload in this process; print metrics and the result line."""
    workload = WORKLOADS[args.workload]
    smoke = args.scale == "smoke"
    machine = fingerprint()
    print(
        f"bench: workload={workload.name} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} scale={args.scale} "
        f"clients={workload.clients} (closed loop)"
    )
    print("bench: machine " + " ".join(f"{k}={v!s}" for k, v in machine.items()))
    OUT_DIR.mkdir(exist_ok=True)
    inputs = workload.generate(args.seed, smoke, OUT_DIR)
    print(f"bench: inputs_sha256={inputs.sha256}")
    first_index = workload.warm_ops[smoke]
    try:
        session = workload.set_up(inputs, smoke)
        try:
            if args.trace:
                phases, metrics = traced_run(
                    workload, session, inputs, first_index, args.seconds, smoke
                )
            else:
                timed = run_phase(
                    workload, session, inputs.requests, first_index, args.seconds,
                    SMOKE_MAX_OPS if smoke else None, workload.clients,
                )
                phases, metrics = [timed], end_to_end_metrics(timed)
            t0 = time.perf_counter()
            checked, mismatches = check_answers(workload, session, phases, args.seed)
            check_s = time.perf_counter() - t0
        finally:
            session.close()
        first_set_up = session.timings
        del session
        gc.collect()
        setup = repeat_set_up(workload, inputs, first_set_up, smoke)
    finally:
        inputs.graph_path.unlink()
    if args.trace:
        units = PER_LAYER_UNITS
        metrics["graph.load_s"] = setup["graph.load_s"]
        metrics["graph.engine_init_s"] = setup["graph.engine_init_s"]
    else:
        units = END_TO_END_UNITS
        metrics = {"setup_s": setup["setup_s"], **metrics}
    for line in mismatches:
        print(f"bench: answer mismatch: {line}", file=sys.stderr)
    attempted = sum(len(phase.records) for phase in phases)
    failed = sum(len(p.records) - len(p.completed) for p in phases) + len(mismatches)
    measured = phases[-1]
    print(
        f"bench: samples ops={len(measured.completed)} "
        f"wall_s={measured.wall_s:.3f} attempted={attempted} failed={failed} "
        f"failed_frac={failed / attempted:g} checked={checked} "
        f"check_s={check_s:.2f}"
    )
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"metric {name} {shown} {units[name]}")
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "machine": machine,
        "inputs_sha256": inputs.sha256,
        "ops": len(measured.completed),
        "checked": checked,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    suffix = ".traced" if args.trace else ""
    result_path = OUT_DIR / f"result_{workload.name}{suffix}.json"
    result_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    # The result line carries numbers only: a null (unresolved layer)
    # goes out as 0 and is counted in bench.unresolved_paths.
    for metric in report["metrics"].values():
        metric["value"] = metric["value"] or 0.0
    print(json.dumps(
        {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}
    ))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in a fresh subprocess; a summary at the end."""
    results = {}
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scale", args.scale,
            ],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(child.stdout)
        sys.stdout.flush()
        status = status or child.returncode
        lines = child.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
