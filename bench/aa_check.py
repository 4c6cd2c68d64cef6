#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself on unchanged code?

    python3 bench/aa_check.py [--runs N] [--seed S] [--seconds T]

Runs two sets (A, B) of ``N`` full untraced runs per workload on this
checkout, alternating set membership run by run; run ``i`` of either set
uses seed ``S + i``, as the driver's acceptance check does.  For every
end-to-end metric x workload it prints each side's median and quartiles,
the spread (interquartile range over median) and how much worse B's
median is than A's, and compares both with the bound in
``BENCHMARK.json``.  It also checks that inputs are a function of the
seed alone (same seed, same ``inputs_sha256``; another seed, another
digest) and that the single-threaded work counters repeat exactly.

Exit code 1 on any breach.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Counts that must repeat exactly for a seed on the single-threaded
#: workloads (read from an op-capped traced run, so both runs execute the
#: same ops).
EXACT_COUNTS = (
    "walks.engine.propagation_steps_per_op",
    "bounds_cache.builds_per_op",
    "rankjoin.pulls_per_op",
)
SINGLE_THREADED = ("twoway_cold", "nway_cold")


def run_once(workload: str, seed: int, seconds: float, *extra: str):
    """One ``run.py`` subprocess: ``(result line, inputs digest)``."""
    child = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), *extra,
        ],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.exit(f"aa_check: {workload} seed {seed} exited {child.returncode}")
    digest = next(
        line.split("=", 1)[1] for line in lines
        if line.startswith("bench: inputs_sha256=")
    )
    return json.loads(lines[-1]), digest


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check_determinism(workloads, seed: int) -> list:
    breaches = []
    for workload in workloads:
        _, first = run_once(workload, seed, 1, "--scale", "smoke")
        _, again = run_once(workload, seed, 1, "--scale", "smoke")
        _, other = run_once(workload, seed + 1, 1, "--scale", "smoke")
        if first != again:
            breaches.append(f"{workload}: seed {seed} gave two input digests")
        if first == other:
            breaches.append(f"{workload}: seeds {seed} and {seed + 1} share a digest")
        if workload in SINGLE_THREADED:
            a, _ = run_once(workload, seed, 1, "--scale", "smoke", "--trace", "1")
            b, _ = run_once(workload, seed, 1, "--scale", "smoke", "--trace", "1")
            for name in EXACT_COUNTS:
                pair = a["metrics"][name]["value"], b["metrics"][name]["value"]
                if pair[0] != pair[1]:
                    breaches.append(f"{workload}: {name} did not repeat: {pair}")
    return breaches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per set (>= 2)")
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument(
        "--workload", action="append",
        choices=[w["name"] for w in SPEC["workloads"]],
        help="restrict to this workload (repeatable)",
    )
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]

    breaches = check_determinism(workloads, args.seed)
    print(f"aa_check: determinism: {len(breaches)} breach(es)")

    header = (
        f"{'workload':14} {'metric':12} {'bound':>6}  "
        f"{'A median [q1, q3]':>34}  {'B median [q1, q3]':>34}  "
        f"{'spread A':>8} {'spread B':>8} {'B worse':>8}"
    )
    rows = [header]
    for workload in workloads:
        values = {"A": {}, "B": {}}
        for i in range(2 * args.runs):
            # A B B A A B ...: neither set always runs first in its pair.
            side = "AB"[(i + i // 2) % 2]
            seed = args.seed + i // 2
            result, _ = run_once(workload, seed, args.seconds)
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
            # Every run made is shown: a slow spell of the machine is a
            # stretch of consecutive slow runs, on both sides.
            print(f"aa_check: run {workload} {side} seed={seed} " + " ".join(
                f"{name}={metric['value']:.5g}"
                for name, metric in result["metrics"].items()
            ), flush=True)
        for spec in SPEC["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            stats = {side: quartiles(values[side][name]) for side in "AB"}
            spreads = {
                side: (q3 - q1) / mid for side, (q1, mid, q3) in stats.items()
            }
            change = stats["B"][1] / stats["A"][1] - 1.0
            worse = change if spec["better"] == "lower" else -change
            cells = {
                side: f"{mid:.5g} [{q1:.5g}, {q3:.5g}]"
                for side, (q1, mid, q3) in stats.items()
            }
            rows.append(
                f"{workload:14} {name:12} {bound:6.2f}  {cells['A']:>34}  "
                f"{cells['B']:>34}  {spreads['A']:8.3f} {spreads['B']:8.3f} "
                f"{worse:+8.3f}"
            )
            if worse > bound:
                breaches.append(
                    f"{workload}: {name} B is {worse:.1%} worse than A "
                    f"(bound {bound:.0%})"
                )
            # As the driver's acceptance check: every spread is held to its
            # bound except set-up time's, which is a median of a few short
            # set-ups and is compared A against B only.
            if name != "setup_s" and max(spreads.values()) > bound:
                breaches.append(
                    f"{workload}: {name} spread {max(spreads.values()):.1%} "
                    f"exceeds its bound {bound:.0%}"
                )
    print("\n".join(rows))
    for breach in breaches:
        print(f"aa_check: BREACH {breach}")
    print(f"aa_check: {'FAIL' if breaches else 'ok'}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
