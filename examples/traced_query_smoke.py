"""Traced-query smoke: the CLI observability surface, end to end.

The CI observability bar: on the planner's walk-cache-pressured star
fixture, ``multi-way --explain analyze --trace-out --metrics-out`` must
(1) print per-edge predicted-vs-actual annotations sourced from a real
trace, (2) return answers bit-identical to the same query run untraced,
(3) write a trace file whose every line passes
:func:`repro.obs.trace.validate_trace_dict` and carries nonzero walk
work, and (4) write a metrics snapshot whose engine step counter
matches the work the trace recorded.

Run with::

    PYTHONPATH=src python examples/traced_query_smoke.py
"""

import json
import tempfile
from pathlib import Path

from repro.cli import main as cli_main
from repro.graph.io import write_edge_list, write_node_sets
from repro.obs.trace import validate_trace_dict
from repro.planner import PlannerFixture


def main() -> None:
    fixture = PlannerFixture()
    spec = fixture.skewed_star_spec()

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        graph_path = tmp_path / "graph.tsv"
        sets_path = tmp_path / "sets.json"
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"
        out_path = tmp_path / "out.json"

        write_edge_list(spec.graph, graph_path)
        names = [f"S{i}" for i in range(len(spec.node_sets))]
        write_node_sets(
            {name: list(nodes)
             for name, nodes in zip(names, spec.node_sets)},
            sets_path,
        )

        base_args = [
            "multi-way", str(graph_path), "--sets", str(sets_path),
            "--shape", "star", "--node-sets", *names,
            "-k", str(spec.k), "-m", "200", "--plan", "auto", "--json",
        ]

        # Untraced oracle arm.
        with open(out_path, "w", encoding="utf-8") as fh:
            import contextlib
            with contextlib.redirect_stdout(fh):
                assert cli_main(list(base_args)) == 0
        # ``--json`` emits the {"exact", "reason", "results"} envelope.
        untraced = json.loads(out_path.read_text(encoding="utf-8"))

        # Traced explain-analyze arm.
        with open(out_path, "w", encoding="utf-8") as fh:
            import contextlib
            with contextlib.redirect_stdout(fh):
                assert cli_main(base_args + [
                    "--explain", "analyze",
                    "--trace-out", str(trace_path),
                    "--metrics-out", str(metrics_path),
                ]) == 0
        analyzed = json.loads(out_path.read_text(encoding="utf-8"))

        # The same envelope, plus the analyzed plan.
        report = analyzed.pop("plan")  # AnalyzedPlan.to_json(): plan + actuals
        assert analyzed == untraced, "explain analyze changed the answers"
        actuals = report["actuals"]
        assert len(actuals) == len(report["plan"]["build_order"])
        assert all(
            row["propagation_steps"] > 0 or row["walk_cache_hits"] > 0
            for row in actuals
        ), actuals
        traced_steps = sum(row["propagation_steps"] for row in actuals)
        assert traced_steps > 0, "trace recorded no walk work"

        # Every trace line is schema-valid and the root is the query.
        lines = trace_path.read_text(encoding="utf-8").splitlines()
        assert lines, "trace file is empty"
        for line in lines:
            payload = json.loads(line)
            problems = validate_trace_dict(payload)
            assert not problems, problems
            assert payload["span"]["kind"] == "query"

        # The metrics snapshot saw at least the steps the trace did.
        snapshot = json.loads(
            metrics_path.read_text(encoding="utf-8").splitlines()[-1]
        )
        metrics = {
            sample["name"]: sample["value"]
            for sample in snapshot["metrics"]
        }
        engine_steps = metrics["repro_engine_propagation_steps_total"]
        assert engine_steps >= traced_steps > 0, (engine_steps, traced_steps)

        print(
            f"traced-query smoke ok: {len(actuals)} edges analyzed, "
            f"{traced_steps:.0f} traced steps "
            f"(engine total {engine_steps:.0f}), {len(lines)} valid "
            "trace line(s), answers bit-identical"
        )


if __name__ == "__main__":
    main()
