"""Command-line interface: run DHT joins against on-disk graphs.

Usage (after ``pip install -e .``)::

    # top-10 closest pairs between two node sets
    python -m repro two-way graph.tsv --sets sets.json \\
        --left DB --right AI -k 10

    # top-5 chain 3-way join
    python -m repro multi-way graph.tsv --sets sets.json \\
        --shape chain --node-sets DB AI SYS -k 5 --aggregate MIN

    # the same star join under Personalized PageRank
    python -m repro multi-way graph.tsv --sets sets.json \\
        --shape star --node-sets CENTER A B -k 5 --measure ppr

    # dataset statistics
    python -m repro stats graph.tsv

    # serve a JSON request mix through the concurrent query service
    python -m repro serve graph.tsv --sets sets.json \\
        --requests requests.json --workers 4

Graphs are TSV edge lists with a ``# nodes: N`` header
(:mod:`repro.graph.io`); node sets are JSON ``{"name": [ids...]}``.
The ``--requests`` file is a JSON list of request objects, e.g.
``[{"type": "two-way", "left": "DB", "right": "AI", "k": 5},
{"type": "multi-way", "shape": "chain", "node_sets": ["DB", "AI"],
"k": 5, "measure": "ppr"}]`` (``type`` also accepts ``"explain"``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional, Sequence

from repro.api import explain_multi_way_plan, multi_way_join, two_way_join
from repro.core.dht import DHTParams
from repro.core.nway.aggregates import aggregate_by_name
from repro.core.nway.query_graph import QueryGraph
from repro.exec.budget import (
    ON_BUDGET_POLICIES,
    BudgetExhaustedError,
    PartialResult,
    QueryBudget,
)
from repro.extensions.measures import TruncatedPPR
from repro.extensions.simrank import SimRankMeasure
from repro.graph.io import read_edge_list, read_node_sets
from repro.graph.validation import GraphValidationError

_SHAPES = ("chain", "cycle", "triangle", "star", "clique")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-way joins over discounted hitting time (ICDE 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", help="TSV edge list with a '# nodes: N' header")
        p.add_argument("--sets", required=True, help="JSON node-set file")
        p.add_argument("-k", type=int, default=10, help="answers to return")
        p.add_argument(
            "--measure",
            choices=("dht-lambda", "dht-e", "dht", "ppr", "simrank"),
            default="dht-lambda",
            help="proximity measure ('dht' aliases 'dht-lambda'; 'ppr' and "
                 "'simrank' run the measure-generic join stack)",
        )
        p.add_argument("--decay", type=float, default=0.2, help="lambda")
        p.add_argument("--epsilon", type=float, default=1e-6,
                       help="truncation error target (Lemma 1; also sets "
                            "PPR's depth)")
        p.add_argument("--damping", type=float, default=0.85,
                       help="PPR continuation probability c (--measure ppr)")
        p.add_argument("--sr-decay", type=float, default=0.8,
                       help="SimRank decay C (--measure simrank)")
        p.add_argument("--sr-iterations", type=int, default=10,
                       help="SimRank fixed-point sweeps (--measure simrank)")
        p.add_argument(
            "--deadline-ms", type=float, default=None,
            help="wall-clock budget in milliseconds; on exhaustion the "
                 "join returns flagged best-effort results with score "
                 "intervals (see --on-budget)",
        )
        p.add_argument(
            "--step-budget", type=int, default=None,
            help="propagation-step budget (batching-invariant "
                 "column-steps); same exhaustion semantics as "
                 "--deadline-ms",
        )
        p.add_argument(
            "--max-bytes", type=int, default=None,
            help="walk-block byte ceiling (16 bytes per node per "
                 "column): every block operator plans its width under "
                 "it; below one column the join stops with reason "
                 "'bytes' (same exhaustion semantics as --deadline-ms)",
        )
        p.add_argument(
            "--on-budget", choices=ON_BUDGET_POLICIES, default="partial",
            help="what budget exhaustion does: 'partial' (default) "
                 "returns best-effort results flagged exact=false, "
                 "'error' exits with status 3",
        )
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit machine-readable JSON")
        add_obs_common(p)

    def add_obs_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace-out", metavar="FILE", default=None,
            help="run under the structured tracer and append the query's "
                 "span tree to FILE as schema-tagged JSON lines "
                 "(repro-trace-v1); export failures never affect results",
        )
        p.add_argument(
            "--metrics-out", metavar="FILE", default=None,
            help="write a metrics snapshot after the run: Prometheus "
                 "text if FILE ends in .prom, else appended JSON lines",
        )

    two = sub.add_parser("two-way", help="top-k 2-way join")
    add_common(two)
    two.add_argument("--left", required=True, help="left node-set name")
    two.add_argument("--right", required=True, help="right node-set name")
    two.add_argument(
        "--algorithm",
        choices=("f-bj", "f-idj", "b-bj", "b-idj-x", "b-idj-y"),
        default="b-idj-y",
    )

    multi = sub.add_parser("multi-way", help="top-k n-way join")
    add_common(multi)
    multi.add_argument("--node-sets", nargs="+", required=True,
                       help="node-set names, one per query vertex")
    multi.add_argument("--shape", choices=_SHAPES, default="chain")
    multi.add_argument("--bidirectional", action="store_true",
                       help="add both directions per query edge")
    multi.add_argument(
        "--algorithm", choices=("nl", "ap", "pj", "pj-i"), default="pj-i"
    )
    multi.add_argument("--aggregate", default="MIN")
    multi.add_argument("-m", type=int, default=50, help="PJ/PJ-i prefix length")
    multi.add_argument(
        "--plan", choices=("fixed", "auto"), default="fixed",
        help="edge order / per-edge operator selection: 'fixed' "
             "(default) keeps index order with the strategy default, "
             "'auto' lets the degree/skew cost planner choose (answers "
             "are identical either way; only cost moves)",
    )
    multi.add_argument(
        "--explain", nargs="?", const="plan", choices=("plan", "analyze"),
        default=None,
        help="print the chosen plan (order, operators, cost estimates) "
             "before the answers; with --json the envelope gains a "
             "'plan' key.  '--explain analyze' also "
             "runs the query under the tracer and annotates each edge "
             "with predicted vs. actual propagation steps, cache hits, "
             "and peak block bytes",
    )

    stats = sub.add_parser("stats", help="print graph statistics")
    stats.add_argument("graph")
    stats.add_argument("--json", action="store_true", dest="as_json")

    serve = sub.add_parser(
        "serve",
        help="run a JSON request mix through the concurrent query service",
    )
    serve.add_argument("graph", help="TSV edge list with a '# nodes: N' header")
    serve.add_argument("--sets", required=True, help="JSON node-set file")
    serve.add_argument("--requests", required=True,
                       help="JSON list of request objects (see module docs)")
    serve.add_argument("--workers", type=int, default=4,
                       help="worker threads in the service pool")
    serve.add_argument("--queue-depth", type=int, default=32,
                       help="max requests waiting for a worker before "
                            "admission control rejects")
    serve.add_argument("--max-in-flight", type=int, default=None,
                       help="ceiling on admitted-but-unfinished requests "
                            "(default workers + queue depth)")
    serve.add_argument("--decay", type=float, default=0.2, help="lambda")
    serve.add_argument("--epsilon", type=float, default=1e-6,
                       help="truncation error target (Lemma 1)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-query wall budget (requests "
                            "without their own budget run under this; "
                            "queue wait counts against it)")
    serve.add_argument("--step-budget", type=int, default=None,
                       help="default per-query propagation-step budget")
    serve.add_argument("--json", action="store_true", dest="as_json",
                       help="emit machine-readable JSON")
    add_obs_common(serve)
    serve.add_argument(
        "--metrics-interval", type=float, default=None, metavar="SECONDS",
        help="with --metrics-out: flush a registry snapshot every "
             "SECONDS while the service runs (plus one final snapshot)",
    )
    return parser


def _budget(args) -> QueryBudget:
    """The ``QueryBudget`` selected by the flags (``serve`` has no
    ``--max-bytes``); no flag is ``QueryBudget()``, which never stops."""
    return QueryBudget(
        deadline_ms=args.deadline_ms, step_budget=args.step_budget,
        max_bytes=getattr(args, "max_bytes", None),
    )


def _envelope(result: PartialResult, rows: List[dict]) -> dict:
    """The one ``--json`` shape, ``{"exact", "reason", "results"}``,
    each row carrying its ``lower`` / ``upper`` score interval."""
    for row, (lower, upper) in zip(rows, result.bounds):
        row["lower"] = lower
        row["upper"] = upper
    return {"exact": result.exact, "reason": result.reason, "results": rows}


def _print_partial_note(result: PartialResult) -> None:
    if not result.exact:
        print(f"# partial result (budget exhausted: {result.reason}); "
              f"scores are lower bounds")


def _obs_setup(args, graph):
    """``(engine, tracer)`` for ``--trace-out`` / ``--metrics-out``.

    Both flags need the engine pinned up front (the API otherwise
    creates one internally): the tracer installs on it, and the metrics
    snapshot reads its stats after the run.  ``(None, None)`` when
    neither flag is set — the query path stays untouched.
    """
    if args.trace_out is None and args.metrics_out is None:
        return None, None
    from repro.obs import QueryTracer
    from repro.walks.engine import WalkEngine

    engine = WalkEngine(graph)
    tracer = QueryTracer() if args.trace_out is not None else None
    return engine, tracer


def _obs_export(args, engine, tracer) -> None:
    """Write the trace/metrics files the flags asked for (never raises)."""
    if tracer is not None:
        tracer.write_jsonl(args.trace_out)
    if args.metrics_out is not None and engine is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.register_engine(engine.stats)
        registry.write_snapshot(args.metrics_out)


def _dht_params(args) -> DHTParams:
    if args.measure == "dht-e":
        return DHTParams.dht_e()
    return DHTParams.dht_lambda(args.decay)


def _measure_kwargs(args) -> dict:
    """The API keywords ``--measure`` selects: a non-DHT measure object
    (which fixes its own depth), or the DHT params plus ``epsilon``."""
    if args.measure == "ppr":
        return {"measure": TruncatedPPR(damping=args.damping, epsilon=args.epsilon)}
    if args.measure == "simrank":
        measure = SimRankMeasure(decay=args.sr_decay, iterations=args.sr_iterations)
        return {"measure": measure}
    return {"params": _dht_params(args), "epsilon": args.epsilon}


def _query_graph(shape: str, n: int, bidirectional: bool,
                 names: Sequence[str]) -> QueryGraph:
    if shape == "chain":
        return QueryGraph.chain(n, bidirectional=bidirectional, names=names)
    if shape == "cycle":
        return QueryGraph.cycle(n, bidirectional=bidirectional, names=names)
    if shape == "triangle":
        if n != 3:
            raise GraphValidationError("triangle needs exactly 3 node sets")
        return QueryGraph.triangle(names=names)
    if shape == "star":
        return QueryGraph.star(n - 1, bidirectional=bidirectional, names=names)
    if shape == "clique":
        return QueryGraph.clique(n, bidirectional=bidirectional, names=names)
    raise GraphValidationError(f"unknown shape {shape!r}")  # pragma: no cover


def _resolve_sets(path: str, names: Sequence[str]) -> List[List[int]]:
    node_sets = read_node_sets(path)
    missing = [name for name in names if name not in node_sets]
    if missing:
        raise GraphValidationError(
            f"node sets {missing} not in {path} (available: {sorted(node_sets)})"
        )
    return [node_sets[name] for name in names]


def _run_two_way(args) -> int:
    graph = read_edge_list(args.graph)
    left, right = _resolve_sets(args.sets, [args.left, args.right])
    engine, tracer = _obs_setup(args, graph)
    result = two_way_join(
        graph, left, right, k=args.k,
        algorithm=args.algorithm,
        budget=_budget(args), on_budget=args.on_budget,
        engine=engine, tracer=tracer,
        **_measure_kwargs(args),
    )
    _obs_export(args, engine, tracer)
    if args.as_json:
        rows = [
            {"left": p.left, "right": p.right, "score": p.score} for p in result
        ]
        print(json.dumps(_envelope(result, rows)))
    else:
        _print_partial_note(result)
        for rank, pair in enumerate(result, start=1):
            print(f"{rank:>4}  ({pair.left}, {pair.right})  h_d = {pair.score:+.6f}")
    return 0


def _run_multi_way(args) -> int:
    graph = read_edge_list(args.graph)
    sets = _resolve_sets(args.sets, args.node_sets)
    query = _query_graph(
        args.shape, len(sets), args.bidirectional, args.node_sets
    )
    budget = _budget(args)
    engine, tracer = _obs_setup(args, graph)
    # One keyword set for explaining and for running, so the join
    # executes precisely the spec that was explained.
    query_kwargs = dict(
        algorithm=args.algorithm, aggregate=aggregate_by_name(args.aggregate),
        m=args.m, plan=args.plan,
        engine=engine,
        **_measure_kwargs(args),
    )
    plan_obj = None
    analyzed = None
    if args.explain:
        analyze = args.explain == "analyze"
        if analyze and not budget.unlimited:
            raise GraphValidationError(
                "--explain analyze runs the query unbudgeted; drop "
                "--deadline-ms/--step-budget/--max-bytes or use --explain plan"
            )
        # Plan once, print it, then replay that exact plan — the join
        # executes precisely what was explained (no double planning).
        # With 'analyze' the traced replay happens inside the API call
        # and its answers are the query's answers.
        plan_obj = explain_multi_way_plan(
            graph, query, sets, args.k, analyze=analyze, **query_kwargs
        )
        if analyze:
            analyzed = plan_obj
            if args.trace_out is not None and analyzed.trace is not None:
                from repro.obs import write_trace_jsonl

                write_trace_jsonl(args.trace_out, [analyzed.trace])
            _obs_export(args, engine, None)
            result = analyzed.answers
        else:
            query_kwargs["plan"] = plan_obj
    if analyzed is None:
        result = multi_way_join(
            graph, query, sets, k=args.k,
            budget=budget, on_budget=args.on_budget, tracer=tracer,
            **query_kwargs,
        )
        _obs_export(args, engine, tracer)
    if args.as_json:
        rows = [
            {
                "nodes": list(a.nodes),
                "score": a.score,
                "edge_scores": list(a.edge_scores),
            }
            for a in result
        ]
        payload = _envelope(result, rows)
        if plan_obj is not None:
            payload["plan"] = plan_obj.to_json()
        print(json.dumps(payload))
    else:
        if plan_obj is not None:
            for line in plan_obj.format().splitlines():
                print(f"# {line}")
        _print_partial_note(result)
        for rank, answer in enumerate(result, start=1):
            nodes = ", ".join(str(u) for u in answer.nodes)
            print(f"{rank:>4}  ({nodes})  f = {answer.score:+.6f}")
    return 0


def _resolve_members(node_sets: dict, value, path: str) -> List[int]:
    """A node list from a set name or an explicit id list."""
    if isinstance(value, str):
        if value not in node_sets:
            raise GraphValidationError(
                f"node set {value!r} not in {path} "
                f"(available: {sorted(node_sets)})"
            )
        return node_sets[value]
    if not isinstance(value, list):
        raise GraphValidationError(f"{value!r} is not a set name or id list")
    return [int(u) for u in value]


def _typed(entry: dict, key: str, types, default=None):
    """``entry[key]``, which must be of ``types``; ``default`` when absent
    (or given as the default itself, e.g. ``null`` for an unset budget).
    A JSON bool passes only where ``types`` is ``bool``."""
    value = entry.get(key, default)
    if value is not default and (
        isinstance(value, bool) != (types is bool)
        or not isinstance(value, types)
    ):
        raise GraphValidationError(f"{key!r} has the wrong type: {value!r}")
    return value


def _parse_requests(path: str, sets_path: str) -> List[object]:
    """The request objects described by the ``--requests`` JSON file.

    Each entry is ``{"type": "two-way" | "multi-way" | "explain", ...}``;
    node sets are named (resolved through ``--sets``) or explicit id
    lists, and multi-way entries give either a ``shape`` or explicit
    ``query_edges``.  Per-entry ``deadline_ms`` / ``step_budget`` keys
    become that request's own :class:`~repro.exec.budget.QueryBudget`.
    A malformed entry — missing key, unknown type or set name, a field
    of the wrong type — is a usage error naming the entry's index.
    """
    node_sets = read_node_sets(sets_path)
    with open(path, "r", encoding="utf-8") as handle:
        entries = json.load(handle)
    if not isinstance(entries, list) or not entries:
        raise GraphValidationError(
            f"{path} must hold a non-empty JSON list of request objects"
        )
    requests: List[object] = []
    for index, entry in enumerate(entries):
        try:
            requests.append(_parse_request(entry, node_sets, sets_path))
        except (TypeError, ValueError) as exc:
            raise GraphValidationError(
                f"request #{index} in {path}: {exc}"
            ) from exc
    return requests


def _parse_request(entry, node_sets: dict, sets_path: str) -> object:
    """One entry of the ``--requests`` file as a service request."""
    from repro.service import ExplainRequest, MultiWayRequest, TwoWayRequest

    if not isinstance(entry, dict) or "type" not in entry:
        raise GraphValidationError("needs a 'type' key")
    kind = entry["type"]
    if kind not in ("two-way", "multi-way", "explain"):
        raise GraphValidationError(
            f"unknown type {kind!r} (expected 'two-way', 'multi-way', "
            "or 'explain')"
        )
    for key in ("left", "right") if kind == "two-way" else ("node_sets",):
        if key not in entry:
            raise GraphValidationError(f"({kind}) needs a {key!r} key")
    deadline_ms = _typed(entry, "deadline_ms", (int, float))
    step_budget = _typed(entry, "step_budget", int)
    budget = None
    if deadline_ms is not None or step_budget is not None:
        budget = QueryBudget(deadline_ms=deadline_ms, step_budget=step_budget)
    k = _typed(entry, "k", int, 10)
    measure = _typed(entry, "measure", str)
    if kind == "two-way":
        return TwoWayRequest(
            left=_resolve_members(node_sets, entry["left"], sets_path),
            right=_resolve_members(node_sets, entry["right"], sets_path),
            k=k,
            algorithm=_typed(entry, "algorithm", str, "b-idj-y"),
            measure=measure,
            budget=budget,
        )
    sets = [
        _resolve_members(node_sets, value, sets_path)
        for value in _typed(entry, "node_sets", list)
    ]
    if "query_edges" in entry:
        edges = _typed(entry, "query_edges", list)  # the request checks pairs
    else:
        names = [str(value) for value in entry["node_sets"]]
        query = _query_graph(
            _typed(entry, "shape", str, "chain"), len(sets),
            _typed(entry, "bidirectional", bool, False), names,
        )
        edges = [(edge[0], edge[1]) for edge in query.edges]
    common = dict(
        query_edges=edges,
        node_sets=sets,
        k=k,
        algorithm=_typed(entry, "algorithm", str, "pj-i"),
        m=_typed(entry, "m", int, 50),
        measure=measure,
    )
    if kind == "explain":
        return ExplainRequest(plan=_typed(entry, "plan", str, "auto"), **common)
    return MultiWayRequest(
        plan=_typed(entry, "plan", str, "fixed"), budget=budget, **common
    )


def _response_payload(response) -> dict:
    """A JSON-ready row for one :class:`QueryResponse`."""
    row: dict = {
        "type": type(response.request).__name__,
        "status": response.status,
        "queued_ms": round(response.queued_ms, 3),
        "latency_ms": round(response.latency_ms, 3),
    }
    if response.error is not None:
        row["error"] = response.error
    result = response.result
    if not response.ok or result is None:
        return row
    if isinstance(result, PartialResult):
        row["exact"] = result.exact
        if not result.exact:
            row["reason"] = result.reason
        rows = []
        for item in result.results:
            if hasattr(item, "nodes"):
                rows.append({"nodes": list(item.nodes), "score": item.score})
            else:
                rows.append({
                    "left": item.left, "right": item.right, "score": item.score
                })
        row["results"] = rows
    else:  # ExplainedPlan
        row["plan"] = result.to_json()
    return row


def _run_serve(args) -> int:
    from repro.service import QueryService

    graph = read_edge_list(args.graph)
    requests = _parse_requests(args.requests, args.sets)
    tracer = None
    if args.trace_out is not None:
        from repro.obs import QueryTracer

        tracer = QueryTracer()
    flush_stop = None
    with QueryService(
        graph,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_in_flight=args.max_in_flight,
        default_budget=_budget(args),
        params=DHTParams.dht_lambda(args.decay),
        epsilon=args.epsilon,
        tracer=tracer,
    ) as service:
        interval = args.metrics_interval
        if args.metrics_out is not None and interval is not None:
            import threading

            registry = service.metrics_registry()
            flush_stop = threading.Event()

            def _flush_loop() -> None:
                while not flush_stop.wait(interval):
                    registry.write_snapshot(args.metrics_out)

            threading.Thread(
                target=_flush_loop, name="metrics-flush", daemon=True
            ).start()
        tickets = [service.submit(request) for request in requests]
        responses = [ticket.result() for ticket in tickets]
        snapshot = service.stats()
        if flush_stop is not None:
            flush_stop.set()
        if args.metrics_out is not None:
            service.metrics_registry().write_snapshot(args.metrics_out)
    if tracer is not None:
        tracer.write_jsonl(args.trace_out)
    stats_row = dataclasses.asdict(snapshot)
    slow = snapshot.slow_queries()
    if args.as_json:
        print(json.dumps({
            "responses": [_response_payload(r) for r in responses],
            "stats": stats_row,
            "slow_queries": list(slow),
        }))
        return 0
    for rank, response in enumerate(responses, start=1):
        kind = type(response.request).__name__.replace("Request", "").lower()
        if response.ok:
            result = response.result
            if isinstance(result, PartialResult):
                shape = "exact" if result.exact else f"partial/{result.reason}"
                shape += f" ({len(result.results)} answers)"
            else:
                shape = "plan"
            print(f"{rank:>4}  {kind:<9} ok        {shape:<28} "
                  f"latency {response.latency_ms:8.2f} ms")
        else:
            print(f"{rank:>4}  {kind:<9} {response.status:<9} {response.error}")
    print("# service stats")
    for key, value in stats_row.items():
        print(f"{key:>22}: {value:g}" if isinstance(value, float)
              else f"{key:>22}: {value}")
    if slow:
        print("# slow queries (worst latency first)")
        for entry in slow:
            print(f"  {entry['request']:<16} latency {entry['latency_ms']:8.2f} ms  "
                  f"queued {entry['queued_ms']:7.2f} ms  exact={entry['exact']}")
    return 0


def _run_stats(args) -> int:
    graph = read_edge_list(args.graph)
    stats = graph.degree_statistics()
    if args.as_json:
        print(json.dumps(stats))
    else:
        for key, value in stats.items():
            print(f"{key:>18}: {value:g}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "two-way":
            return _run_two_way(args)
        if args.command == "multi-way":
            return _run_multi_way(args)
        if args.command == "serve":
            return _run_serve(args)
        return _run_stats(args)
    except BudgetExhaustedError as exc:
        # --on-budget error: exhaustion is an explicit failure mode,
        # distinct from usage errors.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GraphValidationError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
