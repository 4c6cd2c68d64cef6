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
Each query, one-shot or a ``serve`` request, is a :mod:`repro.query`
request run by :func:`repro.api.run`.  The ``--requests`` file is a JSON
list of request objects with the keys of :data:`REQUEST_KEYS`, e.g.
``[{"type": "two-way", "left": "DB", "right": "AI", "k": 5},
{"type": "multi-way", "shape": "chain", "node_sets": ["DB", "AI"],
"k": 5, "measure": "ppr"}]`` (``type`` also accepts ``"explain"``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.api import explain_multi_way_plan, run
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
from repro.graph.io import read_edge_list, read_node_sets
from repro.graph.validation import GraphValidationError
from repro.query import (
    MEASURE_NAMES, ExplainRequest, MultiWayRequest, TwoWayRequest,
)

_SHAPES = ("chain", "cycle", "triangle", "star", "clique")

#: One flag per :class:`~repro.exec.budget.QueryBudget` field: its type
#: and help.  Under ``serve`` the flags set the default budget of
#: requests that carry none of their own.
_BUDGET_FLAGS = {
    "deadline_ms": (
        float,
        "wall-clock budget in milliseconds; on exhaustion the join "
        "returns flagged best-effort results with score intervals (see "
        "--on-budget); under serve queue wait counts against it",
    ),
    "step_budget": (
        int,
        "propagation-step budget (batching-invariant column-steps); same "
        "exhaustion semantics as --deadline-ms",
    ),
    "max_bytes": (
        int,
        "walk-block byte ceiling (16 bytes per node per column): every "
        "block operator plans its width under it; below one column the "
        "join stops with reason 'bytes' (same exhaustion semantics as "
        "--deadline-ms)",
    ),
}

_REQUEST_TYPES = ("two-way", "multi-way", "explain")
_NWAY_TYPES = ("multi-way", "explain")

#: Every key a ``--requests`` entry may carry: the JSON types it accepts
#: (``null`` only where the request field's unset value is ``None``) and
#: the entry types it applies to.  The budget keys are the
#: ``QueryBudget`` fields.
REQUEST_KEYS = {
    "type": (str, _REQUEST_TYPES),
    "k": (int, _REQUEST_TYPES),
    "algorithm": (str, _REQUEST_TYPES),
    "measure": ((str, type(None)), _REQUEST_TYPES),
    "left": ((str, list), ("two-way",)),
    "right": ((str, list), ("two-way",)),
    "node_sets": (list, _NWAY_TYPES),
    "shape": (str, _NWAY_TYPES),
    "bidirectional": (bool, _NWAY_TYPES),
    "query_edges": (list, _NWAY_TYPES),
    "m": (int, _NWAY_TYPES),
    "plan": (str, _NWAY_TYPES),
    **{
        name: ((int, float, type(None)) if kind is float else (kind, type(None)),
               _REQUEST_TYPES)
        for name, (kind, _) in _BUDGET_FLAGS.items()
    },
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-way joins over discounted hitting time (ICDE 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit machine-readable JSON")

    def add_config(p: argparse.ArgumentParser) -> None:
        """The flags ``serve`` shares with the one-shot subcommands."""
        p.add_argument("graph", help="TSV edge list with a '# nodes: N' header")
        p.add_argument("--sets", required=True, help="JSON node-set file")
        p.add_argument("--decay", type=float, default=0.2, help="lambda")
        p.add_argument("--epsilon", type=float, default=None,
                       help="truncation error target (Lemma 1; one-shot "
                            "runs also set PPR's depth from it); unset, "
                            "each measure keeps its own default")
        for name, (kind, text) in _BUDGET_FLAGS.items():
            p.add_argument(
                "--" + name.replace("_", "-"), type=kind, default=None,
                help=text,
            )
        add_json(p)
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

    def add_query(p: argparse.ArgumentParser) -> None:
        """The one-shot subcommands' flags: the shared ones, plus ``k``,
        the measure and the exhaustion policy."""
        add_config(p)
        p.add_argument("-k", type=int, default=10, help="answers to return")
        p.add_argument(
            "--measure",
            choices=MEASURE_NAMES,
            default="dht-lambda",
            help="proximity measure ('dht' aliases 'dht-lambda'; 'ppr' "
                 "runs the measure-generic join stack)",
        )
        p.add_argument("--damping", type=float, default=0.85,
                       help="PPR continuation probability c (--measure ppr)")
        p.add_argument(
            "--on-budget", choices=ON_BUDGET_POLICIES, default="partial",
            help="what budget exhaustion does: 'partial' (default) "
                 "returns best-effort results flagged exact=false, "
                 "'error' exits with status 3",
        )

    two = sub.add_parser("two-way", help="top-k 2-way join")
    add_query(two)
    two.add_argument("--left", required=True, help="left node-set name")
    two.add_argument("--right", required=True, help="right node-set name")
    two.add_argument(
        "--algorithm",
        choices=("f-bj", "f-idj", "b-bj", "b-idj-x", "b-idj-y"),
        default="b-idj-y",
    )
    two.set_defaults(explain=None)

    multi = sub.add_parser("multi-way", help="top-k n-way join")
    add_query(multi)
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
    add_json(stats)

    serve = sub.add_parser(
        "serve",
        help="run a JSON request mix through the concurrent query service",
    )
    add_config(serve)
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
    serve.add_argument(
        "--metrics-interval", type=float, default=None, metavar="SECONDS",
        help="with --metrics-out: flush a registry snapshot every "
             "SECONDS while the service runs (plus one final snapshot)",
    )
    return parser


def _budget(args) -> QueryBudget:
    """The ``QueryBudget`` selected by the flags; no flag is
    ``QueryBudget()``, which never stops."""
    return QueryBudget(**{name: getattr(args, name) for name in _BUDGET_FLAGS})


def _envelope(result: PartialResult) -> dict:
    """The one ``--json`` result shape, ``{"exact", "reason", "results"}``,
    each row carrying its ``lower`` / ``upper`` score interval (and an
    n-way row its ``edge_scores``); one-shot runs print it, ``serve``
    rows embed it."""
    rows = []
    for item, (lower, upper) in zip(result.results, result.bounds):
        if hasattr(item, "nodes"):
            row = {
                "nodes": list(item.nodes),
                "score": item.score,
                "edge_scores": list(item.edge_scores),
            }
        else:
            row = {"left": item.left, "right": item.right, "score": item.score}
        row["lower"] = lower
        row["upper"] = upper
        rows.append(row)
    return {"exact": result.exact, "reason": result.reason, "results": rows}


def _obs_setup(args, graph):
    """``(engine, tracer)`` for ``--trace-out`` / ``--metrics-out``.

    Both flags need the engine pinned up front (the API otherwise
    creates one internally): the tracer installs on it, and the metrics
    snapshot reads its stats after the run.  ``(None, None)`` when
    neither flag is set — the query path stays untouched.
    """
    if args.trace_out is None and args.metrics_out is None:
        return None, None
    from repro.walks.engine import WalkEngine

    return WalkEngine(graph), _tracer(args)


def _tracer(args):
    """A :class:`~repro.obs.QueryTracer` when ``--trace-out`` asks for one."""
    if args.trace_out is None:
        return None
    from repro.obs import QueryTracer

    return QueryTracer()


def _obs_export(args, engine, tracer) -> None:
    """Write the trace/metrics files the flags asked for (never raises)."""
    if tracer is not None:
        tracer.write_jsonl(args.trace_out)
    if args.metrics_out is not None and engine is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.register_engine(engine.stats)
        registry.write_snapshot(args.metrics_out)


def _options(args) -> dict:
    """The :class:`~repro.query.QueryOptions` the flags select: a non-DHT
    ``--measure`` object (which fixes its own depth) or the DHT params
    plus ``epsilon`` (unset: the measure's own default, as for
    ``measure="X"``), the budget and the exhaustion policy."""
    options = {"budget": _budget(args), "on_budget": args.on_budget}
    epsilon = {} if args.epsilon is None else {"epsilon": args.epsilon}
    if args.measure == "ppr":
        options["measure"] = TruncatedPPR(damping=args.damping, **epsilon)
    else:
        options["params"] = (
            DHTParams.dht_e() if args.measure == "dht-e"
            else DHTParams.dht_lambda(args.decay)
        )
        options.update(epsilon)
    return options


def _query_graph(shape: str, n: int, bidirectional: bool,
                 names: Sequence[str]) -> QueryGraph:
    """The ``shape`` query graph over ``n`` node sets (a star's first
    set is its center)."""
    if shape not in _SHAPES:
        raise GraphValidationError(f"unknown shape {shape!r}")
    if shape == "triangle":
        if n != 3:
            raise GraphValidationError("triangle needs exactly 3 node sets")
        return QueryGraph.triangle(names=names)
    size = n - 1 if shape == "star" else n
    return getattr(QueryGraph, shape)(
        size, bidirectional=bidirectional, names=names
    )


def _resolve_sets(node_sets: dict, values, path: str) -> List[List[int]]:
    """The node lists ``values`` name: each a set name from
    ``node_sets``, the ``--sets`` file at ``path``, or an explicit id
    list."""
    resolved = []
    for value in values:
        if isinstance(value, str):
            if value not in node_sets:
                raise GraphValidationError(
                    f"node set {value!r} not in {path} "
                    f"(available: {sorted(node_sets)})"
                )
            resolved.append(node_sets[value])
        elif isinstance(value, list):
            resolved.append(value)  # the request checks the ids
        else:
            raise GraphValidationError(
                f"{value!r} is not a set name or id list"
            )
    return resolved


def _run_query(args) -> int:
    """``two-way`` / ``multi-way``: build the request, run it, print it."""
    graph = read_edge_list(args.graph)
    engine, tracer = _obs_setup(args, graph)
    options = _options(args)
    plan = None
    if args.command == "two-way":
        left, right = _resolve_sets(
            read_node_sets(args.sets), [args.left, args.right], args.sets
        )
        request = TwoWayRequest(left, right, args.k, args.algorithm, **options)
    else:
        sets = _resolve_sets(
            read_node_sets(args.sets), args.node_sets, args.sets
        )
        query = _query_graph(
            args.shape, len(sets), args.bidirectional, args.node_sets
        )
        # One option set for explaining and for running, so the join
        # executes precisely the request that was explained.
        options.update(
            aggregate=aggregate_by_name(args.aggregate), m=args.m,
            plan=args.plan,
        )
        request = MultiWayRequest(
            query.edges, sets, args.k, args.algorithm,
            names=tuple(args.node_sets), **options,
        )
    if args.explain:
        analyze = args.explain == "analyze"
        if analyze and not request.budget.unlimited:
            raise GraphValidationError(
                "--explain analyze runs the query unbudgeted; drop "
                "--deadline-ms/--step-budget/--max-bytes or use --explain plan"
            )
        # Plan once, print it, then replay that exact plan — the join
        # executes precisely what was explained (no double planning).
        # With 'analyze' the traced replay happens inside the API call
        # and its answers are the query's answers.
        plan = explain_multi_way_plan(
            graph, query, sets, args.k, args.algorithm, engine=engine,
            analyze=analyze, **options,
        )
    if args.explain == "analyze":
        if args.trace_out is not None and plan.trace is not None:
            from repro.obs import write_trace_jsonl

            write_trace_jsonl(args.trace_out, [plan.trace])
        _obs_export(args, engine, None)
        result = plan.answers
    else:
        if plan is not None:
            request = replace(request, plan=plan)
        result = run(graph, request, engine=engine, tracer=tracer)
        _obs_export(args, engine, tracer)
    if args.as_json:
        payload = _envelope(result)
        if plan is not None:
            payload["plan"] = plan.to_json()
        print(json.dumps(payload))
        return 0
    if plan is not None:
        for line in plan.format().splitlines():
            print(f"# {line}")
    if not result.exact:
        print(f"# partial result (budget exhausted: {result.reason}); "
              f"scores are lower bounds")
    for rank, item in enumerate(result, start=1):
        if args.command == "two-way":
            print(f"{rank:>4}  ({item.left}, {item.right})  h_d = {item.score:+.6f}")
        else:
            nodes = ", ".join(str(u) for u in item.nodes)
            print(f"{rank:>4}  ({nodes})  f = {item.score:+.6f}")
    return 0


def _parse_requests(path: str, sets_path: str) -> List[object]:
    """The request objects described by the ``--requests`` JSON file.

    Each entry is ``{"type": "two-way" | "multi-way" | "explain", ...}``
    with keys from :data:`REQUEST_KEYS`; node sets are named (resolved
    through ``--sets``) or explicit id lists, and multi-way entries give
    either a ``shape`` or explicit ``query_edges``.  Budget keys become
    that request's own :class:`~repro.exec.budget.QueryBudget`.  A
    malformed entry — missing or unknown key, unknown type or set name,
    a value of the wrong type — is a usage error naming the entry's
    index.
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
    """One entry of the ``--requests`` file as a :mod:`repro.query`
    request."""
    if not isinstance(entry, dict) or "type" not in entry:
        raise GraphValidationError("needs a 'type' key")
    kind = entry["type"]
    if kind not in _REQUEST_TYPES:
        raise GraphValidationError(
            f"unknown type {kind!r} (expected one of {_REQUEST_TYPES})"
        )
    for key, value in entry.items():
        types, kinds = REQUEST_KEYS.get(key, (None, ()))
        if kind not in kinds:
            raise GraphValidationError(f"unknown key {key!r} for a {kind} request")
        # A JSON bool passes only where ``types`` is ``bool``.
        if isinstance(value, bool) != (types is bool) or not isinstance(value, types):
            raise GraphValidationError(f"{key!r} has the wrong type: {value!r}")
    for key in ("left", "right") if kind == "two-way" else ("node_sets",):
        if key not in entry:
            raise GraphValidationError(f"({kind}) needs a {key!r} key")
    fields = {
        key: entry[key]
        for key in ("algorithm", "measure", "m", "plan") if key in entry
    }
    fields["k"] = entry.get("k", 10)
    # ``null`` leaves an axis unset; no axis set keeps the serve default.
    budget = {
        name: entry[name]
        for name in _BUDGET_FLAGS if entry.get(name) is not None
    }
    if budget:
        fields["budget"] = QueryBudget(**budget)
    if kind == "two-way":
        return TwoWayRequest(
            *_resolve_sets(node_sets, [entry["left"], entry["right"]], sets_path),
            **fields,
        )
    sets = _resolve_sets(node_sets, entry["node_sets"], sets_path)
    names = None
    if "query_edges" in entry:
        edges = entry["query_edges"]  # the request checks the pairs
    else:
        names = tuple(map(str, entry["node_sets"]))
        edges = _query_graph(
            entry.get("shape", "chain"), len(sets),
            entry.get("bidirectional", False), names,
        ).edges
    kind_type = ExplainRequest if kind == "explain" else MultiWayRequest
    return kind_type(edges, sets, names=names, **fields)


def _response_payload(response) -> dict:
    """A JSON-ready row for one :class:`QueryResponse`: a join's rows
    carry the one-shot :func:`_envelope`, an explain its plan."""
    row: dict = {
        "type": type(response.request).__name__,
        "status": response.status,
        "queued_ms": round(response.queued_ms, 3),
        "latency_ms": round(response.latency_ms, 3),
    }
    if response.error is not None:
        row["error"] = response.error
    result = response.result
    if isinstance(result, PartialResult):
        row.update(_envelope(result))
    elif result is not None:  # ExplainedPlan
        row["plan"] = result.to_json()
    return row


def _run_serve(args) -> int:
    from repro.service import QueryService

    graph = read_edge_list(args.graph)
    requests = _parse_requests(args.requests, args.sets)
    tracer = _tracer(args)
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
        if args.command in ("two-way", "multi-way"):
            return _run_query(args)
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
