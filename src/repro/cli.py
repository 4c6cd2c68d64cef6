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
request run by :func:`repro.api.run`.  :data:`REQUEST_KEYS` declares
every request option once: a ``--requests`` entry's keys, and the
one-shot flags, which become the same entry and the same request.  The
``--requests`` file is a JSON list of request objects, e.g.
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
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.api import explain_multi_way_plan, run
from repro.core.dht import DHTParams
from repro.core.nway import EXECUTORS
from repro.core.nway.aggregates import aggregate_by_name
from repro.core.nway.driver import OPERATORS
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import PLAN_MODES
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
_REQUEST_TYPES = ("two-way", "multi-way", "explain")
_NWAY_TYPES = ("multi-way", "explain")
_BUDGET_KEYS = tuple(field.name for field in dataclasses.fields(QueryBudget))
_NONE = type(None)


class RequestKey(NamedTuple):
    """One request option: the JSON types a ``--requests`` entry may
    give it (``null`` only where the request field's unset value is
    ``None``), the entry types it applies to, and the argparse keywords
    of its one-shot flag, which is unset by default (``None``: no flag;
    ``choices`` may map each subcommand to its own)."""

    types: object
    kinds: Tuple[str, ...]
    flag: Optional[dict] = None


#: Every key a ``--requests`` entry may carry, and the one-shot flag of
#: each; the budget keys are the ``QueryBudget`` fields (under ``serve``
#: their flags set the default budget of requests that carry none).
REQUEST_KEYS = {
    "type": RequestKey(str, _REQUEST_TYPES),
    "k": RequestKey(int, _REQUEST_TYPES, dict(type=int, help="answers to return")),
    "algorithm": RequestKey(str, _REQUEST_TYPES, dict(
        choices={"two-way": tuple(OPERATORS), "multi-way": tuple(EXECUTORS)},
    )),
    "measure": RequestKey((str, _NONE), _REQUEST_TYPES, dict(
        choices=MEASURE_NAMES,
        help="proximity measure ('dht' aliases 'dht-lambda'; 'ppr' runs "
             "the measure-generic join stack)",
    )),
    "on_budget": RequestKey(str, _REQUEST_TYPES, dict(
        choices=ON_BUDGET_POLICIES,
        help="what budget exhaustion does: 'partial' (default) returns "
             "best-effort results flagged exact=false, 'error' exits with "
             "status 3",
    )),
    "deadline_ms": RequestKey((int, float, _NONE), _REQUEST_TYPES, dict(
        type=float,
        help="wall-clock budget in milliseconds; on exhaustion the join "
             "returns flagged best-effort results with score intervals (see "
             "--on-budget); under serve queue wait counts against it",
    )),
    "step_budget": RequestKey((int, _NONE), _REQUEST_TYPES, dict(
        type=int,
        help="propagation-step budget (batching-invariant column-steps); "
             "same exhaustion semantics as --deadline-ms",
    )),
    "max_bytes": RequestKey((int, _NONE), _REQUEST_TYPES, dict(
        type=int,
        help="walk-block byte ceiling (16 bytes per node per column): every "
             "block operator plans its width under it; below one column the "
             "join stops with reason 'bytes' (same exhaustion semantics as "
             "--deadline-ms)",
    )),
    "left": RequestKey((str, list), ("two-way",), dict(
        required=True, help="left node-set name")),
    "right": RequestKey((str, list), ("two-way",), dict(
        required=True, help="right node-set name")),
    "node_sets": RequestKey(list, _NWAY_TYPES, dict(
        nargs="+", required=True, help="node-set names, one per query vertex")),
    "shape": RequestKey(str, _NWAY_TYPES, dict(choices=_SHAPES)),
    "bidirectional": RequestKey(bool, _NWAY_TYPES, dict(
        action="store_true", help="add both directions per query edge")),
    "query_edges": RequestKey(list, _NWAY_TYPES),
    "aggregate": RequestKey(str, _NWAY_TYPES, dict()),
    "m": RequestKey(int, _NWAY_TYPES, dict(type=int, help="PJ/PJ-i prefix length")),
    "plan": RequestKey(str, _NWAY_TYPES, dict(
        choices=PLAN_MODES,
        help="edge order / per-edge operator selection: 'fixed' (default) "
             "keeps index order with the strategy default, 'auto' lets the "
             "degree/skew cost planner choose (answers are identical either "
             "way; only cost moves)",
    )),
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

    def add_config(p: argparse.ArgumentParser, command: str, keys) -> None:
        """The flags ``serve`` shares with the one-shot subcommands, and
        ``command``'s flags of request keys ``keys``."""
        p.add_argument("graph", help="TSV edge list with a '# nodes: N' header")
        p.add_argument("--sets", required=True, help="JSON node-set file")
        p.add_argument("--decay", type=float, default=None,
                       help="DHT_lambda's lambda (default 0.2); only for a "
                            "DHT_lambda measure")
        p.add_argument("--epsilon", type=float, default=None,
                       help="truncation error target (Lemma 1; one-shot "
                            "runs also set PPR's depth from it); unset, "
                            "each measure keeps its own default")
        for key in keys:
            flag = dict(REQUEST_KEYS[key].flag)
            if isinstance(flag.get("choices"), dict):
                flag["choices"] = flag["choices"][command]
            name = "-" + key if len(key) == 1 else "--" + key.replace("_", "-")
            p.add_argument(name, **flag)
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

    queries = {}
    for command, text in (
        ("two-way", "top-k 2-way join"), ("multi-way", "top-k n-way join"),
    ):
        query = queries[command] = sub.add_parser(command, help=text)
        add_config(query, command, [
            key for key, row in REQUEST_KEYS.items()
            if row.flag is not None and command in row.kinds
        ])
        query.add_argument("--damping", type=float, default=None,
                           help="PPR continuation probability c (default "
                                "0.85); only with --measure ppr")
        query.set_defaults(explain=None)
    queries["multi-way"].add_argument(
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
    add_config(serve, "serve", _BUDGET_KEYS)
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
    return QueryBudget(**{name: getattr(args, name) for name in _BUDGET_KEYS})


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


def _measure_flags(request, args):
    """``request`` with ``--decay`` / ``--damping`` / ``--epsilon``
    configuring its named measure.  A flag that measure does not read is
    a usage error, as the api rejects ``params`` beside a named measure."""
    name = request.measure or "dht-lambda"
    if args.decay is not None and name not in ("dht", "dht-lambda"):
        raise GraphValidationError(
            f"--decay does not apply to --measure {name} (only to dht-lambda)"
        )
    if args.damping is not None and name != "ppr":
        raise GraphValidationError(
            f"--damping does not apply to --measure {name} (only to ppr)"
        )
    if name == "ppr":
        given = {"damping": args.damping, "epsilon": args.epsilon}
        given = {key: value for key, value in given.items() if value is not None}
        return replace(request, measure=TruncatedPPR(**given)) if given else request
    if args.decay is None and args.epsilon is None:
        return request
    params = None if args.decay is None else DHTParams.dht_lambda(args.decay)
    if name == "dht-e":
        params = DHTParams.dht_e()
    return replace(request, measure=None, params=params, epsilon=args.epsilon)


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
    """``two-way`` / ``multi-way``: build the request, run it, print it.

    The flags become the ``--requests`` entry that asks for the same
    query, built by the same :func:`_parse_request`, and then
    :func:`_measure_flags` configures its measure."""
    graph = read_edge_list(args.graph)
    engine, tracer = _obs_setup(args, graph)
    entry = {"type": args.command}
    entry.update(
        (key, value) for key in REQUEST_KEYS
        if (value := getattr(args, key, None)) is not None
    )
    request = _measure_flags(
        _parse_request(entry, read_node_sets(args.sets), args.sets), args
    )
    plan = None
    if args.explain:
        # Plan once, print it, then replay that exact plan — the join
        # executes precisely what was explained (no double planning).
        # With 'analyze' the traced replay happens inside the API call
        # and its answers are the query's answers.
        query = ("query_edges", "node_sets", "k", "algorithm", "names")
        options = {
            field.name: getattr(request, field.name)
            for field in dataclasses.fields(request) if field.name not in query
        }
        plan = explain_multi_way_plan(
            graph,
            QueryGraph(
                len(request.node_sets), request.query_edges,
                names=request.names,
            ),
            request.node_sets, request.k, request.algorithm, engine=engine,
            analyze=args.explain == "analyze", **options,
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
    """One ``--requests`` entry (or the one-shot flags as one) as a
    :mod:`repro.query` request."""
    if not isinstance(entry, dict) or "type" not in entry:
        raise GraphValidationError("needs a 'type' key")
    kind = entry["type"]
    if kind not in _REQUEST_TYPES:
        raise GraphValidationError(
            f"unknown type {kind!r} (expected one of {_REQUEST_TYPES})"
        )
    for key, value in entry.items():
        types, kinds, _ = REQUEST_KEYS.get(key, (None, (), None))
        if kind not in kinds:
            raise GraphValidationError(f"unknown key {key!r} for a {kind} request")
        # A JSON bool passes only where ``types`` is ``bool``.
        if isinstance(value, bool) != (types is bool) or not isinstance(value, types):
            raise GraphValidationError(f"{key!r} has the wrong type: {value!r}")
    for key, row in REQUEST_KEYS.items():
        if kind in row.kinds and (row.flag or {}).get("required") and key not in entry:
            raise GraphValidationError(f"({kind}) needs a {key!r} key")
    fields = {
        key: entry[key]
        for key in ("algorithm", "measure", "m", "plan", "on_budget")
        if key in entry
    }
    fields["k"] = entry.get("k", 10)
    if "aggregate" in entry:
        fields["aggregate"] = aggregate_by_name(entry["aggregate"])
    # ``null`` leaves an axis unset; no axis set keeps the serve default.
    budget = {
        name: entry[name]
        for name in _BUDGET_KEYS if entry.get(name) is not None
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
        params=None if args.decay is None else DHTParams.dht_lambda(args.decay),
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
