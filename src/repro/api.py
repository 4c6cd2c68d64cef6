"""High-level API: one executor, three keyword entry points.

:func:`run` executes a :mod:`repro.query` request — the paper's two
query types and their options, declared once in
:class:`~repro.query.QueryOptions` — and is the one path every caller
takes: the keyword entry points below, the
:class:`~repro.service.QueryService` and the CLI each build a request
and call it.

* :func:`two_way_join` — top-``k`` node pairs between two node sets
  (Section V/VI), with the algorithm selectable by its paper name.
* :func:`multi_way_join` — top-``k`` n-tuples over a query graph
  (Definition 4), with ``NL`` / ``AP`` / ``PJ`` / ``PJ-i`` selectable.
* :func:`explain_multi_way_plan` — the plan :func:`multi_way_join`
  would execute, optionally run and annotated with its actuals.

Requests default to the paper's experimental configuration:
``DHT_lambda`` with ``lambda = 0.2``, ``epsilon = 1e-6`` (hence
``d = 8``), ``MIN`` aggregate, and ``m = 50``.  :func:`run` resolves a
request's measure options once
(:func:`~repro.query.resolve_measure`) to one measure value — DHT is a
measure like PPR (Section VIII's future-work plan) — which
the one context / spec every join reads carries: the same operators
run, with the measure's scorer and bound read off the context.

Every join runs the same way: under an installed
:class:`~repro.exec.governor.ExecutionGovernor` that enforces the
request's :class:`~repro.exec.budget.QueryBudget` at cooperative
checkpoints (``budget=None`` is ``QueryBudget()``, which never stops a
query), returning a :class:`~repro.exec.budget.PartialResult` — exact
with degenerate bounds when the join completed, flagged (``exact=False``
plus a reason and per-result score intervals) when a budget ran out, or
an allocation failed at the one-column floor, under the default
``on_budget="partial"`` policy.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Optional, Sequence, Tuple

from repro.bounds_cache import BoundPlanCache
from repro.core.nway import EXECUTORS
from repro.core.nway.driver import OPERATORS, runs_under, two_way_operator
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.core.two_way.base import TwoWayContext
from repro.exec.budget import PartialResult, QueryBudget
from repro.exec.governor import ExecutionGovernor
from repro.exec.governed import (
    check_on_budget,
    run_governed_multi_way,
    run_governed_top_k,
)
from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError
from repro.query import (
    ExplainRequest,
    MultiWayRequest,
    QueryOptions,
    TwoWayRequest,
    resolve_measure,
)
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine


def _measure(request: QueryOptions):
    """The one measure ``request``'s options describe."""
    return resolve_measure(
        request.measure, params=request.params, d=request.d,
        epsilon=request.epsilon,
    )


@contextmanager
def _governed(engine, walk_cache, budget: Optional[QueryBudget], fault_injector):
    """An :class:`ExecutionGovernor` installed on ``engine`` for the block
    (``budget=None`` and no injector: one that can never stop)."""
    governor = ExecutionGovernor(
        budget, fault_injector=fault_injector
    ).install(engine, walk_cache)
    try:
        yield governor
    finally:
        governor.uninstall()


@contextmanager
def _traced(engine, tracer, name: str, algorithm: str, k: int):
    """``tracer`` installed on ``engine`` under a root ``query`` span for
    the block (cleared in a ``finally``); a no-op without a tracer."""
    if tracer is None:
        yield
        return
    engine.tracer = tracer
    try:
        with tracer.span(
            "query", name, stats=engine.stats, algorithm=algorithm.lower(), k=k,
        ):
            yield
    finally:
        engine.tracer = None


def run(
    graph: Graph,
    request: QueryOptions,
    *,
    engine: Optional[WalkEngine] = None,
    walk_cache: Optional[WalkCache] = None,
    bound_cache: Optional[BoundPlanCache] = None,
    fault_injector=None,
    tracer=None,
):
    """Execute one request on ``graph``: the only executor.

    A join returns a :class:`~repro.exec.budget.PartialResult`: at most
    ``k`` :class:`~repro.core.two_way.base.ScoredPair` /
    :class:`~repro.core.nway.candidates.CandidateAnswer` rows, best
    first, with their score intervals (a flagged n-way answer's bounds
    aggregate the per-edge intervals).  An
    :class:`~repro.query.ExplainRequest` returns its
    :class:`~repro.planner.plan.ExplainedPlan`, without walking.

    Parameters
    ----------
    engine:
        The :class:`~repro.walks.engine.WalkEngine` to walk on (one per
        query when omitted).
    walk_cache / bound_cache:
        A :class:`~repro.walks.cache.WalkCache` /
        :class:`~repro.bounds_cache.BoundPlanCache` bound to the same
        engine and measure identity.  A query always shares one of each
        across its edges, so overlapping node sets never walk a target
        or build a ``Y`` bound twice; pass them to share across *calls*
        too — hot targets from one query warm the next, which is how
        :class:`repro.service.QueryService` amortises walks across
        users — or to bound the walk cache (``WalkCache(...,
        max_bytes=...)``).
    fault_injector:
        A seeded :class:`~repro.exec.faults.FaultInjector` for the
        query's governor.
    tracer:
        A :class:`~repro.obs.QueryTracer`: the query runs under a root
        ``query`` span with nested ``plan``/``edge``/``refill``/
        ``join``/``level`` spans from every layer it passes through
        (installed on the engine for the call); spans only observe.
    """
    if isinstance(request, ExplainRequest):
        return _explained(graph, request, engine, walk_cache, bound_cache)[2]
    if isinstance(request, TwoWayRequest):
        if request.k < 0:
            # Before any context exists: a bad k must not walk (or warm a
            # shared cache) first.
            raise GraphValidationError(f"k must be >= 0, got {request.k}")
        name = "two-way"
    elif isinstance(request, MultiWayRequest):
        name = "multi-way"
    else:
        raise GraphValidationError(
            f"unknown request type {type(request).__name__}; expected "
            "TwoWayRequest, MultiWayRequest, or ExplainRequest"
        )
    check_on_budget(request.on_budget)
    measure = _measure(request)
    if tracer is not None and engine is None:
        engine = WalkEngine(graph)
    with _traced(engine, tracer, name, request.algorithm, request.k):
        if name == "two-way":
            operator = OPERATORS[two_way_operator(request.algorithm, measure)]
            source = TwoWayContext(
                graph, list(request.left), list(request.right), engine=engine,
                walk_cache=walk_cache, bound_cache=bound_cache, measure=measure,
            )
            execute = partial(run_governed_top_k, operator(source), request.k)
        else:
            algorithm, source = _nway_spec(
                graph, request, measure, engine, walk_cache, bound_cache
            )
            execute = partial(
                run_governed_multi_way, source, algorithm=algorithm,
                m=request.m,
            )
        # The two-way context and the n-way spec both carry the query's
        # engine and walk cache.
        with _governed(
            source.engine, source.walk_cache, request.budget, fault_injector
        ) as governor:
            return execute(governor, on_budget=request.on_budget)


def two_way_join(
    graph: Graph,
    left: Sequence[int],
    right: Sequence[int],
    k: int,
    algorithm: str = "b-idj-y",
    *,
    engine: Optional[WalkEngine] = None,
    walk_cache: Optional[WalkCache] = None,
    bound_cache: Optional[BoundPlanCache] = None,
    fault_injector=None,
    tracer=None,
    **options,
) -> PartialResult:
    """Top-``k`` 2-way join between node sets ``left`` and ``right``:
    :func:`run` on a :class:`~repro.query.TwoWayRequest`, whose
    :class:`~repro.query.QueryOptions` fields ``options`` sets."""
    request = TwoWayRequest(left, right, k, algorithm, **options)
    return run(
        graph, request, engine=engine, walk_cache=walk_cache,
        bound_cache=bound_cache, fault_injector=fault_injector, tracer=tracer,
    )


def multi_way_join(
    graph: Graph,
    query_graph: QueryGraph,
    node_sets: Sequence[Sequence[int]],
    k: int,
    algorithm: str = "pj-i",
    *,
    engine: Optional[WalkEngine] = None,
    walk_cache: Optional[WalkCache] = None,
    bound_cache: Optional[BoundPlanCache] = None,
    fault_injector=None,
    tracer=None,
    **options,
) -> PartialResult:
    """Top-``k`` n-way join over ``query_graph`` (Definition 4):
    :func:`run` on a :class:`~repro.query.MultiWayRequest`, whose
    ``aggregate`` / ``m`` / ``plan`` and
    :class:`~repro.query.QueryOptions` fields ``options`` sets."""
    request = _nway_request(
        MultiWayRequest, query_graph, node_sets, k, algorithm, options
    )
    return run(
        graph, request, engine=engine, walk_cache=walk_cache,
        bound_cache=bound_cache, fault_injector=fault_injector, tracer=tracer,
    )


def explain_multi_way_plan(
    graph: Graph,
    query_graph: QueryGraph,
    node_sets: Sequence[Sequence[int]],
    k: int,
    algorithm: str = "pj-i",
    *,
    engine: Optional[WalkEngine] = None,
    walk_cache: Optional[WalkCache] = None,
    bound_cache: Optional[BoundPlanCache] = None,
    analyze: bool = False,
    **options,
):
    """The :class:`~repro.planner.plan.ExplainedPlan` that
    :func:`multi_way_join` would execute — without running the join
    (:func:`run` on an :class:`~repro.query.ExplainRequest`, whose
    ``plan`` defaults to ``"auto"``).

    The returned plan can be passed back via ``plan=`` to run precisely
    what was explained (the CLI's ``--explain`` does this).

    With ``analyze=True`` the resolved plan *is* executed, unbudgeted
    (a ``budget`` raises :class:`GraphValidationError` rather than being
    dropped), under a private :class:`~repro.obs.QueryTracer`, and the
    return type becomes an :class:`~repro.obs.AnalyzedPlan`: the plan
    annotated with per-edge actuals (propagation steps, cache hits, peak
    block bytes, refill counts) sourced from the trace, plus the traced run's
    :class:`~repro.exec.budget.PartialResult` — bit-identical to an
    untraced :func:`multi_way_join` with the same plan and no budget
    (the CLI's ``--explain analyze`` prints it).
    """
    request = _nway_request(
        ExplainRequest, query_graph, node_sets, k, algorithm, options
    )
    if analyze:
        if request.budget is not None:
            raise GraphValidationError(
                "explain analyze runs the query unbudgeted; drop the budget "
                "or explain without analyze"
            )
        return _analyze_plan(
            *_explained(graph, request, engine, walk_cache, bound_cache),
            request.m,
        )
    return run(
        graph, request, engine=engine, walk_cache=walk_cache,
        bound_cache=bound_cache,
    )


def _nway_request(cls, query_graph: QueryGraph, node_sets, k, algorithm,
                  options: dict) -> MultiWayRequest:
    """``query_graph``'s edges and display names as a ``cls`` request."""
    names = tuple(map(query_graph.name, range(query_graph.num_vertices)))
    return cls(
        query_graph.edges, node_sets, k, algorithm, names=names, **options
    )


def _nway_spec(
    graph: Graph, request: MultiWayRequest, measure, engine, walk_cache,
    bound_cache,
) -> Tuple[str, NWayJoinSpec]:
    """The normalised algorithm name and the one :class:`NWayJoinSpec`
    every n-way request runs (any measure, budgeted or not)."""
    name = request.algorithm.lower()
    if name not in EXECUTORS:
        raise GraphValidationError(
            f"unknown n-way algorithm {request.algorithm!r}; "
            f"choose from {tuple(EXECUTORS)}"
        )
    if not runs_under(name, measure):
        raise GraphValidationError(
            f"algorithm {request.algorithm!r} walks forward and is DHT-only; "
            "under a measure choose from "
            f"{[other for other in EXECUTORS if runs_under(other, measure)]}"
        )
    budget = request.budget
    if walk_cache is None and budget is not None and budget.max_bytes:
        # The walk cache a query creates for itself keeps to its ceiling.
        engine = engine or WalkEngine(graph)
        walk_cache = WalkCache(
            engine, measure.kernel(), max_bytes=budget.max_bytes
        )
    # A request's vertices are its named ones when it names them, so a
    # node-set count that disagrees is the spec's error, not the graph's.
    query_graph = QueryGraph(
        len(request.names or request.node_sets), request.query_edges,
        names=request.names,
    )
    spec = NWayJoinSpec(
        graph=graph, query_graph=query_graph,
        node_sets=[list(nodes) for nodes in request.node_sets], k=request.k,
        aggregate=request.aggregate, engine=engine, walk_cache=walk_cache,
        bound_cache=bound_cache, plan=request.plan, measure=measure,
    )
    return name, spec


def _explained(graph: Graph, request: MultiWayRequest, engine, walk_cache,
               bound_cache):
    """``(strategy, spec, plan)``: the plan ``request`` resolves to and
    the spec and strategy it was planned for (the planner rejects
    ``"nl"``: nothing to plan)."""
    measure = _measure(request)
    name, spec = _nway_spec(
        graph, request, measure, engine, walk_cache, bound_cache
    )
    return name, spec, spec.resolve_plan(name)


def _analyze_plan(strategy: str, spec: NWayJoinSpec, resolved_plan, m: int):
    """Run the plan unbudgeted, through the one n-way runner, under a
    private tracer; annotate it with actuals."""
    import time

    from repro.obs import AnalyzedPlan, QueryTracer, edge_actuals_from_trace

    tracer = QueryTracer()
    t_start = time.perf_counter()
    with _traced(spec.engine, tracer, "explain-analyze", strategy, spec.k):
        with _governed(spec.engine, spec.walk_cache, None, None) as governor:
            answers = run_governed_multi_way(
                spec, governor, algorithm=strategy, m=m, plan=resolved_plan
            )
    elapsed = time.perf_counter() - t_start
    root = tracer.traces[-1]
    return AnalyzedPlan(
        plan=resolved_plan,
        actuals=edge_actuals_from_trace(root, resolved_plan),
        answers=answers,
        elapsed_s=elapsed,
        trace=root,
    )
