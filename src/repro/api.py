"""High-level convenience API.

Two entry points cover the paper's two query types:

* :func:`two_way_join` — top-``k`` node pairs between two node sets
  (Section V/VI), with the algorithm selectable by its paper name.
* :func:`multi_way_join` — top-``k`` n-tuples over a query graph
  (Definition 4), with ``NL`` / ``AP`` / ``PJ`` / ``PJ-i`` selectable.

Both default to the paper's experimental configuration: ``DHT_lambda``
with ``lambda = 0.2``, ``epsilon = 1e-6`` (hence ``d = 8``), ``MIN``
aggregate, and ``m = k = 50``.

Both accept a ``measure`` — a name (``"ppr"``, ``"simrank"``, or the
DHT family) or a :class:`repro.extensions.measures.SeriesMeasure`
instance — which becomes a field of the one context / spec every join
reads (Section VIII's future-work plan): the same operators run, with
the measure's scorer and bound read off the context.  DHT names keep
the ``params``/``d``/``epsilon`` configuration
(:func:`~repro.core.two_way.base.resolve_config`).

Both run every query the same way: under an installed
:class:`~repro.exec.governor.ExecutionGovernor` that enforces the
query's :class:`repro.exec.budget.QueryBudget` at cooperative
checkpoints (``budget=None`` is ``QueryBudget()``, which never stops a
query), and both return a :class:`~repro.exec.budget.PartialResult` —
exact with degenerate bounds when the join completed, flagged
(``exact=False`` plus a reason and per-result score intervals) when a
budget ran out, or an allocation failed at the one-column floor, under
the default ``on_budget="partial"`` policy.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Sequence, Tuple, Union

from repro.bounds_cache import BoundPlanCache
from repro.core.dht import DHTParams
from repro.core.nway.aggregates import MIN, Aggregate
from repro.core.nway.driver import OPERATORS, STRATEGIES, two_way_operator
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.core.two_way.base import make_context
from repro.exec.budget import PartialResult, QueryBudget
from repro.exec.governor import ExecutionGovernor
from repro.extensions.measures import MEASURE_NAMES, measure_by_name
from repro.exec.governed import (
    check_on_budget,
    run_governed_multi_way,
    run_governed_top_k,
)
from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine


#: What an object needs to be a measure (the ``SeriesMeasure`` contract
#: the contexts and caches read).
_MEASURE_CONTRACT = ("d", "floor", "cache_key", "kernel")


def _resolve_measure(measure):
    """``None`` for the DHT family, a ``SeriesMeasure`` otherwise."""
    if isinstance(measure, str):
        return measure_by_name(measure)
    if measure is None or all(hasattr(measure, a) for a in _MEASURE_CONTRACT):
        return measure
    raise GraphValidationError(
        f"measure must be None, a name ({', '.join(MEASURE_NAMES)}) or an "
        f"object with {', '.join(_MEASURE_CONTRACT)}; got {measure!r}"
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


def two_way_join(
    graph: Graph,
    left: Sequence[int],
    right: Sequence[int],
    k: int,
    algorithm: str = "b-idj-y",
    params: Optional[DHTParams] = None,
    d: Optional[int] = None,
    epsilon: Optional[float] = None,
    engine: Optional[WalkEngine] = None,
    walk_cache: Optional[WalkCache] = None,
    bound_cache: Optional[BoundPlanCache] = None,
    measure: Optional[Union[str, object]] = None,
    budget: Optional[QueryBudget] = None,
    on_budget: str = "partial",
    fault_injector=None,
    tracer=None,
) -> PartialResult:
    """Top-``k`` 2-way join between node sets ``left`` and ``right``.

    Parameters
    ----------
    algorithm:
        One of ``"f-bj"``, ``"f-idj"``, ``"b-bj"``, ``"b-idj-x"``,
        ``"b-idj-y"`` (default — the paper's fastest).  Under a non-DHT
        measure the backward names run as
        :data:`~repro.core.nway.driver.MEASURE_OPERATORS` says (``b-bj``
        -> ``basic``, ``b-idj-*`` -> ``idj``, both with the measure's
        reach-mass bound); the forward algorithms are DHT-only.
    params / d / epsilon:
        DHT configuration; see :class:`repro.core.dht.DHTParams`.
        Rejected under a non-DHT measure — the measure instance fixes
        its own coefficients and depth.
    measure:
        ``None`` / a DHT name for the core DHT path, or ``"ppr"`` /
        ``"simrank"`` / a :class:`~repro.extensions.measures.SeriesMeasure`
        instance for the measure-generic path.  String names use the
        measure's default parameters; pass an instance to configure.
    walk_cache:
        Optional :class:`~repro.walks.cache.WalkCache` (must be bound to
        the same engine and params).  Pass one cache to a sequence of
        joins on the same graph to reuse backward walks across them.
    bound_cache:
        Optional :class:`~repro.bounds_cache.BoundPlanCache` (same
        binding rule).  Pass one cache to a sequence of joins to reuse
        ``Y`` bounds and restricted-tail plans across them; omitted, a
        private per-join cache is created.
    budget / on_budget / fault_injector:
        A :class:`~repro.exec.budget.QueryBudget` (deadline, step
        budget, byte ceiling) for the query's governor; ``None`` sets
        no axis.  ``budget.max_bytes`` is the one walk-block ceiling:
        every block operator (``B-BJ``'s blocks, ``B-IDJ``'s window and
        chunks) plans its width under it before walking, and a ceiling
        below one column (``16 * num_nodes`` bytes) stops with
        ``reason="bytes"``.
        ``on_budget`` chooses what exhaustion does: ``"partial"``
        (default) returns best-effort results with score intervals,
        ``"error"`` raises :class:`~repro.exec.budget.BudgetExhaustedError`.
        ``fault_injector`` installs a seeded
        :class:`~repro.exec.faults.FaultInjector` on the governor.
    tracer:
        Optional :class:`~repro.obs.QueryTracer`.  The query runs under
        a root ``query`` span (installed on the engine for the call,
        uninstalled in a ``finally``); results are unchanged — spans
        only observe.

    Returns
    -------
    PartialResult
        At most ``k`` :class:`~repro.core.two_way.base.ScoredPair` rows
        in descending score order, with their score intervals: exact unless
        the budget ran out (or an allocation failed at the one-column
        floor, ``reason="bytes"``).
    """
    if k < 0:
        # Before any context exists: a bad k must not walk (or warm a
        # shared cache) first.
        raise GraphValidationError(f"k must be >= 0, got {k}")
    check_on_budget(on_budget)
    if tracer is not None and engine is None:
        engine = WalkEngine(graph)
    with _traced(engine, tracer, "two-way", algorithm, k):
        resolved = _resolve_measure(measure)
        operator = OPERATORS[two_way_operator(algorithm, resolved)]
        context = make_context(
            graph, left, right, params=params, d=d, epsilon=epsilon,
            engine=engine, walk_cache=walk_cache, bound_cache=bound_cache,
            measure=resolved,
        )
        join = operator(context)
        with _governed(
            context.engine, context.walk_cache, budget, fault_injector
        ) as governor:
            return run_governed_top_k(join, k, governor, on_budget)


_NWAY_ALGORITHMS = ("nl", "ap", "pj", "pj-i")


def multi_way_join(
    graph: Graph,
    query_graph: QueryGraph,
    node_sets: Sequence[Sequence[int]],
    k: int,
    algorithm: str = "pj-i",
    aggregate: Aggregate = MIN,
    m: int = 50,
    params: Optional[DHTParams] = None,
    d: Optional[int] = None,
    epsilon: Optional[float] = None,
    engine: Optional[WalkEngine] = None,
    walk_cache: Optional[WalkCache] = None,
    bound_cache: Optional[BoundPlanCache] = None,
    measure: Optional[Union[str, object]] = None,
    plan: object = "fixed",
    budget: Optional[QueryBudget] = None,
    on_budget: str = "partial",
    fault_injector=None,
    tracer=None,
) -> PartialResult:
    """Top-``k`` n-way join over ``query_graph`` (Definition 4).

    Parameters
    ----------
    algorithm:
        ``"nl"``, ``"ap"``, ``"pj"``, or ``"pj-i"`` (default — the
        paper's best).  Under a non-DHT measure ``"pj-i"`` runs ``PJ``'s
        restart source (incremental refinement is DHT-specific) and
        ``"nl"`` is DHT-only — the driver's
        :data:`~repro.core.nway.driver.STRATEGIES` table.
    measure:
        ``None`` / a DHT name for the core DHT path, or ``"ppr"`` /
        ``"simrank"`` / a :class:`~repro.extensions.measures.SeriesMeasure`
        instance for the measure-generic path (shared walks and bounds
        across all query edges, exactly as for DHT).  The DHT-only
        options ``params``/``d``/``epsilon`` are rejected alongside a
        non-DHT measure; ``budget.max_bytes`` applies to every measure.
    aggregate:
        Monotone ``f`` over per-edge DHT scores (default ``MIN``).
    m:
        Prefix length for ``PJ``/``PJ-i`` (ignored by ``NL``/``AP``).
    walk_cache:
        One walk cache is always shared across all query edges, so
        overlapping node sets never walk the same target twice.  Pass an
        explicit ``walk_cache`` (bound to the same engine and measure
        identity) to share it across *calls* as well — hot targets from
        one query warm the next, which is how the
        :class:`repro.service.QueryService` tier amortises walks across
        users — or to bound its footprint (``WalkCache(...,
        max_bytes=...)``).
    bound_cache:
        One bound/plan cache is always shared across all query edges, so
        edges that agree on the left node set build each ``Y`` bound and
        restricted-tail plan once.  An explicit ``bound_cache`` is shared
        across calls like ``walk_cache``.
    plan:
        ``"fixed"`` (default — index edge order, the executor's default
        operator, the pre-planner behaviour), ``"auto"`` (the
        cost-based planner of :mod:`repro.planner` chooses edge order,
        per-edge operators, and block knobs from degree/skew
        statistics), or an :class:`~repro.planner.plan.ExplainedPlan`
        (replayed verbatim — pair with :func:`explain_multi_way_plan`
        to inspect before running).  Plans never change answers, only
        cost; ``"nl"`` has no per-edge structure and rejects
        ``"auto"``.
    budget / on_budget / fault_injector:
        Same semantics as :func:`two_way_join`; a flagged result's
        per-answer bounds aggregate the per-edge score intervals.  Under
        a budget or an injector ``"pj-i"`` runs ``PJ``'s restart source
        (incremental refinement keeps no snapshot state), ``"ap"``
        materialises with ``B-BJ``, and ``"nl"`` is rejected.
    tracer:
        Optional :class:`~repro.obs.QueryTracer`.  The query runs under
        a root ``query`` span with nested ``plan``/``edge``/``refill``/
        ``join``/``level`` spans from every layer it passes through;
        results are unchanged — spans only observe.

    Returns
    -------
    PartialResult
        At most ``k`` :class:`~repro.core.nway.candidates.CandidateAnswer`
        rows in descending aggregate-score order, each carrying its node
        tuple and per-edge scores, with their score intervals.
    """
    check_on_budget(on_budget)
    if tracer is not None and engine is None:
        engine = WalkEngine(graph)
    with _traced(engine, tracer, "multi-way", algorithm, k):
        name, spec = _nway_spec(
            algorithm, measure, graph=graph, query_graph=query_graph,
            node_sets=node_sets, k=k, aggregate=aggregate, params=params, d=d,
            epsilon=epsilon, engine=engine, walk_cache=walk_cache,
            bound_cache=bound_cache, plan=plan,
        )
        if name == "nl" and spec.plan != "fixed":
            raise GraphValidationError(
                "the NL strategy scores answers one tuple at a time; it has "
                "no per-edge build order or operator choice to plan — use "
                "'ap', 'pj', or 'pj-i' with plan='auto'"
            )
        with _governed(
            spec.engine, spec.walk_cache, budget, fault_injector
        ) as governor:
            return run_governed_multi_way(
                spec, governor, algorithm=name, m=m, on_budget=on_budget
            )


def _nway_spec(
    algorithm: str, measure, node_sets, params, d, epsilon, **fields
) -> Tuple[str, NWayJoinSpec]:
    """The normalised algorithm name and the one :class:`NWayJoinSpec`
    both n-way entry points run (DHT or measure, budgeted or not)."""
    resolved = _resolve_measure(measure)
    name = algorithm.lower()
    if resolved is not None and (name, True) not in STRATEGIES:
        raise GraphValidationError(
            f"algorithm {algorithm!r} is DHT-only; under a measure choose "
            "from ['ap', 'pj', 'pj-i']"
        )
    if name not in _NWAY_ALGORITHMS:
        raise GraphValidationError(
            f"unknown n-way algorithm {algorithm!r}; "
            f"choose from {_NWAY_ALGORITHMS}"
        )
    spec = NWayJoinSpec(
        node_sets=[list(nodes) for nodes in node_sets],
        params=params, d=d, epsilon=epsilon, measure=resolved, **fields,
    )
    return name, spec


def explain_multi_way_plan(
    graph: Graph,
    query_graph: QueryGraph,
    node_sets: Sequence[Sequence[int]],
    k: int,
    algorithm: str = "pj-i",
    aggregate: Aggregate = MIN,
    m: int = 50,
    params: Optional[DHTParams] = None,
    d: Optional[int] = None,
    epsilon: Optional[float] = None,
    engine: Optional[WalkEngine] = None,
    walk_cache: Optional[WalkCache] = None,
    bound_cache: Optional[BoundPlanCache] = None,
    measure: Optional[Union[str, object]] = None,
    plan: object = "auto",
    analyze: bool = False,
):
    """The :class:`~repro.planner.plan.ExplainedPlan` that
    :func:`multi_way_join` would execute — without running the join.

    Mirrors :func:`multi_way_join`'s spec construction exactly, so the
    returned plan can be passed back via its ``plan=`` parameter to run
    precisely what was explained (the CLI's ``--explain`` does this).
    Planning reads cheap degree statistics and probes the shared caches
    without building anything, so explaining is walk-free.

    With ``analyze=True`` the resolved plan *is* executed, under a
    private :class:`~repro.obs.QueryTracer`, and the return type becomes
    an :class:`~repro.obs.AnalyzedPlan`: the plan annotated with
    per-edge actuals (propagation steps, cache hits, peak block bytes,
    refill counts) sourced from the trace, plus the traced run's
    :class:`~repro.exec.budget.PartialResult` — bit-identical to an
    untraced :func:`multi_way_join` with the same plan and no budget
    (the CLI's ``--explain analyze`` prints it).
    """
    name, spec = _nway_spec(
        algorithm, measure, graph=graph, query_graph=query_graph,
        node_sets=node_sets, k=k, aggregate=aggregate, params=params, d=d,
        epsilon=epsilon, engine=engine, walk_cache=walk_cache,
        bound_cache=bound_cache, plan=plan,
    )
    # The planner rejects "nl" (nothing to plan); the rest plan the edge
    # source they run.
    strategy = name
    if name != "nl":
        strategy = STRATEGIES[(name, spec.measure is not None)][1]
    resolved_plan = spec.resolve_plan(strategy)
    if not analyze:
        return resolved_plan
    return _analyze_plan(spec, strategy, resolved_plan, m)


def _analyze_plan(spec: NWayJoinSpec, strategy: str, resolved_plan, m: int):
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
