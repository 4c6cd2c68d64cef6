"""A long-lived, concurrent query service with cross-query cache sharing.

:class:`QueryService` is the serving front the ROADMAP's item 2 asks
for: it loads a graph **once** (one :class:`~repro.walks.engine.WalkEngine`,
one transition matrix), keeps one shared
:class:`~repro.walks.cache.WalkCache` / :class:`~repro.bounds_cache.BoundPlanCache`
pair per measure identity, and serves
:class:`~repro.service.requests.TwoWayRequest` /
:class:`~repro.service.requests.MultiWayRequest` /
:class:`~repro.service.requests.ExplainRequest` values from a pool of
worker threads — so one user's hot targets warm the next user's query.

Correctness under concurrency rests on three properties built in
earlier layers:

* the caches serialise every public method under a re-entrant lock and
  are keyed by ``(graph, measure identity)``, so concurrent queries of
  the same measure share artifacts without tearing and different
  measures never mix;
* :class:`~repro.walks.engine.WalkEngineStats` counters are per-thread
  shards merged on read, so no increment is lost and per-query step
  budgets meter only their own thread's walking;
* ``engine.governor`` is thread-local, so each worker installs its own
  :class:`~repro.exec.governor.ExecutionGovernor` on the shared engine.

Admission control keeps overload from becoming a pile-up: at most
``queue_depth`` requests wait and ``max_in_flight`` are admitted overall;
beyond that, :meth:`QueryService.submit` answers a *clean rejection*
(``status == "rejected"``) instead of queueing unboundedly.  A request
whose deadline expires while it is still **queued** is not run at all:
the worker answers a flagged empty
:class:`~repro.exec.budget.PartialResult` (``reason="deadline"``) and
counts a ``budget_stops``, exactly as if the governor had stopped it —
queueing time is part of the query's deadline, so the remaining budget
is reduced by the time spent waiting before execution starts.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro import api
from repro.bounds_cache import BoundPlanCache
from repro.core.dht import DHTParams
from repro.core.nway.query_graph import QueryGraph
from repro.core.two_way.base import cache_identity, resolve_config
from repro.exec.budget import PartialResult, QueryBudget, exact_result
from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError
from repro.service.requests import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    ExplainRequest,
    MultiWayRequest,
    QueryResponse,
    TwoWayRequest,
)
from repro.service.stats import ServiceStats, StatsAccumulator, percentile
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine

_SHUTDOWN = object()

#: Capacity of each measure tier's shared caches.  The walk cache has no
#: byte budget, and n-way requests aggregate with the API's ``MIN``.
WALK_CACHE_TARGETS = 256
BOUND_CACHE_ENTRIES = 64


class Ticket:
    """Handle for one submitted request; resolves to a :class:`QueryResponse`.

    Rejected requests resolve immediately; admitted ones resolve when a
    worker finishes (or the service is closed, which drains the queue
    with rejections so no caller blocks forever).
    """

    __slots__ = ("request", "submitted_at", "_done", "_response")

    def __init__(self, request: object, submitted_at: float) -> None:
        self.request = request
        self.submitted_at = submitted_at
        self._done = threading.Event()
        self._response: Optional[QueryResponse] = None

    def done(self) -> bool:
        """True once a response is available."""
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> QueryResponse:
        """Block until the response is ready (raises ``TimeoutError``)."""
        if not self._done.wait(timeout):
            raise TimeoutError("query has not completed yet")
        assert self._response is not None
        return self._response

    def _complete(self, response: QueryResponse) -> None:
        self._response = response
        self._done.set()


class QueryService:
    """Thread-pool query front over one shared walk-and-bound substrate.

    Parameters
    ----------
    graph:
        The data graph, loaded once; every request runs on its engine.
    workers:
        Worker threads executing admitted requests concurrently.
    queue_depth:
        Maximum requests *waiting* for a worker; a full queue rejects.
    max_in_flight:
        Ceiling on admitted-but-unfinished requests (queued + running).
        Defaults to ``workers + queue_depth``; lower it to shed load
        earlier.
    default_budget:
        :class:`~repro.exec.budget.QueryBudget` applied to every join
        request that does not carry its own (``None`` = ungoverned by
        default).  Requests run governed whenever an effective budget
        exists, so their results are always
        :class:`~repro.exec.budget.PartialResult`-wrapped either way.
    params / d / epsilon:
        Service-wide DHT configuration (requests cannot override it —
        cache identity must stay fixed for sharing to be sound).
    clock:
        Injectable monotonic clock (seconds) for deterministic tests.
    tracer:
        Optional :class:`~repro.obs.QueryTracer` shared by every
        worker: each executed request runs under a ``service`` root
        span (queue wait recorded as ``queued_ms``) with the full
        query-span tree nested inside, and admission outcomes count as
        tracer counters (``admitted`` / ``rejected``).  Span stacks
        are per-thread, so concurrent workers never interleave spans.

    Use as a context manager, or call :meth:`close` — worker threads are
    non-daemonic between those points.
    """

    def __init__(
        self,
        graph: Graph,
        workers: int = 4,
        queue_depth: int = 32,
        max_in_flight: Optional[int] = None,
        default_budget: Optional[QueryBudget] = None,
        params: Optional[DHTParams] = None,
        d: Optional[int] = None,
        epsilon: Optional[float] = None,
        clock=time.monotonic,
        tracer=None,
    ) -> None:
        if workers < 1:
            raise GraphValidationError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise GraphValidationError(
                f"queue_depth must be >= 1, got {queue_depth}"
            )
        self._graph = graph
        self._engine = WalkEngine(graph)
        self._params, self._d = resolve_config(params, d, epsilon)
        self._default_budget = default_budget
        self._clock = clock
        self._tracer = tracer
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self._queue_depth = queue_depth
        self._max_in_flight = (
            max_in_flight if max_in_flight is not None else workers + queue_depth
        )
        if self._max_in_flight < 1:
            raise GraphValidationError(
                f"max_in_flight must be >= 1, got {self._max_in_flight}"
            )
        self._admission = threading.Lock()
        self._in_flight = 0
        self._closed = False
        self._stats_lock = threading.Lock()
        self._acc = StatsAccumulator()
        # One (WalkCache, BoundPlanCache) pair per measure identity —
        # DHTParams for the core path, measure.cache_key() otherwise.
        # Identities are value objects, so every request naming the same
        # measure configuration lands in the same shared tier.
        self._tiers: Dict[object, Tuple[WalkCache, BoundPlanCache]] = {}
        self._tiers_lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-svc-worker-{i}"
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The served data graph."""
        return self._graph

    @property
    def engine(self) -> WalkEngine:
        """The single shared walk engine (one transition matrix)."""
        return self._engine

    @property
    def workers(self) -> int:
        """Worker-thread count."""
        return len(self._workers)

    def cache_tier(self, measure: Optional[object] = None) -> Tuple[WalkCache, BoundPlanCache]:
        """The shared ``(walk_cache, bound_cache)`` pair for ``measure``.

        ``measure`` is a name, a measure instance, or ``None`` for the
        DHT tier; the tier is created on first use.  Tests and the bench
        read cache stats through this.
        """
        return self._tier_for(api._resolve_measure(measure))

    @property
    def tracer(self):
        """The installed :class:`~repro.obs.QueryTracer`, if any."""
        return self._tracer

    def stats(self) -> ServiceStats:
        """One consistent :class:`~repro.service.stats.ServiceStats` snapshot."""
        with self._stats_lock:
            acc = self._acc
            latencies = sorted(acc.latency_window())
            slow = acc.slow_queries()
            completed = acc.completed
            elapsed = 0.0
            if completed and acc.last_complete > acc.first_submit:
                elapsed = acc.last_complete - acc.first_submit
            snapshot = dict(
                submitted=acc.submitted,
                completed=completed,
                exact=acc.exact,
                partial=acc.partial,
                rejected=acc.rejected,
                errors=acc.errors,
                qps=(completed / elapsed) if elapsed > 0 else 0.0,
                p50_ms=percentile(latencies, 0.50),
                p99_ms=percentile(latencies, 0.99),
            )
        with self._admission:
            snapshot["in_flight"] = self._in_flight
        walk_hits = walk_misses = bound_hits = plan_hits = 0
        with self._tiers_lock:
            tiers = list(self._tiers.values())
        for walk_cache, bound_cache in tiers:
            walk_hits += walk_cache.stats.hits
            walk_misses += walk_cache.stats.misses
            bound_hits += bound_cache.stats.y_hits + bound_cache.stats.x_hits
            plan_hits += bound_cache.stats.plan_hits
        lookups = walk_hits + walk_misses
        stats = ServiceStats(
            walk_cache_hits=walk_hits,
            walk_cache_misses=walk_misses,
            walk_cache_hit_rate=(walk_hits / lookups) if lookups else 0.0,
            bound_cache_hits=bound_hits,
            plan_cache_hits=plan_hits,
            budget_stops=self._engine.stats.budget_stops,
            **snapshot,
        )
        # The slow-query log rides along outside the dataclass fields,
        # keeping ``asdict`` snapshots purely numeric (the CLI formats
        # every field with ``:g``).
        object.__setattr__(stats, "_slow_queries", slow)
        return stats

    def metrics_registry(self):
        """A :class:`~repro.obs.MetricsRegistry` over this service.

        Registers the engine counters, the service snapshot, and — via
        a dynamic source, because tiers are created lazily on first use
        — every measure tier's walk/bound cache counters, labeled
        ``tier=<index>`` in creation order.
        """
        from repro.obs import MetricsRegistry
        from repro.obs.metrics import cache_samples

        registry = MetricsRegistry()
        registry.register_engine(self._engine.stats)
        registry.register_service(self)

        def tier_source():
            with self._tiers_lock:
                tiers = list(self._tiers.values())
            samples = []
            for index, (walk_cache, bound_cache) in enumerate(tiers):
                labels = (("tier", str(index)),)
                samples += cache_samples("walk_cache", walk_cache, labels)
                samples += cache_samples("bound_cache", bound_cache, labels)
            return samples

        registry.register_source(tier_source)
        return registry

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting work, finish admitted requests, join workers."""
        with self._admission:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(_SHUTDOWN)
        for thread in self._workers:
            thread.join()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, request: object) -> Ticket:
        """Admit ``request`` (or reject cleanly); never blocks on the queue."""
        now = self._clock()
        ticket = Ticket(request, now)
        with self._stats_lock:
            self._acc.record_submit(now)
        with self._admission:
            if self._closed:
                return self._reject(ticket, "service is closed")
            if self._in_flight >= self._max_in_flight:
                return self._reject(
                    ticket,
                    f"too many requests in flight (max {self._max_in_flight})",
                )
            try:
                self._queue.put_nowait(ticket)
            except queue.Full:
                return self._reject(
                    ticket, f"request queue is full (depth {self._queue_depth})"
                )
            self._in_flight += 1
        if self._tracer is not None:
            self._tracer.count("admitted")
        return ticket

    def query(self, request: object, timeout: Optional[float] = None) -> QueryResponse:
        """Submit and wait: the synchronous convenience wrapper."""
        return self.submit(request).result(timeout)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _reject(self, ticket: Ticket, why: str) -> Ticket:
        response = QueryResponse(
            request=ticket.request,
            status=STATUS_REJECTED,
            error=why,
            queued_ms=0.0,
            latency_ms=(self._clock() - ticket.submitted_at) * 1000.0,
        )
        with self._stats_lock:
            self._acc.record_response(response, self._clock())
        if self._tracer is not None:
            self._tracer.count("rejected")
        ticket._complete(response)
        return ticket

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                self._queue.task_done()
                return
            ticket: Ticket = item
            try:
                response = self._execute(ticket)
            except BaseException as exc:  # workers must never die
                response = QueryResponse(
                    request=ticket.request,
                    status=STATUS_ERROR,
                    error=f"{type(exc).__name__}: {exc}",
                    latency_ms=(self._clock() - ticket.submitted_at) * 1000.0,
                )
            with self._admission:
                self._in_flight -= 1
            with self._stats_lock:
                self._acc.record_response(response, self._clock())
            ticket._complete(response)
            self._queue.task_done()

    def _execute(self, ticket: Ticket) -> QueryResponse:
        request = ticket.request
        started = self._clock()
        queued_ms = (started - ticket.submitted_at) * 1000.0

        def respond(status: str, result=None, error=None) -> QueryResponse:
            return QueryResponse(
                request=request,
                status=status,
                result=result,
                error=error,
                queued_ms=queued_ms,
                latency_ms=(self._clock() - ticket.submitted_at) * 1000.0,
            )

        budget = getattr(request, "budget", None) or self._default_budget
        if budget is not None and budget.deadline_ms is not None:
            remaining = budget.deadline_ms - queued_ms
            if remaining <= 0.0:
                # The deadline ran out while the request sat in the
                # queue: a flagged budget stop at the admission
                # boundary, counted like any governor stop — the query
                # never runs, so the answer is an empty partial.
                self._engine.stats.add("budget_stops", 1)
                return respond(
                    STATUS_OK,
                    result=PartialResult(
                        results=[], bounds=[], exact=False, reason="deadline"
                    ),
                )
            # Queueing time is part of the query's wall budget.
            budget = replace(budget, deadline_ms=remaining)
        tracer = self._tracer
        engine = self._engine
        if tracer is not None:
            # Per-request install on the engine's *thread-local* tracer
            # slot: concurrent workers each trace their own request
            # without any lock; uninstall keeps the slot clean for
            # untraced work on the same thread.
            engine.tracer = tracer
        try:
            if tracer is not None:
                with tracer.span(
                    "service", type(request).__name__,
                    stats=engine.stats, queued_ms=queued_ms,
                ):
                    result = self._dispatch(request, budget)
            else:
                result = self._dispatch(request, budget)
        except GraphValidationError as exc:
            return respond(STATUS_ERROR, error=str(exc))
        finally:
            if tracer is not None:
                engine.tracer = None
        return respond(STATUS_OK, result=result)

    def _dispatch(self, request: object, budget: Optional[QueryBudget]):
        if isinstance(request, TwoWayRequest):
            result = self._run(
                api.two_way_join, request, list(request.left),
                list(request.right), budget=budget,
            )
        elif isinstance(request, MultiWayRequest):
            result = self._run(
                api.multi_way_join, request, *_query_inputs(request),
                m=request.m, plan=request.plan, budget=budget,
            )
        elif isinstance(request, ExplainRequest):
            return self._run(
                api.explain_multi_way_plan, request, *_query_inputs(request),
                m=request.m, plan=request.plan,
            )
        else:
            raise GraphValidationError(
                f"unknown request type {type(request).__name__}; expected "
                "TwoWayRequest, MultiWayRequest, or ExplainRequest"
            )
        if isinstance(result, PartialResult):
            return result
        return exact_result(result)

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------

    def _tier_for(self, resolved) -> Tuple[WalkCache, BoundPlanCache]:
        key = cache_identity(self._params, resolved)
        with self._tiers_lock:
            tier = self._tiers.get(key)
            if tier is None:
                tier = (
                    WalkCache(self._engine, key, max_targets=WALK_CACHE_TARGETS),
                    BoundPlanCache(
                        self._engine, key, max_entries=BOUND_CACHE_ENTRIES
                    ),
                )
                self._tiers[key] = tier
            return tier

    def _run(self, entry_point, request, *inputs, **options):
        """``entry_point`` of :mod:`repro.api` on ``request``'s measure
        tier: the shared engine and caches, plus the service's DHT
        configuration on the DHT tier only."""
        resolved = api._resolve_measure(request.measure)
        walk_cache, bound_cache = self._tier_for(resolved)
        if resolved is None:
            options.update(params=self._params, d=self._d)
        return entry_point(
            self._graph, *inputs, request.k,
            algorithm=request.algorithm,
            engine=self._engine,
            walk_cache=walk_cache,
            bound_cache=bound_cache,
            measure=resolved,
            **options,
        )


def _query_inputs(request) -> tuple:
    """The ``(query_graph, node_sets)`` an n-way request names."""
    return (
        QueryGraph(len(request.node_sets), request.query_edges),
        [list(nodes) for nodes in request.node_sets],
    )
