"""Shared validation and typing for n-way joins (Definitions 1–4): the
query's structure plus the one measure value (DHT or a Section VIII
measure) every query edge is joined under."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bounds_cache import BoundPlanCache
from repro.core.dht import DHTMeasure
from repro.core.two_way.base import TwoWayContext
from repro.core.nway.aggregates import MIN, Aggregate
from repro.core.nway.query_graph import QueryGraph
from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError, validate_node_set
from repro.walks.cache import WalkCache
from repro.walks.engine import NULL_SPAN, WalkEngine

#: A spec's plan modes; the planner and the CLI read them here.
PLAN_MODES = ("fixed", "auto")


@dataclass
class NWayJoinSpec:
    """Validated inputs of one n-way join.

    Attributes
    ----------
    graph:
        The data graph ``G``.
    query_graph:
        ``Q`` (Definition 1); vertex ``i`` corresponds to
        ``node_sets[i]``.
    node_sets:
        One node set per query vertex.
    aggregate:
        Monotone ``f`` (Definition 2); defaults to ``MIN``, the paper's
        experimental default.
    k:
        Number of answers (Definition 4).
    measure:
        The proximity measure every query edge is joined under: a
        :class:`~repro.core.dht.DHTMeasure` (default: the paper's
        ``DHT_lambda(0.2)`` at ``d = 8``, Section VII-A) or any
        :class:`repro.extensions.measures.SeriesMeasure` (duck-typed;
        the core layer never imports ``extensions``).  Its ``d`` is the
        truncation depth and both shared caches are keyed by its
        ``kernel()``, so a PPR spec and a DHT spec on the same graph
        keep fully isolated cache universes.  ``AP`` / ``PJ`` /
        ``PJ-i`` run every measure (the driver's strategy table picks
        their operators and source); ``NL`` is DHT-only.
    walk_cache:
        One :class:`~repro.walks.cache.WalkCache` is shared by every
        query edge of the join (created unbounded when omitted), so
        edges whose node sets overlap — star and clique specs
        especially — never walk the same target twice.  Pass a cache
        built with ``max_bytes`` to bound a long join's footprint.
        The query walks, keeps and donates a target at the rows its
        readers read (:meth:`walk_rows`), never as a full-graph vector;
        a later reader outside those rows — a query sharing the cache —
        misses and re-walks the target full width.
    bound_cache:
        One :class:`~repro.bounds_cache.BoundPlanCache` shared by every
        query edge (created when omitted), the bound-layer twin of the
        walk cache: edges that agree on the left node set — every edge
        of a star spec, the repeated sets of a clique — build the
        ``Y_l^+`` reach-mass table and the ``B-BJ`` restricted-tail plan
        once instead of once per edge, and ``PJ`` restarts / ``PJ-i``
        refinements reuse them too.
    plan:
        How executors order and implement the per-edge joins:
        ``"fixed"`` (default) keeps index order with each executor's
        default operator — the pre-planner behaviour and the planner's
        bit-identity oracle; ``"auto"`` lets the cost-based planner
        (:mod:`repro.planner`) choose edge order and operators from
        degree/skew statistics; an
        :class:`~repro.planner.plan.ExplainedPlan` instance replays a
        previously computed plan verbatim.  Resolution happens lazily
        in :meth:`resolve_plan` — the core layer holds only the value.
    """

    graph: Graph
    query_graph: QueryGraph
    node_sets: List[List[int]]
    k: int
    aggregate: Aggregate = MIN
    engine: WalkEngine = field(default=None)  # type: ignore[assignment]
    walk_cache: Optional[WalkCache] = None
    bound_cache: Optional[BoundPlanCache] = None
    plan: object = "fixed"
    measure: object = field(default_factory=DHTMeasure)

    def __post_init__(self) -> None:
        if isinstance(self.plan, str):
            normalized = self.plan.lower()
            if normalized not in PLAN_MODES:
                raise GraphValidationError(
                    f"plan must be 'fixed', 'auto', or an ExplainedPlan; "
                    f"got {self.plan!r}"
                )
            self.plan = normalized
        elif not hasattr(self.plan, "build_order"):
            raise GraphValidationError(
                f"plan must be 'fixed', 'auto', or an ExplainedPlan; "
                f"got {self.plan!r}"
            )
        if self.k < 0:
            raise GraphValidationError(f"k must be >= 0, got {self.k}")
        if len(self.node_sets) != self.query_graph.num_vertices:
            raise GraphValidationError(
                f"{len(self.node_sets)} node sets for "
                f"{self.query_graph.num_vertices} query vertices"
            )
        self.node_sets = [
            validate_node_set(self.graph.num_nodes, nodes, f"node set {i}")
            for i, nodes in enumerate(self.node_sets)
        ]
        if self.engine is None:
            self.engine = WalkEngine(self.graph)
        key = self.measure.kernel()
        if self.walk_cache is None:
            self.walk_cache = WalkCache(self.engine, key)
        if self.bound_cache is None:
            self.bound_cache = BoundPlanCache(self.engine, key)
        self._walk_rows = self._reader_rows()

    def _reader_rows(self) -> Dict[int, np.ndarray]:
        """Right-set vertex -> the sorted union of the left sets of the
        edges into it, merged across right sets that share a node (one
        target, one set of rows), each array frozen and shared."""
        edges = self.query_graph.edges
        group = {j: j for _, j in edges}

        def root(v: int) -> int:
            while group[v] != v:
                v = group[v]
            return v

        rights = [self.node_sets[j] for j in sorted(group)]
        if len(set().union(*rights)) < sum(map(len, rights)):
            holder: Dict[int, int] = {}  # some right sets share a node
            for j in sorted(group):
                for node in self.node_sets[j]:
                    group[root(j)] = root(holder.setdefault(node, j))
        lefts: Dict[int, set] = {}
        for i, j in edges:
            lefts.setdefault(root(j), set()).update(self.node_sets[i])
        unions = {}
        for r, nodes in lefts.items():
            unions[r] = np.array(sorted(nodes), dtype=np.int64)
            unions[r].setflags(write=False)
        return {j: unions[root(j)] for j in group}

    def walk_rows(self, vertex: int) -> np.ndarray:
        """The rows every reader of right set ``vertex``'s targets reads
        them at: the sorted union of the left sets of the query edges
        into it (and into any right set sharing a node with it) — what
        its edges' walks are kept and donated at."""
        return self._walk_rows[vertex]

    @property
    def d(self) -> int:
        """Truncation depth: the measure's."""
        return self.measure.d

    def resolve_plan(
        self,
        strategy: str,
        plan: object = None,
        default_operator: Optional[str] = None,
    ):
        """The :class:`~repro.planner.plan.ExplainedPlan` an executor
        should follow for ``strategy`` (``"pj"``/``"pj-i"``/``"ap"``).

        ``plan`` overrides this spec's own ``plan`` field; executors
        pass their constructor override here.  The planner package is
        imported lazily at call time, keeping the core layer free of a
        static dependency on :mod:`repro.planner` (which itself builds
        on core types).
        """
        from repro.planner.plan import resolve_spec_plan

        with self.engine.trace_span("plan", strategy):
            return resolve_spec_plan(
                self, strategy, plan=plan, default_operator=default_operator
            )

    def trace_edge_span(
        self, edge_index: int, operator: Optional[str] = None,
        kind: str = "edge",
    ):
        """A trace span for one query edge's build (or ``refill``).

        Every n-way executor wraps its per-edge work in one of these,
        which is how explain-analyze attributes propagation steps,
        cache hits, and block bytes back to plan rows.  Alongside the
        engine-stat deltas the span captures the shared walk cache's
        hit/miss deltas (exact for single-threaded queries, advisory
        when the cache is concurrently shared).  No tracer installed
        means the shared no-op span — one attribute read.
        """
        tracer = self.engine.tracer
        if tracer is None:
            return NULL_SPAN
        cache_stats = self.walk_cache.stats
        extra = lambda: {  # noqa: E731 - tiny capture closure
            "walk_cache_hits": cache_stats.hits,
            "walk_cache_misses": cache_stats.misses,
        }
        return tracer.span(
            kind,
            name=self.query_graph.edge_name(edge_index),
            stats=self.engine.stats,
            extra=extra,
            edge=edge_index,
            operator=operator,
        )

    def edge_node_sets(self, edge_index: int) -> tuple:
        """The (left, right) node sets of query edge ``edge_index``."""
        i, j = self.query_graph.edges[edge_index]
        return self.node_sets[i], self.node_sets[j]

    def edge_context(self, edge_index: int) -> TwoWayContext:
        """A validated 2-way context for query edge ``edge_index``.

        Every n-way algorithm builds its per-edge joins through this
        method, so the spec's shared engine, walk cache and bound cache
        reach each edge uniformly, with the rows the query reads the
        edge's right set at (:meth:`walk_rows`).
        """
        left, right = self.edge_node_sets(edge_index)
        self.engine.checkpoint("edge")
        return TwoWayContext(
            graph=self.graph,
            left=list(left),
            right=list(right),
            measure=self.measure,
            engine=self.engine,
            walk_cache=self.walk_cache,
            bound_cache=self.bound_cache,
            walk_rows=self.walk_rows(self.query_graph.edges[edge_index][1]),
        )
