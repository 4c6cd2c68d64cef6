"""Plan choice: edge order + per-edge operator, explained.

The planner sits between :class:`~repro.core.nway.spec.NWayJoinSpec`
and the two-way contexts.  Executors never decide anything themselves
any more: they call :meth:`NWayJoinSpec.resolve_plan` (which lands in
:func:`resolve_spec_plan` here) and get back an :class:`ExplainedPlan`
— a build order over the query edges plus one :class:`EdgePlan`
(operator name, cost breakdown) per edge.  Operator names, not
classes, cross the boundary, so the core layer keeps its
no-``extensions``-imports rule and each executor maps names to the
classes it owns.

A plan is a function of its query: the spec's graph, query graph,
node sets, measure and ``d``, its walk cache's capacity, and the
graph's :class:`~repro.planner.stats.GraphStats`.  It never reads what
earlier queries left behind — the contents of the shared caches or the
engine's counters — so the same request always gets the same plan.

Two modes:

``"fixed"``
    The pre-planner behaviour, kept as the bit-identity oracle: edges
    build in index order with the executor's default operator (the
    strategy table's, :data:`repro.core.nway.driver.STRATEGIES`).  The
    plan still carries cost estimates, so ``--explain`` works either
    way.
``"auto"``
    Greedy cost-based ordering.  Each step picks the unplanned edge
    (and its cheapest operator) with minimal marginal cost under an
    LRU simulation of the shared walk cache's resident set — edges
    whose right sets are predicted resident get a cache credit, so
    edges sharing right sets group together and cheap (low-fanout)
    edges go first.  That is exactly the order that avoids thrashing a
    byte-budgeted walk cache: interleaving edges that share targets
    re-walks them after eviction, grouping recovers the unbudgeted
    cost.

Auto and fixed plans are *answer-equivalent by construction*: the
rank-join driver consumes per-edge streams positionally
(``inputs[e]``), so the build order changes which walks are cached
when — never which pairs an edge yields — and every candidate operator
produces the same sorted prefixes.  The planner-decision test harness
(:mod:`tests.test_planner`) asserts this bit-identity against every
fixed-order permutation.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.nway import EXECUTORS
from repro.core.nway.driver import (
    STRATEGIES,
    runs_under,
    strategy_operator,
    two_way_operator,
)
from repro.core.nway.spec import PLAN_MODES
from repro.graph.validation import GraphValidationError
from repro.planner.cost import COST_MODEL_VERSION, CostModel, EdgeCostEstimate
from repro.planner.stats import GraphStats

# Operator candidates per strategy, best-guess first (ties in estimated
# cost resolve toward the front of the tuple); the forward ones drop
# out where forward walks may not run.
_CANDIDATES = {
    "pj": ("b-idj-y", "b-idj-x", "b-bj", "f-idj"),
    "ap": ("b-bj", "f-bj"),
}

# Operator name (each key of the driver's ``OPERATORS``) -> cost-model
# kind.
_OPERATOR_KINDS = {
    "b-bj": "basic",
    "b-idj-y": "idj-y",
    "b-idj-x": "idj-x",
    "f-bj": "f-bj",
    "f-idj": "f-idj",
}


@dataclass(frozen=True)
class EdgePlan:
    """The planner's decision for one query edge."""

    edge_index: int
    edge_name: str
    operator: str
    estimated_steps: float
    walk_steps: float
    bound_steps: float
    credit: float
    survivor_fraction: float
    cached_targets: int
    reasons: Tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "edge_index": self.edge_index,
            "edge_name": self.edge_name,
            "operator": self.operator,
            "estimated_steps": round(self.estimated_steps, 3),
            "walk_steps": round(self.walk_steps, 3),
            "bound_steps": round(self.bound_steps, 3),
            "credit": round(self.credit, 3),
            "survivor_fraction": round(self.survivor_fraction, 4),
            "cached_targets": self.cached_targets,
            "reasons": list(self.reasons),
        }


@dataclass(frozen=True)
class ExplainedPlan:
    """A complete, printable plan for one n-way spec.

    ``edges`` is indexed by *edge index* (``edges[e]`` plans query edge
    ``e``); ``build_order`` is the evaluation order over those indices.
    The plan is a value object: executors read it, the CLI prints it
    (:meth:`format`, or ``to_json`` under ``--json``), goldens pin it
    (:meth:`decisions`), and a caller replays it by passing the value
    itself as ``plan=``.
    """

    mode: str
    strategy: str
    cost_model_version: int
    build_order: Tuple[int, ...]
    edges: Tuple[EdgePlan, ...]
    signals: dict = field(default_factory=dict)
    total_estimated_steps: float = 0.0

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def operators(self) -> Tuple[str, ...]:
        """Per-edge operator names, indexed by edge index."""
        return tuple(ep.operator for ep in self.edges)

    def decisions(self) -> dict:
        """The golden-file fingerprint: everything that changes
        execution, nothing that merely explains it."""
        return {
            "cost_model_version": self.cost_model_version,
            "mode": self.mode,
            "strategy": self.strategy,
            "build_order": list(self.build_order),
            "operators": list(self.operators),
        }

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "strategy": self.strategy,
            "cost_model_version": self.cost_model_version,
            "build_order": list(self.build_order),
            "total_estimated_steps": round(self.total_estimated_steps, 3),
            "signals": self.signals,
            "edges": [ep.to_json() for ep in self.edges],
        }

    def format_header(self) -> List[str]:
        """The ``--explain`` text's lines above the edge rows."""
        sig = self.signals.get("graph", {})
        lines = [
            f"plan[{self.mode}] strategy={self.strategy} "
            f"cost-model=v{self.cost_model_version} "
            f"est-steps={self.total_estimated_steps:.0f}",
        ]
        if sig:
            lines.append(
                "signals: "
                f"n={sig.get('num_nodes')} "
                f"mean-out={sig.get('mean_out_degree')} "
                f"cv-out={sig.get('cv_out_degree')} "
                f"heavy={sig.get('heavy_count')} "
                f"({100.0 * sig.get('heavy_fraction', 0.0):.1f}%)"
            )
        return lines

    def format_edge(self, e: int) -> str:
        """Query edge ``e``'s row of the ``--explain`` text."""
        ep = self.edges[e]
        position = self.build_order.index(e) + 1
        why = f"  [{'; '.join(ep.reasons)}]" if ep.reasons else ""
        return (
            f"{position:>3}. edge {e} {ep.edge_name:<12} "
            f"op={ep.operator:<8} "
            f"est={ep.estimated_steps:.0f} "
            f"(walk {ep.walk_steps:.0f} + bound {ep.bound_steps:.0f}"
            f" - credit {ep.credit:.0f})"
            f"{why}"
        )

    def format(self) -> str:
        """Human-readable multi-line rendering (the ``--explain`` text)."""
        return "\n".join(
            self.format_header()
            + [self.format_edge(e) for e in self.build_order]
        )


class _ResidentSetModel:
    """LRU simulation of the shared walk cache's resident target set.

    Capacity mirrors the real :class:`~repro.walks.cache.WalkCache`
    budgets (``max_targets`` always, ``max_bytes`` when set); the
    per-target byte estimate counts the retained doubling-level vectors
    plus the resumable buffers, the dominant terms of
    ``WalkCache.current_bytes``.  The model only has to *rank* orders,
    not reproduce eviction byte-exactly.
    """

    def __init__(self, num_nodes: int, d: int, walk_cache) -> None:
        levels = 1 + max(0, int(math.floor(math.log2(max(1, d)))))
        # Retained level vectors + resumable current/accumulator pair.
        self.bytes_per_target = 8 * num_nodes * (levels + 2)
        self.max_targets = walk_cache.max_targets
        self.max_bytes = walk_cache.max_bytes
        self._resident: "OrderedDict[int, None]" = OrderedDict()

    @property
    def capacity_targets(self) -> int:
        """How many targets fit, under both budgets."""
        cap = self.max_targets
        if self.max_bytes is not None and self.bytes_per_target > 0:
            cap = min(cap, max(1, self.max_bytes // self.bytes_per_target))
        return cap

    def overlap(self, targets: Sequence[int]) -> int:
        """How many of ``targets`` are predicted resident right now."""
        return sum(1 for q in targets if q in self._resident)

    def admit(self, targets: Sequence[int]) -> None:
        """Touch ``targets`` (most-recent last) and evict LRU overflow."""
        for q in targets:
            if q in self._resident:
                self._resident.move_to_end(q)
            else:
                self._resident[q] = None
        cap = self.capacity_targets
        while len(self._resident) > cap:
            self._resident.popitem(last=False)


def _candidates(strategy: str, measure, default: str, mode: str) -> Tuple[str, ...]:
    if mode == "fixed" or strategy == "pj-i":
        # Fixed mode keeps the executor's default; PJ-i's F structure
        # refines under its default operator's bound — the planner only
        # orders it.
        return (default,)
    candidates = tuple(
        c for c in _CANDIDATES[strategy] if runs_under(c, measure)
    )
    if default in candidates:
        return (default,) + tuple(c for c in candidates if c != default)
    return candidates


def _estimate_edge(
    spec,
    model: CostModel,
    edge_sets: Sequence[Tuple[Sequence[int], Sequence[int]]],
    set_stats,
    e: int,
    candidates: Tuple[str, ...],
    resident: _ResidentSetModel,
    built_y: set,
) -> Tuple[str, EdgeCostEstimate, int]:
    """The cheapest candidate operator for edge ``e`` right now."""
    left, right = edge_sets[e]
    i, j = spec.query_graph.edges[e]
    left_stats, right_stats = set_stats[i], set_stats[j]
    overlap = resident.overlap(right)
    best = None
    for operator in candidates:
        kind = _OPERATOR_KINDS[operator]
        est = model.estimate(
            kind,
            left_stats,
            right_stats,
            resident_overlap=overlap if kind in ("basic", "idj-y", "idj-x") else 0,
            y_bound_cached=kind == "idj-y" and frozenset(left) in built_y,
        )
        if best is None or est.steps < best[1].steps:
            best = (operator, est)
    return best[0], best[1], overlap


def _commit_edge(
    edge_sets,
    e: int,
    operator: str,
    resident: _ResidentSetModel,
    built_y: set,
) -> None:
    """Update the planning state after scheduling edge ``e``: its right
    set is walked into the cache, and a ``Y`` edge's left-set table is
    built for the edges after it (the spec's bound cache shares it)."""
    left, right = edge_sets[e]
    kind = _OPERATOR_KINDS[operator]
    if kind in ("basic", "idj-y", "idj-x"):
        resident.admit(right)
    if kind == "idj-y":
        built_y.add(frozenset(left))


def _build_plan(
    spec,
    strategy: str,
    mode: str,
    order: Optional[Sequence[int]],
    default_operator: Optional[str],
) -> ExplainedPlan:
    num_edges = spec.query_graph.num_edges
    stats = GraphStats.of(spec.graph)
    model = CostModel(stats, spec.d)
    default = two_way_operator(
        default_operator or strategy_operator(strategy, spec.measure),
        spec.measure,
    )
    candidates = _candidates(strategy, spec.measure, default, mode)

    edge_sets = [spec.edge_node_sets(e) for e in range(num_edges)]
    set_stats = [stats.node_set(nodes) for nodes in spec.node_sets]
    resident = _ResidentSetModel(spec.graph.num_nodes, spec.d, spec.walk_cache)
    built_y: set = set()
    plans: Dict[int, EdgePlan] = {}

    if order is not None or mode == "fixed":
        schedule = list(order) if order is not None else list(range(num_edges))
        build_order = []
        for e in schedule:
            operator, est, overlap = _estimate_edge(
                spec, model, edge_sets, set_stats, e,
                (default,), resident, built_y,
            )
            plans[e] = _edge_plan(spec, e, operator, est, overlap)
            _commit_edge(edge_sets, e, operator, resident, built_y)
            build_order.append(e)
    else:
        remaining = list(range(num_edges))
        build_order = []
        while remaining:
            scored = []
            for e in remaining:
                operator, est, overlap = _estimate_edge(
                    spec, model, edge_sets, set_stats, e,
                    candidates, resident, built_y,
                )
                scored.append((est.steps, e, operator, est, overlap))
            scored.sort(key=lambda item: (item[0], item[1]))
            _, e, operator, est, overlap = scored[0]
            plans[e] = _edge_plan(spec, e, operator, est, overlap)
            _commit_edge(edge_sets, e, operator, resident, built_y)
            build_order.append(e)
            remaining.remove(e)

    edges = tuple(plans[e] for e in range(num_edges))
    signals = {
        "graph": stats.summary(),
        "walk_cache_capacity_targets": resident.capacity_targets,
        "d": int(spec.d),
        "measure": spec.measure.name,
    }
    return ExplainedPlan(
        mode=mode,
        strategy=strategy,
        cost_model_version=COST_MODEL_VERSION,
        build_order=tuple(build_order),
        edges=edges,
        signals=signals,
        total_estimated_steps=float(sum(ep.estimated_steps for ep in edges)),
    )


def _edge_plan(spec, e: int, operator: str, est: EdgeCostEstimate, overlap: int) -> EdgePlan:
    return EdgePlan(
        edge_index=e,
        edge_name=spec.query_graph.edge_name(e),
        operator=operator,
        estimated_steps=est.steps,
        walk_steps=est.walk_steps,
        bound_steps=est.bound_steps,
        credit=est.credit,
        survivor_fraction=est.survivor_fraction,
        cached_targets=overlap,
        reasons=est.reasons,
    )


def _check_strategy(strategy: str) -> str:
    """``strategy`` lower-cased, once it names an executor with edges to
    plan: one with a row in the driver's ``STRATEGIES``."""
    strategy = strategy.lower()
    if strategy not in EXECUTORS:
        raise GraphValidationError(
            f"unknown plan strategy {strategy!r}; "
            f"choose from {tuple(STRATEGIES)}"
        )
    if strategy not in STRATEGIES:
        raise GraphValidationError(
            f"the {strategy.upper()} strategy scores answers one tuple at "
            "a time; it has no per-edge build order or operator choice to "
            "plan — use 'ap', 'pj', or 'pj-i' with plan='auto'"
        )
    return strategy


def choose_plan(
    spec,
    strategy: str,
    mode: str = "auto",
    default_operator: Optional[str] = None,
) -> ExplainedPlan:
    """Plan ``spec`` for ``strategy`` (``"pj"``/``"pj-i"``/``"ap"``).

    ``mode="fixed"`` reproduces the pre-planner behaviour (index order,
    default operator) with cost annotations; ``mode="auto"`` runs the
    greedy cost-based search.  The plan reads the spec and the graph's
    degree statistics only — never what earlier queries left in the
    spec's caches or engine — so one spec always gets one plan.
    """
    strategy = _check_strategy(strategy)
    mode = mode.lower()
    if mode not in PLAN_MODES:
        raise GraphValidationError(
            f"unknown plan mode {mode!r}; choose from {PLAN_MODES}"
        )
    return _build_plan(spec, strategy, mode, None, default_operator)


def plan_with_order(
    spec,
    strategy: str,
    order: Sequence[int],
    default_operator: Optional[str] = None,
) -> ExplainedPlan:
    """A fixed plan with an *explicit* build order (bench worst-order
    arms, the equivalence harness's exhaustive permutations)."""
    strategy = _check_strategy(strategy)
    num_edges = spec.query_graph.num_edges
    if sorted(order) != list(range(num_edges)):
        raise GraphValidationError(
            f"order {list(order)!r} is not a permutation of the "
            f"{num_edges} query edges"
        )
    return _build_plan(spec, strategy, "fixed", list(order), default_operator)


def validate_plan_for(plan: ExplainedPlan, spec, strategy: str) -> ExplainedPlan:
    """Check a caller-supplied :class:`ExplainedPlan` against a spec:
    its edge count, build order and strategy, and that every row's
    operator may run under the spec's measure."""
    strategy = _check_strategy(strategy)
    num_edges = spec.query_graph.num_edges
    if plan.num_edges != num_edges:
        raise GraphValidationError(
            f"plan covers {plan.num_edges} edges but the query graph has "
            f"{num_edges}"
        )
    if sorted(plan.build_order) != list(range(num_edges)):
        raise GraphValidationError(
            f"plan build order {list(plan.build_order)!r} is not a "
            f"permutation of the {num_edges} query edges"
        )
    compatible = plan.strategy == strategy or {plan.strategy, strategy} <= {
        "pj", "pj-i"
    }
    if not compatible:
        raise GraphValidationError(
            f"plan was built for strategy {plan.strategy!r}, "
            f"not {strategy!r}"
        )
    for operator in plan.operators:
        two_way_operator(operator, spec.measure)
    return plan


def resolve_spec_plan(
    spec,
    strategy: str,
    plan=None,
    default_operator: Optional[str] = None,
) -> ExplainedPlan:
    """The executor entry point behind ``NWayJoinSpec.resolve_plan``.

    ``plan`` overrides the spec's own ``plan`` field when given: a mode
    string (``"fixed"``/``"auto"``) plans afresh, an
    :class:`ExplainedPlan` is validated and used as-is.
    """
    if plan is None:
        plan = getattr(spec, "plan", "fixed")
    if isinstance(plan, ExplainedPlan):
        return validate_plan_for(plan, spec, strategy)
    if isinstance(plan, str):
        return choose_plan(
            spec, strategy, mode=plan, default_operator=default_operator
        )
    raise GraphValidationError(
        f"plan must be 'fixed', 'auto', or an ExplainedPlan; got {plan!r}"
    )
