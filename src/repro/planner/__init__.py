"""Degree/skew-aware cost-based planner for n-way join specs.

The planner chooses, per query graph: (a) the edge evaluation order
and (b) the per-edge two-way operator, from cheap graph statistics
(:mod:`repro.planner.stats`), a step-denominated cost model
(:mod:`repro.planner.cost`), and one greedy scheduler that credits
an edge for the right-set targets earlier edges of the plan walk
(:mod:`repro.planner.plan`).  A plan is a pure function of its spec
(graph, query graph, node sets, measure, ``d``) and the graph's
degree statistics: no cache contents or capacity, no engine
counters.  Executors consume the resulting :class:`ExplainedPlan` via
``NWayJoinSpec.resolve_plan``; the old fixed behaviour survives as
``plan="fixed"`` and doubles as the bit-identity oracle for the
planner-decision test harness (:mod:`repro.planner.fixture`).
"""

from repro.planner.cost import COST_MODEL_VERSION, CostModel, EdgeCostEstimate
from repro.planner.fixture import PlannerFixture
from repro.planner.plan import (
    EdgePlan,
    ExplainedPlan,
    choose_plan,
    plan_with_order,
    resolve_spec_plan,
)
from repro.planner.stats import GraphStats, NodeSetStats

__all__ = [
    "COST_MODEL_VERSION",
    "CostModel",
    "EdgeCostEstimate",
    "EdgePlan",
    "ExplainedPlan",
    "GraphStats",
    "NodeSetStats",
    "PlannerFixture",
    "choose_plan",
    "plan_with_order",
    "resolve_spec_plan",
]
