"""Explain-analyze: the planner's predictions vs. one traced execution.

The cost-based planner (PR 7) renders an
:class:`~repro.planner.plan.ExplainedPlan` with *estimated* per-edge
propagation steps.  ``analyze`` closes the loop ROADMAP item 1 names:
run the query under a :class:`~repro.obs.trace.QueryTracer`, then
attribute the trace's per-edge ``edge`` and ``refill`` spans back to the
plan rows — predicted vs. actual ``propagation_steps``, the cache hits
the estimate assumed vs. the hits that happened, and the per-edge
resumable-block byte high-water mark.

:class:`ExplainedPlan` is a frozen value object, so analyze wraps it:
:class:`AnalyzedPlan` pairs the plan with one :class:`EdgeActuals` row
per build-order position (sourced entirely from the trace, never from
re-instrumenting the joins) plus the answers the traced run produced —
callers can check bit-identity against an untraced run directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.obs.trace import TraceSpan


@dataclass(frozen=True)
class EdgeActuals:
    """Observed work for one query edge (initial build + all refills)."""

    edge_index: int
    propagation_steps: int
    walk_cache_hits: int
    walk_cache_misses: int
    bound_cache_hits: int
    peak_block_bytes: int
    refills: int
    elapsed_s: float


@dataclass(frozen=True)
class AnalyzedPlan:
    """An :class:`ExplainedPlan` annotated with traced actuals.

    ``actuals`` is ordered like ``plan.build_order``; ``answers`` is
    the traced run's :class:`~repro.exec.budget.PartialResult` (the
    trace layer must never change it — the overhead bench asserts
    bit-identity against untraced runs).
    """

    plan: object  # repro.planner.plan.ExplainedPlan
    actuals: Tuple[EdgeActuals, ...]
    answers: object  # repro.exec.budget.PartialResult
    elapsed_s: float
    trace: Optional[TraceSpan] = None

    @property
    def total_actual_steps(self) -> int:
        """Propagation steps observed across every edge."""
        return sum(a.propagation_steps for a in self.actuals)

    def format(self) -> str:
        """The plan rendering interleaved with per-edge actuals."""
        plan = self.plan
        lines = plan.format().splitlines()
        out: List[str] = []
        by_edge = {row.edge_index: row for row in self.actuals}
        for line in lines:
            out.append(line)
            edge = _edge_of_plan_line(line, plan)
            if edge is None or edge not in by_edge:
                continue
            row = by_edge[edge]
            estimated = plan.edges[edge].estimated_steps
            ratio = (
                row.propagation_steps / estimated if estimated > 0
                else float("inf") if row.propagation_steps else 1.0
            )
            out.append(
                f"      actual: steps={row.propagation_steps} "
                f"(est {estimated:.0f}, {ratio:.2f}x) "
                f"walk_hits={row.walk_cache_hits} "
                f"bound_hits={row.bound_cache_hits} "
                f"peak_block_bytes={row.peak_block_bytes} "
                f"refills={row.refills} "
                f"elapsed={row.elapsed_s * 1e3:.1f}ms"
            )
        out.append(
            f"analyze: total actual steps={self.total_actual_steps} "
            f"(est {plan.total_estimated_steps:.0f}) "
            f"answers={len(self.answers)} "
            f"elapsed={self.elapsed_s:.3f}s"
        )
        return "\n".join(out)

    def to_json(self) -> dict:
        """Machine-readable form for ``--json`` CLI output."""
        return {
            "plan": self.plan.to_json(),
            "actuals": [
                {
                    "edge_index": row.edge_index,
                    "propagation_steps": row.propagation_steps,
                    "estimated_steps":
                        self.plan.edges[row.edge_index].estimated_steps,
                    "walk_cache_hits": row.walk_cache_hits,
                    "walk_cache_misses": row.walk_cache_misses,
                    "bound_cache_hits": row.bound_cache_hits,
                    "peak_block_bytes": row.peak_block_bytes,
                    "refills": row.refills,
                    "elapsed_s": row.elapsed_s,
                }
                for row in self.actuals
            ],
            "total_actual_steps": self.total_actual_steps,
            "elapsed_s": self.elapsed_s,
        }


def _edge_of_plan_line(line: str, plan) -> Optional[int]:
    """The edge index a ``format()`` row describes (None for headers)."""
    parts = line.split()
    # EdgePlan rows render as "  {pos}. edge {e} {name} ...".
    if len(parts) >= 3 and parts[0].endswith(".") and parts[1] == "edge":
        try:
            edge = int(parts[2])
        except ValueError:
            return None
        if 0 <= edge < len(plan.edges):
            return edge
    return None


def edge_actuals_from_trace(root: TraceSpan, plan) -> Tuple[EdgeActuals, ...]:
    """Attribute a traced run's work back to the plan's edges.

    For each edge in ``plan.build_order``, sums the ``edge`` span (the
    initial build) and every ``refill`` span carrying the same
    ``edge`` attribute.  Span counters are thread-local stat deltas, so
    nested work (rounds, cache triage) is included exactly once.
    """
    rows: List[EdgeActuals] = []
    for edge in plan.build_order:
        spans = root.find("edge", edge=edge)
        refills = root.find("refill", edge=edge)
        all_spans = spans + refills
        if not all_spans:
            rows.append(EdgeActuals(edge, 0, 0, 0, 0, 0, 0, 0.0))
            continue

        def total(counter: str) -> int:
            return sum(s.counters.get(counter, 0) for s in all_spans)

        rows.append(EdgeActuals(
            edge_index=edge,
            propagation_steps=total("propagation_steps"),
            walk_cache_hits=total("walk_cache_hits"),
            walk_cache_misses=total("walk_cache_misses"),
            bound_cache_hits=total("bound_cache_hits"),
            peak_block_bytes=max(
                s.subtree_peak_bytes() for s in all_spans
            ),
            refills=len(refills),
            elapsed_s=sum(s.elapsed_s for s in all_spans),
        ))
    return tuple(rows)
