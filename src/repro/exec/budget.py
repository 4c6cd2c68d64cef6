"""Query budgets and partial-result containers for governed execution.

A :class:`QueryBudget` caps a single join invocation along three axes:
wall-clock time (``deadline_ms``), propagation work (``step_budget``,
counted in the engine's batching-invariant column-steps), and transient
block memory (``max_bytes``).  The :class:`~repro.exec.governor.ExecutionGovernor`
enforces the budget at cooperative checkpoints threaded through the walk
engine and the join loops; exhaustion surfaces as
:class:`BudgetExhaustedError` and — under the default
``on_budget="partial"`` policy — is converted by the governed entry
points into a :class:`PartialResult` whose per-result score intervals
come from the join's own X/Y-bound threshold state.

This module is import-pure (no ``repro`` dependencies) so that the walk
and join layers can raise/handle these types without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

#: Valid ``reason`` strings carried by budget stops and partial results.
BUDGET_REASONS = ("deadline", "steps", "bytes")

#: Valid ``on_budget`` policies for governed entry points.
ON_BUDGET_POLICIES = ("partial", "error")


class BudgetExhaustedError(Exception):
    """Raised at a checkpoint when the :class:`QueryBudget` is exhausted.

    ``reason`` is one of :data:`BUDGET_REASONS`.  Under the
    ``on_budget="partial"`` policy the governed entry points catch this
    and return a flagged :class:`PartialResult` instead.
    """

    def __init__(self, reason: str, message: Optional[str] = None) -> None:
        if reason not in BUDGET_REASONS:
            raise ValueError(
                f"unknown budget reason {reason!r}; expected one of {BUDGET_REASONS}"
            )
        self.reason = reason
        super().__init__(message or f"query budget exhausted ({reason})")


class CorruptedWalkError(Exception):
    """Non-finite walk mass detected at a validation checkpoint.

    Raised *before* the poisoned vectors can reach a cache or a result
    list; the deepening rounds and the walk cache respond by discarding
    the block and re-walking it fresh (a counted degradation).
    """


@dataclass(frozen=True)
class QueryBudget:
    """Per-query resource ceiling; any subset of the axes may be set.

    ``deadline_ms``
        Wall-clock deadline in milliseconds, measured from governor
        installation.
    ``step_budget``
        Maximum propagation column-steps (the engine's
        ``stats.propagation_steps`` delta) the query may spend.
    ``max_bytes``
        Ceiling on any single walk block (walker mass plus score prefix,
        16 bytes per node per column) — the one walk-block ceiling.
        Every block operator plans its width under it before walking
        (:func:`~repro.walks.rounds.columns_for_budget`); a budget below
        one column stops the query with ``reason="bytes"``.
    """

    deadline_ms: Optional[float] = None
    step_budget: Optional[int] = None
    max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive when set")
        if self.step_budget is not None and self.step_budget < 1:
            raise ValueError("step_budget must be at least 1 when set")
        if self.max_bytes is not None and self.max_bytes < 1:
            raise ValueError("max_bytes must be at least 1 when set")

    @property
    def unlimited(self) -> bool:
        """True when no axis is constrained."""
        return (
            self.deadline_ms is None
            and self.step_budget is None
            and self.max_bytes is None
        )


@dataclass
class PartialResult:
    """Outcome of a governed join: exact, or best-effort with intervals.

    ``results`` holds :class:`~repro.core.two_way.base.ScoredPair` (two-way)
    or :class:`~repro.core.nway.candidates.CandidateAnswer` (n-way) entries
    in best-first order.  ``bounds[i]`` is a ``(lower, upper)`` interval
    guaranteed to contain result ``i``'s exact score: degenerate
    ``(score, score)`` when the score was fully resolved, or the join's
    ``[h_l, h_l + tail_l]`` snapshot interval when deepening was cut
    short.  ``exact`` is True only when the join ran to completion, in
    which case ``reason`` is ``None``; otherwise ``reason`` is one of
    :data:`BUDGET_REASONS`.
    """

    results: List = field(default_factory=list)
    bounds: List[Tuple[float, float]] = field(default_factory=list)
    exact: bool = True
    reason: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.results) != len(self.bounds):
            raise ValueError("results and bounds must be parallel lists")
        if self.exact and self.reason is not None:
            raise ValueError("exact results carry no exhaustion reason")
        if not self.exact and self.reason not in BUDGET_REASONS:
            raise ValueError(
                f"partial results need a reason from {BUDGET_REASONS}"
            )

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator:
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]


def exact_result(results: Sequence) -> PartialResult:
    """Wrap a completed join's output with degenerate bounds."""
    items = list(results)
    return PartialResult(
        results=items,
        bounds=[(item.score, item.score) for item in items],
        exact=True,
        reason=None,
    )
