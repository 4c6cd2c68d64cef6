"""Budget-governed execution: deadlines, degradation, partial results.

Layer map (see ``docs/ALGORITHMS.md`` for the handbook section):

- :mod:`repro.exec.budget` — :class:`QueryBudget`, the exception
  hierarchy, and :class:`PartialResult` (import-pure; safe for the walk
  layer to depend on).
- :mod:`repro.exec.governor` — :class:`ExecutionGovernor`, which
  enforces a budget at the cooperative checkpoints threaded through the
  engine and join loops.
- :mod:`repro.exec.faults` — the deterministic seeded
  :class:`FaultInjector` used by the robustness test matrix.
- :mod:`repro.exec.governed` — the runners every api query goes
  through, which convert exhaustion into flagged partial results.
  Imported lazily (it depends on the join layers, which depend on this
  package).
"""

from repro.exec.budget import (
    BUDGET_REASONS,
    ON_BUDGET_POLICIES,
    BudgetExhaustedError,
    CorruptedWalkError,
    PartialResult,
    QueryBudget,
    exact_result,
)
from repro.exec.faults import FAULT_KINDS, FaultInjector, InjectedAllocationError
from repro.exec.governor import ExecutionGovernor

__all__ = [
    "BUDGET_REASONS",
    "ON_BUDGET_POLICIES",
    "BudgetExhaustedError",
    "CorruptedWalkError",
    "PartialResult",
    "QueryBudget",
    "exact_result",
    "FAULT_KINDS",
    "FaultInjector",
    "InjectedAllocationError",
    "ExecutionGovernor",
]
