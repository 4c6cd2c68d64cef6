"""Governed entry points: budgets in, exact-or-flagged-partial out.

This module runs the join layers under an installed
:class:`~repro.exec.governor.ExecutionGovernor` — every api query, with
a budget or without one (``QueryBudget()``, a governor that can never
stop).  The contract every wrapper upholds — and the fault-injection
matrix asserts — is:

* a join that runs to completion returns an ``exact`` result with
  degenerate ``(score, score)`` bounds;
* a budget stop (deadline / steps / bytes) never raises under the
  default ``on_budget="partial"`` policy: the wrapper converts the
  join's own threshold state into a :class:`~repro.exec.budget.PartialResult`
  whose per-result intervals are guaranteed to contain the exact scores;
* ``on_budget="error"`` re-raises the
  :class:`~repro.exec.budget.BudgetExhaustedError` instead, after
  counting the stop.

The partial-result intervals come from two sources, in preference
order:

``budget_snapshot``
    The iterative-deepening join (``B-IDJ``, under any measure) records
    the last *completed* round — every then-active target's gathered
    left-row scores ``h_l(p, q)`` plus that round's tail bound.  By
    monotonicity ``h_l`` is a lower bound on ``h_d`` and
    ``h_l + tail_l`` a sound upper bound, so
    ``[h_l, h_l + tail_l]`` contains the oracle score.  Targets pruned
    at earlier rounds were proved unable to reach the top-``k`` by the
    same bound, so excluding them keeps the best-effort ranking sound.
``partial_pairs``
    The basic joins score pairs exhaustively; the pairs finished before
    the stop carry exact scores (degenerate intervals) — the result is
    partial only in *coverage*, never in per-pair accuracy.

The n-way wrapper aggregates per-edge intervals componentwise: for a
monotone aggregate ``f``, ``[f(lo_1..lo_n), f(hi_1..hi_n)]`` contains
``f(exact_1..exact_n)`` whenever each ``[lo_e, hi_e]`` contains
``exact_e``.

This module imports the join layers, so it is deliberately *not*
re-exported from :mod:`repro.exec`'s ``__init__`` — import it directly
(``from repro.exec.governed import run_governed_top_k``) to keep the
walk layer's ``repro.exec.budget`` dependency cycle-free.
"""

from __future__ import annotations

from typing import List

from repro.core.nway import EXECUTORS
from repro.core.nway.driver import Interval, snapshot_partial
from repro.core.nway.spec import NWayJoinSpec
from repro.exec.budget import (
    ON_BUDGET_POLICIES,
    BudgetExhaustedError,
    PartialResult,
    exact_result,
)
from repro.exec.governor import ExecutionGovernor
from repro.graph.validation import GraphValidationError


def check_on_budget(on_budget: str) -> None:
    """Reject an unknown ``on_budget`` policy before any work (the api
    entry points call it once per query, before any walk)."""
    if on_budget not in ON_BUDGET_POLICIES:
        raise GraphValidationError(
            f"unknown on_budget policy {on_budget!r}; "
            f"choose from {ON_BUDGET_POLICIES}"
        )


def _run_governed(call, join, limit, governor, on_budget: str) -> PartialResult:
    """``call()`` under the governor: exact on completion, else ``join``'s
    top-``limit`` snapshot (``on_budget="partial"``) or the re-raised
    :class:`BudgetExhaustedError` (``"error"``), the stop counted either
    way.  A genuine :class:`MemoryError` that survived the adaptive
    backoff is treated as ``reason="bytes"`` exhaustion."""
    try:
        return exact_result(call())
    except BudgetExhaustedError as exc:
        governor.count_budget_stop()
        if on_budget == "error":
            raise
        return snapshot_partial(join, limit, exc.reason)
    except MemoryError as exc:
        governor.count_budget_stop()
        if on_budget == "error":
            raise BudgetExhaustedError(
                "bytes", "allocation failed below the minimum window"
            ) from exc
        return snapshot_partial(join, limit, "bytes")


def run_governed_top_k(
    join,
    k: int,
    governor: ExecutionGovernor,
    on_budget: str = "partial",
) -> PartialResult:
    """``join.top_k(k)`` under the governor's budget.

    Returns an exact :class:`PartialResult` when the join completes, a
    flagged-partial one on exhaustion (``on_budget="partial"``), or
    re-raises the :class:`BudgetExhaustedError` (``on_budget="error"``).
    """
    return _run_governed(lambda: join.top_k(k), join, k, governor, on_budget)


def run_governed_multi_way(
    spec: NWayJoinSpec,
    governor: ExecutionGovernor,
    algorithm: str = "pj",
    m: int = 50,
    on_budget: str = "partial",
    plan=None,
) -> PartialResult:
    """The one n-way runner: ``algorithm``'s executor under ``governor``.

    ``algorithm`` is a key of :data:`repro.core.nway.EXECUTORS`; the
    runner constructs that executor, and ``plan`` overrides
    ``spec.plan`` (e.g. to replay an explained plan).  Per-edge
    exhaustion never aborts the
    join under ``on_budget="partial"``: the stopped edge contributes its
    snapshot prefix (with intervals), its refills are disabled, and the
    final answers are flagged partial with componentwise-aggregated
    bounds.

    The join itself is the shared
    :class:`~repro.core.nway.driver.NWayDriver`, whose guard reads the
    installed ``governor`` off ``spec.engine`` and collects the stop
    reasons and per-pair intervals assembled here.  What a stop needs
    is needed only when the governor :attr:`~ExecutionGovernor.can_stop`:
    then ``"pj-i"`` runs ``PJ``'s restart source (the incremental join
    keeps no snapshot), ``"ap"`` materialises with ``B-BJ`` (the
    driver's materialised source swaps out ``F-BJ``, which keeps no
    prefix), and ``"nl"``, which has no threshold state at all, is
    rejected.  An unbudgeted query runs the strategy as written.

    ``spec.plan`` chooses edge build order — and, for the
    ``PJ`` strategies, per-edge operators.  Plans only reorder which
    walks the budget is spent on: soundness of the flagged intervals is
    per-edge, so it holds under every build order (the planner
    interaction tests pin this).
    """
    name = algorithm.lower()
    if name not in EXECUTORS:
        raise GraphValidationError(
            f"unknown n-way algorithm {algorithm!r}; "
            f"choose from {tuple(EXECUTORS)}"
        )
    if name == "nl" and governor.can_stop:
        raise GraphValidationError(
            "the NL strategy scores answers one tuple at a time and has "
            "no resumable threshold state; use 'pj', 'pj-i', or 'ap' "
            "under a query budget"
        )
    if name == "pj-i" and governor.can_stop:
        name = "pj"
    executor = EXECUTORS[name](spec, m=m, plan=plan)
    answers = executor.run()
    reasons, intervals = executor.reasons, executor.intervals
    exact = not reasons
    if not exact and on_budget == "error":
        raise BudgetExhaustedError(reasons[0])

    edges = spec.query_graph.edges
    bounds: List[Interval] = []
    for answer in answers:
        lows: List[float] = []
        highs: List[float] = []
        for e, (i, j) in enumerate(edges):
            pair_key = (e, answer.nodes[i], answer.nodes[j])
            lower, upper = intervals.get(
                pair_key, (answer.edge_scores[e], answer.edge_scores[e])
            )
            lows.append(lower)
            highs.append(upper)
        bounds.append((spec.aggregate(lows), spec.aggregate(highs)))
    return PartialResult(
        results=list(answers),
        bounds=bounds,
        exact=exact,
        reason=None if exact else reasons[0],
    )
