"""The execution governor: budget enforcement at cooperative checkpoints.

An :class:`ExecutionGovernor` is installed on a
:class:`~repro.walks.engine.WalkEngine` for the duration of every api
query (an unbudgeted one gets ``QueryBudget()``, which never stops it).
The engine (and the join loops above it) call
``engine.checkpoint(site, ...)`` at the natural unit-of-work boundaries:

``"step"``
    One propagation step of a series loop in the engine.
``"block"``
    Entry of a batched block step, with the in-flight block attached
    (the fault injector's poisoning point).
``"alloc"``
    Just before a :class:`~repro.walks.state.WalkState` materialises its
    buffers, with the predicted allocation size — the byte ceiling is
    enforced *before* the memory is committed.  Block widths are
    planned under the ceiling up front, so this veto is the backstop
    for a block nobody planned.
``"round"``
    Top of an iterative-deepening round (and each matrix-measure gather
    group, which performs no engine steps).
``"edge"``
    Entry of :meth:`~repro.core.nway.spec.NWayJoinSpec.edge_context` —
    the funnel every n-way strategy passes through per query edge.
``"cache"``
    Each :meth:`~repro.walks.cache.WalkCache.scores` call, and each
    cache-triage pass (:func:`~repro.walks.rounds.triage`, one
    ``peek_block`` over a group of targets) — one governor call counted
    as ``len(targets)`` visits — so a query whose targets are all warm
    in the cache still honours deadlines and fault schedules, at a cost
    per block rather than per target.  The linter's RL002
    *ungoverned-loop* rule (``docs/INVARIANTS.md``) mechanically
    enforces that loops over ``peek`` / ``peek_block`` reach one.

Each checkpoint increments ``stats.checkpoints``, gives the optional
:class:`~repro.exec.faults.FaultInjector` a chance to fire, and checks
the three budget axes, raising
:class:`~repro.exec.budget.BudgetExhaustedError` on exhaustion.  A
counted checkpoint (``count`` visits of one site in a row) increments
the counter by ``count`` and checks the budget once; with an injector
installed it falls back to ``count`` single visits.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.exec.budget import BudgetExhaustedError, QueryBudget


class ExecutionGovernor:
    """Enforces a :class:`QueryBudget` and hosts the fault injector.

    Every api query runs under one; ``QueryBudget()`` with no injector
    (an unbudgeted query) can never stop it, which :attr:`can_stop`
    says.  ``clock`` is injectable for deterministic deadline tests; the
    ``"clock"`` fault advances :meth:`jump_clock` rather than sleeping.
    ``validate_walks`` (the NaN walk-mass validation in
    :class:`~repro.walks.state.WalkState`, one ``isfinite`` reduction
    per advanced block) is on exactly when a fault injector is present.
    """

    def __init__(
        self,
        budget: Optional[QueryBudget] = None,
        clock: Callable[[], float] = time.monotonic,
        fault_injector=None,
    ) -> None:
        self.budget = budget if budget is not None else QueryBudget()
        self._clock = clock
        self._offset = 0.0
        self.fault_injector = fault_injector
        self.validate_walks = fault_injector is not None
        self._engine = None
        self.walk_cache = None
        self._deadline: Optional[float] = None
        self._step_base = 0

    # ------------------------------------------------------------------
    # Installation

    def install(self, engine, walk_cache=None) -> "ExecutionGovernor":
        """Attach to ``engine`` and start the deadline/step baselines.

        The step baseline is the *calling thread's* shard of
        ``propagation_steps``, so a per-query step budget on an engine
        shared by concurrent service workers only meters this query's
        own walking (`engine.governor` is likewise thread-local).
        """
        engine.governor = self
        self._engine = engine
        self.walk_cache = walk_cache
        self._step_base = engine.stats.local("propagation_steps")
        if self.budget.deadline_ms is not None:
            self._deadline = self.now() + self.budget.deadline_ms / 1000.0
        return self

    def uninstall(self) -> None:
        """Detach from the engine (subsequent runs are ungoverned)."""
        if self._engine is not None and self._engine.governor is self:
            self._engine.governor = None

    @property
    def can_stop(self) -> bool:
        """Whether this governor can ever stop its query: some budget
        axis is set or a fault injector may fire.  What a stop needs —
        a join that keeps a snapshot, ``B-BJ`` for ``AP``'s
        materialisation, no ``NL`` — is needed only then."""
        return not self.budget.unlimited or self.fault_injector is not None

    # ------------------------------------------------------------------
    # Clock

    def now(self) -> float:
        """Current governed time (base clock plus injected jumps)."""
        return self._clock() + self._offset

    def jump_clock(self, seconds: float) -> None:
        """Advance the governed clock (used by the ``"clock"`` fault)."""
        self._offset += float(seconds)

    # ------------------------------------------------------------------
    # Accounting

    def steps_used(self) -> int:
        """Propagation column-steps this thread spent since installation."""
        return self._engine.stats.local("propagation_steps") - self._step_base

    def count_budget_stop(self) -> None:
        """Record that a governed entry point stopped on exhaustion."""
        self._engine.stats.add("budget_stops", 1)

    # ------------------------------------------------------------------
    # The checkpoint

    def checkpoint(
        self,
        site: str,
        block=None,
        nbytes: Optional[int] = None,
        count: int = 1,
    ) -> None:
        """``count`` back-to-back cooperative checkpoints of one site;
        raises on exhaustion.

        ``block`` is the in-flight walk block (poisoning target) when
        the site has one; ``nbytes`` is the predicted size of an
        allocation about to happen, checked against ``max_bytes``
        *before* the buffers are committed.

        ``count`` visits add ``count`` to ``stats.checkpoints`` but
        check the budget once: no step is taken between back-to-back
        visits, so the first visit raises or none does (and a raise
        still counts one visit).  A fault injector sees ``count``
        single visits, so its schedule replays exactly.
        """
        injector = self.fault_injector
        if count > 1 and injector is not None:
            for _ in range(count):
                self.checkpoint(site, block=block, nbytes=nbytes)
            return
        stats = self._engine.stats
        stats.add("checkpoints", 1)
        if injector is not None:
            injector.fire(site, self, block=block)
        budget = self.budget
        if (
            nbytes is not None
            and budget.max_bytes is not None
            and nbytes > budget.max_bytes
        ):
            raise BudgetExhaustedError(
                "bytes",
                f"block of {nbytes} bytes exceeds the query byte budget of "
                f"{budget.max_bytes} bytes",
            )
        if (
            budget.step_budget is not None
            and self.steps_used() >= budget.step_budget
        ):
            raise BudgetExhaustedError(
                "steps",
                f"propagation-step budget of {budget.step_budget} exhausted",
            )
        if self._deadline is not None and self.now() >= self._deadline:
            raise BudgetExhaustedError(
                "deadline",
                f"deadline of {budget.deadline_ms} ms exceeded",
            )
        if count > 1:
            stats.add("checkpoints", count - 1)
