"""Backward-processing 2-way joins: ``B-BJ`` and ``B-IDJ`` (Section VI).

The key idea (Fig. 5(b) of the paper): one *backward* propagation from a
right-set node ``q`` (Eq. 5) yields ``h_d(p, q)`` for **every** left node
``p`` simultaneously — a factor-``|P|`` saving over forward processing.

``B-IDJ`` (Algorithm 2) adds iterative deepening on top: doubling-length
walks give lower bounds ``h_l(p, q)`` and per-``q`` upper bounds
``max_p h_l(p, q) + U_l^+``; a ``q`` whose upper bound cannot reach the
current top-``k`` floor is pruned before the expensive full-depth walk.
The bound ``U_l^+`` is pluggable: ``X_l^+`` (Lemma 2) gives ``B-IDJ-X``,
``Y_l^+`` (Theorem 1) gives ``B-IDJ-Y``.

This module runs both algorithms on the batched, resumable walk layer,
and ``B-BJ`` is exactly ``B-IDJ``'s final level with nothing pruned:

* ``B-BJ`` feeds its targets, in blocks, through the same rounds'
  ``walk_level`` that ends ``B-IDJ`` — one sparse product per step
  instead of ``B`` mat-vecs, and with no walk cache a row-restricted
  walk that finishes on the left set's restricted tail.
* ``B-IDJ`` keeps one :class:`~repro.walks.state.WalkState` across
  deepening rounds, so level ``2l`` *extends* level ``l`` (``d``
  column-steps per surviving target instead of ``~2d``).  The rounds
  hand it each walked block already restricted to the left rows
  (``(|P|, B)``; with no walk cache the prefix is kept only there, and
  the final level ends on the restricted tail).  Its per-``p``
  score/floor loop is a masked max over those blocks with a bounded
  top-k floor accumulator.
* Both keep the tail in blocks: the ``k`` winners are picked straight
  from the left-row blocks
  (:meth:`~repro.core.two_way.base.TwoWayContext.top_pairs`), so only
  ``all_pairs()`` ever builds ``|P||Q|`` pairs, and an observer is fed
  once per consumed block.
* With a :class:`~repro.walks.cache.WalkCache` on the context, walks are
  served from / donated to the cache a group of targets at a time, so
  repeated joins over overlapping node sets (``PJ`` restarts,
  star/clique edges) never re-walk a target.

Both loops are the one backward stack for every proximity measure:
they read the scorer, the tail bound (:func:`y_bound_factory`) and the
deepening rounds off the context (see ``docs/ALGORITHMS.md``, "The
measure layer"); a measure is duck-typed, so ``core`` never imports
``extensions``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.bounds import ScoreUpperBound, YBound
from repro.core.two_way.base import (
    BoundedTopK,
    ScoredPair,
    TwoWayContext,
)
from repro.graph.validation import GraphValidationError
from repro.walks.rounds import DeepeningRounds, columns_for_budget
from repro.walks.state import RestrictedTail, WalkState

# ``B-BJ``'s block width: 16 columns keeps the dense mass block
# cache-resident on large graphs (n x B x 8 bytes) while amortising the
# CSR index traffic; one block for all of ``Q`` costs peak RSS.  Re-tune
# against ``api.two_way.b-bj.p50_ms`` / ``peak_rss_mb`` on
# ``twoway_cold`` (bench/run.py).
_BLOCK_SIZE = 16

# ``(targets, block)``: ``block[i, j]`` scores ``(left[i], targets[j])``.
LeftBlock = Tuple[Sequence[int], np.ndarray]


def back_walk(context: TwoWayContext, target: int, steps: int) -> np.ndarray:
    """The paper's ``backWalk``: ``h_l(p, target)`` for all graph nodes.

    With a walk cache on the context, the request is served from the
    cache — an exact repeat costs one ``O(n)`` copy, a deeper repeat only
    pays the walk's uncached suffix.  Without one it is a one-column
    walk of the measure's kernel, the scorer the cache runs on a miss —
    for DHT the ``steps``-step backward first-hit propagation from
    ``target`` (Eq. 5) folded into truncated scores (Eq. 4).

    Returns the full length-``|V_G|`` score vector, for callers that
    want every node's score (link prediction, tests).  The joins do
    not: they read ``h_l(p, target)`` for ``p in P`` only, through the
    ``rows`` argument of the cache's lookups and the rounds' blocks.
    """
    if context.walk_cache is not None:
        return context.walk_cache.scores(target, steps)
    state = WalkState(context.engine, context.measure.kernel(), [target])
    return state.advance_to(steps).score_column(0)


def _rounds(context: TwoWayContext) -> DeepeningRounds:
    """The walk plan of one pass: ``walk_level`` / ``donate_pruned`` /
    ``repack`` over the measure's kernel and the context's cache (shared
    at its ``walk_rows``), under this thread's byte budget."""
    return DeepeningRounds(
        context.engine, context.measure.kernel(), context.walk_cache,
        context.walk_rows,
    )


def _final_tail(context: TwoWayContext) -> Optional[RestrictedTail]:
    """The plan a final level finishes on: the left set's restricted
    tail, through the bound cache, exactly when there is no cache to
    feed (so the states keep their prefix at the left rows only)."""
    if context.walk_cache is not None:
        return None
    return context.bound_cache.tail_plan(
        context.left, context.d,
        lambda: RestrictedTail(context.engine, context.left_array, context.d),
    )


class WalkObserver(Protocol):
    """Callback receiving every backward walk's bounds.

    ``PJ-i`` registers an observer that mirrors the walk results into its
    ``F`` structure (Section VI-D), so the information paid for during the
    top-``m`` join is reused by ``getNextNodePair``.
    """

    def observe(
        self, targets: Sequence[int], level: int, block: np.ndarray, tails: np.ndarray
    ) -> None:
        """Record that ``level``-step walks from ``targets`` produced
        ``block`` with per-target tail bounds ``tails`` — one call per
        block the join consumes.

        ``block`` is left-aligned (``block[i, j]`` is
        ``h_level(left[i], targets[j])``, shape ``(|P|, len(targets))``)
        and may be reused by the join: copy what must outlive the call.
        """
        ...


class BackwardBasicJoin:
    """``B-BJ``: one full-depth backward walk per right node.

    ``O(|Q| d |E_G|)`` total — already ``|P|`` times faster than ``F-BJ``
    — but walks every ``q`` to full depth regardless of ``k``.  It is
    ``B-IDJ``'s final level with nothing pruned: the right set is fed,
    a block of at most 16 targets at a time (fewer under a byte budget,
    ``QueryBudget.max_bytes``, planned when the join runs), through the
    same rounds' ``walk_level`` that ends :meth:`BackwardIDJ._top_k` —
    so cache hits, resumed donations, the allocation backoff, the
    corrupted-block re-walk and the cache-less restricted tail are the
    rounds', under every measure.
    """

    name = "B-BJ"

    def __init__(self, context: TwoWayContext) -> None:
        self._ctx = context
        # Exactly scored ``(targets, left-row block)`` groups so far; the
        # governed entry points read this after a budget stop to report
        # the completed prefix.
        self.partial_blocks: Optional[List[LeftBlock]] = None

    @property
    def context(self) -> TwoWayContext:
        """The validated join inputs."""
        return self._ctx

    def all_pairs(self) -> List[ScoredPair]:
        """Score every candidate pair (unsorted)."""
        ctx = self._ctx
        return [
            pair
            for targets, block in self._left_blocks()
            for q, scores in zip(targets, block.T)
            for pair in ctx.pairs_for_target(scores, q)
        ]

    def _left_blocks(self) -> List[LeftBlock]:
        """Full-depth scores of every target as ``(targets, (|P|, B)
        block)`` groups — what :meth:`all_pairs` expands and
        :meth:`top_k` selects from."""
        ctx = self._ctx
        with ctx.engine.trace_span("join", self.name, targets=len(ctx.right)):
            blocks: List[LeftBlock] = []
            self.partial_blocks = blocks
            # Planned now, under this thread's byte budget (the api
            # installs the governor after building the join).
            cap = columns_for_budget(ctx.engine)
            width = _BLOCK_SIZE if cap is None else min(_BLOCK_SIZE, cap)
            tail = _final_tail(ctx)

            def consume(targets, block):
                blocks.append((targets, block))

            for start in range(0, len(ctx.right), width):
                # Fresh rounds per block: a block fits the window, so a
                # single-level pass never spills.
                _rounds(ctx).walk_level(
                    ctx.right[start : start + width], ctx.d, ctx.left_array,
                    consume, tail,
                )
            return blocks

    def top_k(self, k: int) -> List[ScoredPair]:
        """Top-``k`` pairs by exhaustive backward scoring."""
        if k < 0:
            # Before any walk: a bad k must not burn steps or warm a
            # shared cache first.
            raise GraphValidationError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        return self._ctx.top_pairs(self._left_blocks(), k)


BoundFactory = Callable[[TwoWayContext], ScoreUpperBound]


def x_bound_factory(context: TwoWayContext) -> ScoreUpperBound:
    """``U_l^+ = X_l^+`` (Lemma 2) — the ``B-IDJ-X`` configuration.

    Served through the context's
    :class:`~repro.bounds_cache.BoundPlanCache` (keyed by depth only —
    ``X`` is data-independent), so repeated joins on one context and
    ``F-IDJ`` runs at the same depth share one table.  The table is
    the measure's ``x_bound``: Lemma 2's ``X``, a geometric tail under
    every measure.
    """
    measure, d = context.measure, context.d
    return context.bound_cache.x_bound(d, lambda: measure.x_bound(d))


def y_bound_factory(context: TwoWayContext) -> ScoreUpperBound:
    """``U_l^+ = Y_l^+(P, q)`` (Theorem 1) — the ``B-IDJ-Y`` configuration.

    Construction runs a one-off ``O(d |E_G|)`` reach-mass propagation
    from all of ``P``, served through the context's
    :class:`~repro.bounds_cache.BoundPlanCache`: repeated joins over the
    same inputs (``PJ``'s restart refills) and sibling query edges that
    agree on the left set (every edge of a star spec, repeated sets of a
    clique spec — they share one cache via their
    :class:`~repro.core.nway.spec.NWayJoinSpec`) reuse the bound instead
    of re-propagating.
    """
    measure, d = context.measure, context.d
    return context.bound_cache.y_bound(
        context.left, d,
        lambda: YBound(context.engine, measure.tail_weights(d), context.left, d),
    )


class BackwardIDJ:
    """``B-IDJ`` (Algorithm 2) with a pluggable upper-bound function.

    Runs on the batched, resumable walk layer: all active targets share
    one :class:`~repro.walks.state.WalkState` block that is *extended*
    at each doubling level (the seed restarted every walk from scratch,
    paying ``1 + 2 + ... + d ~ 2d`` steps per surviving target instead
    of ``d``).  With a walk cache on the context, previously walked
    targets are served from the cache and pruned targets donate their
    resumable column so later joins pick up where this one stopped.

    Under a byte budget (``QueryBudget.max_bytes`` on the calling
    thread) the full-width block — ``O(n |Q|)`` floats for very large
    right sets — is replaced by bounded-memory chunked rounds: a
    resumable *window* of at most ``max_bytes`` (16 bytes per node per
    column: walker mass plus score prefix) is retained between
    deepening levels, its width planned before the first walk, and overflow
    targets are walked in throwaway chunks of the same size.  Survivors
    of the throwaway chunks are folded into the window as pruning frees
    columns; overflow survivors beyond the window's capacity are
    *spilled* — their single-column states are donated to the walk
    cache (under its LRU budget) and resumed from it at the next level,
    so with a cache on the context the restart steps of the old
    drop-and-re-walk policy become ``extensions`` / ``steps_saved``
    counters instead.  Cache-less contexts keep the restart behaviour.
    Scores reach the join as left-row blocks (the walk blocks are read
    at ``P``'s rows, never expanded into per-target vectors — an
    observer included, which is handed ``|P|`` floats per walk), so a
    round's live walk memory is ``O(max_bytes + |P| |Q|)`` rather
    than the unbounded mode's ``O(n |Q|)``.  Scores are bit-identical
    either way (Eq. 5 columns propagate independently), so the top-``k``
    output and the pruning trace do not change — only the
    memory/compute trade-off does, visible as extra
    ``propagation_steps`` and a capped ``peak_block_bytes`` in the
    engine stats.  The round machinery itself is
    :class:`~repro.walks.rounds.DeepeningRounds` over the measure's
    ``kernel()``, so the same loop runs under every measure.

    Parameters
    ----------
    context:
        The validated join inputs.
    bound_factory:
        Builds the ``U_l^+`` bound; use :func:`x_bound_factory` or
        :func:`y_bound_factory` (or the :class:`BackwardIDJX` /
        :class:`BackwardIDJY` conveniences).
    observer:
        Optional :class:`WalkObserver` mirroring walk results (used by
        ``PJ-i``).

    Attributes
    ----------
    pruning_trace:
        Per-round dicts with ``level`` / ``active_before`` / ``pruned`` —
        the data behind Fig. 10(b).
    """

    name = "B-IDJ"

    def __init__(
        self,
        context: TwoWayContext,
        bound_factory: BoundFactory,
        observer: Optional[WalkObserver] = None,
    ) -> None:
        self._ctx = context
        self._bound_factory = bound_factory
        self._observer = observer
        self.pruning_trace: List[dict] = []
        # Threshold-state snapshot of the last *completed* deepening
        # round; the governed entry points turn it into a partial result
        # with sound [h_l, h_l + tail_l] intervals after a budget stop.
        self.budget_snapshot: Optional[dict] = None

    @property
    def context(self) -> TwoWayContext:
        """The validated join inputs."""
        return self._ctx

    def top_k(self, k: int) -> List[ScoredPair]:
        """Top-``k`` pairs with iterative-deepening pruning on ``Q``."""
        if k < 0:
            raise GraphValidationError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        with self._ctx.engine.trace_span(
            "join", self.name, k=k, targets=len(self._ctx.right)
        ):
            return self._top_k(k)

    def _top_k(self, k: int) -> List[ScoredPair]:
        ctx = self._ctx
        self.budget_snapshot = None
        self.pruning_trace = []
        rounds = _rounds(ctx)  # widths planned before any walk
        bound = self._bound_factory(ctx)
        left = ctx.left_array
        zero = ctx.measure.floor
        active: List[int] = list(ctx.right)

        level = 1
        while level < ctx.d:
            with ctx.engine.trace_span(
                "level", level=level, active=len(active)
            ) as level_span:
                ctx.engine.checkpoint("round")
                # The seed's per-p Python loop, vectorised: the rounds
                # deliver each walked block at the left rows only; drop
                # it into its columns, mask reflexive pairs, take column
                # maxima, and feed informative entries to the bounded
                # floor.  Nothing full-width is ever seen here.
                width = len(active)
                targets_arr = np.asarray(active, dtype=np.int64)
                tails = bound.tails(level, active)
                column_of = {q: j for j, q in enumerate(active)}
                left_scores = np.empty((left.size, width), dtype=np.float64)

                def gather(targets, block, level=level, tails=tails,
                           column_of=column_of, left_scores=left_scores):
                    columns = [column_of[q] for q in targets]
                    if self._observer is not None:
                        self._observer.observe(
                            targets, level, block, tails[columns]
                        )
                    left_scores[:, columns] = block

                rounds.walk_level(active, level, left, gather)
                # Snapshot only after every column of this round has been
                # gathered: h_level is a monotone lower bound and
                # tail_level a sound upper increment for every
                # then-active target.
                self.budget_snapshot = {
                    "level": level,
                    "targets": list(active),
                    "left_scores": left_scores,
                    "tails": tails,
                }
                valid = left[:, None] != targets_arr[None, :]
                floor = BoundedTopK(k)
                # Algorithm 2, step 7: only informative lower bounds
                # (pairs with at least one hit within `level` steps)
                # enter the floor.
                floor.push(left_scores[valid & (left_scores > zero)])
                best = np.where(valid, left_scores, -np.inf).max(axis=0)
                best = np.maximum(best, zero)
                t_k = floor.kth_largest()
                keep = best + tails >= t_k
                surviving = [q for q, flag in zip(active, keep) if flag]
                self.pruning_trace.append(
                    {
                        "level": level,
                        "active_before": len(active),
                        "pruned": len(active) - len(surviving),
                        "threshold": t_k,
                    }
                )
                level_span.set(pruned=len(active) - len(surviving))
                rounds.donate_pruned(
                    q for q, flag in zip(active, keep) if not flag
                )
                rounds.repack(set(surviving), level)
                active = surviving
                level *= 2

        with ctx.engine.trace_span(
            "level", level=ctx.d, active=len(active), final=True
        ):
            ctx.engine.checkpoint("round")
            blocks: List[LeftBlock] = []

            def emit(targets, block):
                if self._observer is not None:
                    self._observer.observe(
                        targets, ctx.d, block, np.zeros(len(targets))
                    )
                blocks.append((targets, block))

            tail = _final_tail(ctx) if active else None
            rounds.walk_level(active, ctx.d, left, emit, tail)
        return ctx.top_pairs(blocks, k)


class BackwardIDJX(BackwardIDJ):
    """``B-IDJ-X``: Algorithm 2 with the closed-form ``X_l^+`` bound."""

    name = "B-IDJ-X"
    bound_factory = staticmethod(x_bound_factory)

    def __init__(
        self, context: TwoWayContext, observer: Optional[WalkObserver] = None
    ) -> None:
        super().__init__(context, self.bound_factory, observer=observer)


class BackwardIDJY(BackwardIDJ):
    """``B-IDJ-Y``: Algorithm 2 with the reach-mass ``Y_l^+`` bound.

    The tighter bound (Lemma 5) prunes earlier; the paper selects this
    variant inside ``PJ``/``PJ-i``.
    """

    name = "B-IDJ-Y"
    bound_factory = staticmethod(y_bound_factory)

    def __init__(
        self, context: TwoWayContext, observer: Optional[WalkObserver] = None
    ) -> None:
        super().__init__(context, self.bound_factory, observer=observer)
