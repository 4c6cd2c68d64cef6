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

This module runs both algorithms on the batched, resumable walk layer:

* ``B-BJ`` propagates its targets in blocks — one sparse product per
  step instead of ``B`` mat-vecs.  Its cache-less lean scorer is three
  phases (frontier head, dense middle, restricted tail); the head and
  its gate are the walk engine's, shared with ``WalkState``.
* ``B-IDJ`` keeps one :class:`~repro.walks.state.WalkState` across
  deepening rounds, so level ``2l`` *extends* level ``l`` (``d``
  column-steps per surviving target instead of ``~2d``).  The rounds
  hand it each walked block already restricted to the left rows
  (``(|P|, B)``, never a full-graph vector per target), and its per-``p``
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

from typing import Callable, Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np
from scipy.sparse import issparse

from repro.core.bounds import (
    ClosedFormTail,
    ScoreUpperBound,
    XBound,
    YBound,
    dht_tail_weights,
)
from repro.core.two_way.base import (
    BoundedTopK,
    ScoredPair,
    TwoWayContext,
)
from repro.exec.budget import CorruptedWalkError
from repro.graph.validation import GraphValidationError
from repro.walks.engine import block_rows, dense_block
from repro.walks.kernels import dense_step
from repro.walks.rounds import (
    REWALK_ATTEMPTS,
    DeepeningRounds,
    MatrixRounds,
    columns_for_budget,
    triage,
)
from repro.walks.state import WalkState

# 16 columns keeps the dense mass block cache-resident on large graphs
# (n x B x 8 bytes) while amortising the CSR index traffic.  Re-tune
# against ``api.two_way.b-bj.p50_ms`` on ``twoway_cold`` (bench/run.py).
DEFAULT_BLOCK_SIZE = 16

# ``(targets, block)``: ``block[i, j]`` scores ``(left[i], targets[j])``.
LeftBlock = Tuple[Sequence[int], np.ndarray]


def back_walk(context: TwoWayContext, target: int, steps: int) -> np.ndarray:
    """The paper's ``backWalk``: ``h_l(p, target)`` for all graph nodes.

    With a walk cache on the context, the request is served from the
    cache — an exact repeat costs one ``O(n)`` copy, a deeper repeat only
    pays the walk's uncached suffix.  Without one it runs the
    ``steps``-step backward first-hit propagation from ``target``
    (Eq. 5) and converts the hit series into truncated DHT scores
    (Eq. 4) — or, on a measure context, the measure's own per-target
    ``backward_scores``.

    Returns the full length-``|V_G|`` score vector, for callers that
    want every node's score (link prediction, tests).  The joins do
    not: they read ``h_l(p, target)`` for ``p in P`` only, through the
    ``rows`` argument of the cache's lookups and the rounds' blocks.
    """
    if context.walk_cache is not None:
        return context.walk_cache.scores(target, steps)
    if context.measure is not None:
        return context.measure.backward_scores(context.engine, target, steps)
    series = context.engine.backward_first_hit_series(target, steps)
    return context.params.scores_from_matrix(series)


class _RestrictedTail:
    """Row-sliced transition operators for the last walk steps.

    Step ``d`` of the scorer only needs mass at the left rows; step
    ``d - 1`` only at their out-neighbours, and so on — the *reverse*
    frontier.  This plan materialises the nested node sets
    ``R_0 = rows``, ``R_{j+1} = out_nbrs(R_j) | R_0`` and the submatrix
    operators ``A_j = T[R_j][:, R_{j+1}]``, for as many levels as the
    row slice stays under half of ``nnz(T)``.  The plan depends only on
    ``(graph, rows, d)``, so it is served through the context's
    :class:`~repro.bounds_cache.BoundPlanCache`: shared by every target
    chunk of one ``all_pairs`` call *and* by later calls over the same
    left set — ``PJ`` restarts that re-materialise an edge reuse the
    plan instead of re-slicing the transition matrix.
    """

    def __init__(self, context: TwoWayContext, rows: np.ndarray) -> None:
        context.engine.stats.add("plan_builds", 1)
        transition = context.graph.transition_matrix()
        out_degrees = np.diff(transition.indptr)
        budget = transition.nnz // 2
        base = np.sort(np.asarray(rows, dtype=np.int64))
        self.node_sets: List[np.ndarray] = [base]
        self.operators: List = []
        self.row_positions: List[np.ndarray] = [np.arange(base.size)]
        while len(self.operators) < context.d - 1:
            current = self.node_sets[-1]
            if int(out_degrees[current].sum()) > budget:
                break
            sliced = transition[current]
            bigger = np.union1d(sliced.indices, base)
            self.operators.append(sliced[:, bigger])
            self.node_sets.append(bigger)
            self.row_positions.append(np.searchsorted(bigger, base))

    @property
    def depth(self) -> int:
        """Number of final steps the plan can serve."""
        return len(self.operators)


def _block_scores_at_rows(
    context: TwoWayContext,
    targets,
    rows: np.ndarray,
    tail: _RestrictedTail,
) -> np.ndarray:
    """Full-depth scores for a target block, evaluated at ``rows`` only.

    Degree-aware propagation in three phases, chosen adaptively:

    * **frontier head** — the forward frontier of step ``i`` covers
      ``O(deg^i)`` nodes, so the walk starts as the engine's frontier
      block and steps with its sparse x sparse product (cost
      proportional to the frontier, not ``|E_G| B``) for as long as
      :meth:`~repro.walks.engine.WalkEngine.frontier_pays` says so —
      the head, and the gate, that
      :class:`~repro.walks.state.WalkState` walks its early levels on.
    * **dense middle** — full-width CSR SpMM; the same
      :meth:`~repro.walks.engine.WalkEngine.backward_block_step`, handed
      the densified block.
    * **restricted tail** — the last steps only need mass on the
      *reverse* frontier of ``rows`` (see :class:`_RestrictedTail`), so
      they run on row-sliced submatrix operators.

    Hub-heavy graphs collapse to mostly-dense middles; bounded-degree
    graphs may never need a dense step at all.  The score prefix is
    accumulated only on the requested rows — no caller needs the
    intermediate full vectors.

    Agrees with the corresponding rows of
    :meth:`repro.walks.state.WalkState.scores_matrix` at full depth to
    within summation-order rounding (far below the 1e-12 test
    tolerance; the phases add the same products in different orders).
    Returns an ``(len(rows), B)`` array in the order of ``rows``.
    """
    engine, params = context.engine, context.params
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    width = targets.shape[0]
    base = tail.node_sets[0]  # sorted rows

    mass = engine.backward_onehot_step(targets)
    acc = params.decay * block_rows(mass, base)
    restricted = None
    spare = None  # the dense middle's second buffer (see WalkState)
    for i in range(2, context.d + 1):
        consume_level = context.d - i + 1  # tail level holding m_{i-1}
        if consume_level <= tail.depth:
            node_set = tail.node_sets[consume_level]
            if restricted is None:
                restricted = block_rows(mass, node_set)
                mass = None
            positions = np.searchsorted(node_set, targets)
            for column in range(width):
                pos = positions[column]
                if pos < node_set.size and node_set[pos] == targets[column]:
                    restricted[pos, column] = 0.0
            restricted = dense_step(tail.operators[consume_level - 1], restricted)
            engine.stats.add("propagation_steps", int(width))
            engine.stats.add("sparse_products", 1)
            acc += params.decay ** i * restricted[
                tail.row_positions[consume_level - 1], :
            ]
            continue
        if issparse(mass) and not engine.frontier_pays(mass):
            mass = dense_block(mass)
        spent = mass
        mass = engine.backward_block_step(spent, targets, first=False, out=spare)
        if not issparse(spent):
            spare = spent
        acc += params.decay ** i * block_rows(mass, base)
    scores = params.alpha * acc + params.beta
    governor = engine.governor
    if governor is not None and governor.validate_walks:
        # This path has no WalkState (whose advance validates for us), so
        # guard the accumulated scores before they reach any result list.
        if not np.isfinite(scores).all():
            raise CorruptedWalkError(
                "non-finite block scores detected in restricted-row scoring"
            )
    return scores[np.searchsorted(base, rows), :]


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
    — but walks every ``q`` to full depth regardless of ``k``.  Targets
    are propagated in blocks of ``block_size`` columns (one sparse-dense
    product per step per block; a width of 1 is a block like any
    other).  A byte budget (``QueryBudget.max_bytes``) on the calling
    thread clamps the block width when the join runs, so each
    propagated block's buffers stay under it on both scorers, same
    per-block semantics as ``B-IDJ``'s chunked rounds.

    A measure changes only the scorer, :meth:`_score_block`, which
    reads it off the context.
    """

    name = "B-BJ"

    def __init__(
        self, context: TwoWayContext, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> None:
        if block_size < 1:
            raise GraphValidationError(
                f"block_size must be >= 1, got {block_size}"
            )
        self._ctx = context
        self._block_size = block_size
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
            width = self._block_size if cap is None else min(self._block_size, cap)
            if ctx.walk_cache is None and ctx.measure is None:
                # The restricted-tail plan is Eq. 5's first-hit algebra.
                self._score_lean(blocks, width)
            else:
                self._score_blocks(blocks, width)
            return blocks

    def _score_block(self, targets: List[int]) -> Iterable[np.ndarray]:
        """Full-depth score vectors of one target block, in order —
        full-width because :meth:`_score_blocks` donates them (a DHT
        context only gets here with a walk cache).  A matrix-backed
        measure (no kernel) gathers them from its iterates."""
        ctx = self._ctx
        if ctx.kernel is None:
            return ctx.measure.backward_scores_block(ctx.engine, targets, ctx.d).T
        state = WalkState(ctx.engine, ctx.kernel, targets).advance_to(ctx.d)
        return map(state.score_column, range(len(targets)))

    def _rewalking(self, score, *args):
        """``score(*args)``, re-run a bounded number of times when the
        walk-state validation detects a corrupted block."""
        for attempt in range(REWALK_ATTEMPTS):
            try:
                return score(*args)
            except CorruptedWalkError:
                self._ctx.engine.stats.add("degradations", 1)
                if attempt == REWALK_ATTEMPTS - 1:
                    raise
        raise AssertionError("unreachable")

    def _score_lean(self, blocks: List[LeftBlock], width: int) -> None:
        """Batched scoring with the accumulator restricted to ``P``.

        Without a cache to feed, only the left rows of each score vector
        are ever read, so the ``lambda^i P_i`` prefix is accumulated on
        an ``(|P|, B)`` slice instead of the full ``(n, B)`` block — the
        propagation itself still needs full vectors, but the accumulator
        traffic drops by ``n / |P|``.
        """
        ctx = self._ctx
        left = ctx.left_array
        tail = ctx.bound_cache.tail_plan(
            ctx.left, ctx.d, lambda: _RestrictedTail(ctx, left)
        )
        for start in range(0, len(ctx.right), width):
            chunk = ctx.right[start : start + width]
            blocks.append((chunk, self._rewalking(
                _block_scores_at_rows, ctx, chunk, left, tail
            )))

    def _score_blocks(self, blocks: List[LeftBlock], width: int) -> None:
        """Batched scoring through the shared walk cache (when there is
        one).

        Cache hits (targets walked by an earlier join or query edge)
        read the ``|P|`` left entries of the cached vectors; misses are
        walked one block at a time and donated back for the next join,
        so peak memory stays ``O(n * width)`` regardless of ``|Q|``.
        Each triage window is as wide as the pending block has room, so
        no lookup ever runs after a donation it could have preceded.
        """
        ctx = self._ctx
        cache = ctx.walk_cache
        left = ctx.left_array
        pending: List[int] = []

        def flush() -> None:
            vectors = list(self._rewalking(self._score_block, pending))
            if cache is not None:
                cache.put_block(pending, ctx.d, vectors)
            blocks.append(
                (list(pending), np.array([v[left] for v in vectors]).T)
            )
            pending.clear()

        start = 0
        while start < len(ctx.right):  # validated sets carry no duplicates
            window = ctx.right[start : start + width - len(pending)]
            start += len(window)
            hits, hit_block, missed = triage(
                ctx.engine, cache, window, ctx.d, left
            )
            if hits:
                blocks.append((hits, hit_block))
            pending.extend(missed)
            if len(pending) == width:
                flush()
        if pending:
            flush()

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
    ``F-IDJ`` runs at the same depth share one table.  A measure's ``X``
    is its closed-form ``tail_bound``, uncached.
    """
    if context.measure is not None:
        return ClosedFormTail(context.measure)
    return context.bound_cache.x_bound(
        context.d, lambda: XBound(context.params, context.d)
    )


def y_bound_factory(context: TwoWayContext) -> ScoreUpperBound:
    """``U_l^+ = Y_l^+(P, q)`` (Theorem 1) — the ``B-IDJ-Y`` configuration.

    Construction runs a one-off ``O(d |E_G|)`` reach-mass propagation
    from all of ``P``, served through the context's
    :class:`~repro.bounds_cache.BoundPlanCache`: repeated joins over the
    same inputs (``PJ``'s restart refills) and sibling query edges that
    agree on the left set (every edge of a star spec, repeated sets of a
    clique spec — they share one cache via their
    :class:`~repro.core.nway.spec.NWayJoinSpec`) reuse the bound instead
    of re-propagating.  A measure without ``tail_weight`` (SimRank)
    gets its closed-form ``tail_bound``, uncached.
    """
    measure = context.measure
    if measure is not None and getattr(measure, "tail_weight", None) is None:
        return ClosedFormTail(measure)

    def build() -> YBound:
        if measure is None:
            weights = dht_tail_weights(context.params, context.d)
        else:
            weights = [measure.tail_weight(i) for i in range(1, context.d + 1)]
        return YBound(context.engine, weights, context.left, context.d)

    return context.bound_cache.y_bound(context.left, context.d, build)


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
    :class:`~repro.walks.rounds.DeepeningRounds` over the context's
    :attr:`~repro.core.two_way.base.TwoWayContext.kernel`, so the same
    loop runs under DHT and under any kernel measure; a kernel-less
    measure runs :class:`~repro.walks.rounds.MatrixRounds` instead (see
    :meth:`_rounds`).

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

    def _rounds(self):
        """The walk plan of one run: ``walk_level`` / ``donate_pruned``
        / ``repack`` over the context's kernel (or, without one, the
        measure's iterates) and cache, under this thread's byte budget."""
        ctx = self._ctx
        if ctx.kernel is None:
            return MatrixRounds(ctx.engine, ctx.measure, ctx.walk_cache)
        return DeepeningRounds(ctx.engine, ctx.kernel, ctx.walk_cache)

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
        rounds = self._rounds()  # widths planned before any walk
        bound = self._bound_factory(ctx)
        left = ctx.left_array
        zero = ctx.floor
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
                tails = np.array([bound.tail(level, q) for q in active])
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

            rounds.walk_level(active, ctx.d, left, emit)
        return ctx.top_pairs(blocks, k)


class BackwardIDJX(BackwardIDJ):
    """``B-IDJ-X``: Algorithm 2 with the closed-form ``X_l^+`` bound."""

    name = "B-IDJ-X"

    def __init__(
        self, context: TwoWayContext, observer: Optional[WalkObserver] = None
    ) -> None:
        super().__init__(context, x_bound_factory, observer=observer)


class BackwardIDJY(BackwardIDJ):
    """``B-IDJ-Y``: Algorithm 2 with the reach-mass ``Y_l^+`` bound.

    The tighter bound (Lemma 5) prunes earlier; the paper selects this
    variant inside ``PJ``/``PJ-i``.
    """

    name = "B-IDJ-Y"

    def __init__(
        self, context: TwoWayContext, observer: Optional[WalkObserver] = None
    ) -> None:
        super().__init__(context, y_bound_factory, observer=observer)
