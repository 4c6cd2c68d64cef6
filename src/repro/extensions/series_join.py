"""Measure-generic 2-way and n-way joins over any :class:`SeriesMeasure`.

This realises the paper's future-work plan (Section VIII) on the full
production stack: the backward basic join and the iterative-deepening
join are measure-agnostic — they need batched backward scoring and a
tail bound — and the n-way strategies (``AP``-style materialisation,
``PJ``-style top-``m`` prefixes with restart refills) feed the same
PBRJ rank join the DHT algorithms use.

The machinery mirrors the DHT path layer by layer:

* **Batched blocks** — every walking round goes through
  :meth:`SeriesMeasure.backward_scores_block` (one sparse-dense product
  per step for kernel measures, memoised matrix gathers for SimRank);
  ``block_size=1`` selects the per-target oracle path, kept as the
  equivalence baseline exactly like ``B-BJ``'s.
* **Resumable states** — :class:`SeriesIDJ` keeps one
  :class:`~repro.walks.state.WalkState` block across doubling levels
  (extend, don't restart), with the measure's
  :class:`~repro.walks.kernels.BlockKernel` supplying the per-step
  algebra; :meth:`SeriesIDJ.top_k_reference` keeps the seed
  restart-per-level implementation as the oracle.  The rounds run on
  the shared :class:`~repro.walks.rounds.DeepeningRounds` machinery,
  so a ``max_block_bytes`` ceiling buys the same bounded-memory
  chunked rounds (and walk-cache spill of overflow survivors) as the
  DHT ``B-IDJ``.
* **Shared caches** — contexts carry the same
  :class:`~repro.walks.cache.WalkCache` /
  :class:`~repro.bounds_cache.BoundPlanCache` pair as DHT joins, keyed
  by the *measure* (``measure.cache_key()``), so an
  :class:`~repro.core.nway.spec.NWayJoinSpec` built with a measure
  shares walks and reach-mass tail bounds across all its query edges —
  and a PPR spec can never touch a DHT spec's entries.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.nway.candidates import CandidateAnswer
from repro.core.nway.driver import NWayDriver
from repro.core.nway.spec import NWayJoinSpec
from repro.core.two_way.backward import DEFAULT_BLOCK_SIZE
from repro.exec.budget import MemoryBudgetExceeded
from repro.core.two_way.base import (
    BoundedTopK,
    ScoredPair,
    TwoWayContext,
    top_k_pairs,
)
from repro.extensions.measures import SeriesMeasure, SeriesYBound
from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine
from repro.walks.rounds import DeepeningRounds, columns_for_budget

from repro.bounds_cache import BoundPlanCache


def make_series_context(
    graph: Graph,
    measure: SeriesMeasure,
    left: Sequence[int],
    right: Sequence[int],
    engine: Optional[WalkEngine] = None,
    walk_cache: Optional[WalkCache] = None,
    bound_cache: Optional[BoundPlanCache] = None,
    max_block_bytes: Optional[int] = None,
) -> TwoWayContext:
    """A validated measure context (``d = measure.d``, caches keyed by
    the measure's :meth:`cache_key`, optional resumable-block byte
    ceiling — see :class:`~repro.core.two_way.base.TwoWayContext`)."""
    return TwoWayContext(
        graph=graph,
        params=None,
        left=list(left),
        right=list(right),
        d=measure.d,
        engine=engine,
        walk_cache=walk_cache,
        bound_cache=bound_cache,
        max_block_bytes=max_block_bytes,
        measure=measure,
    )


class _ClosedFormTail:
    """Data-independent tail: the measure's ``X``-style closed form."""

    name = "Series-X"

    def __init__(self, measure: SeriesMeasure) -> None:
        self._measure = measure

    def tail(self, l: int, q: int = -1) -> float:
        return self._measure.tail_bound(l)


class SeriesBackwardJoin:
    """``B-BJ`` generalised: batched backward blocks, one pass per target.

    Parameters
    ----------
    graph / measure / left / right:
        The join inputs; ``measure`` is any :class:`SeriesMeasure`.
    engine / walk_cache / bound_cache:
        Optional shared infrastructure (the caches must be keyed by this
        measure's :meth:`cache_key`; pass a spec's caches to share
        across query edges).
    block_size:
        Targets per propagated block.  ``1`` selects the per-target
        oracle path (:meth:`SeriesMeasure.backward_scores`), kept as the
        equivalence baseline and benchmark reference.
    max_block_bytes:
        Optional resumable-block byte ceiling forwarded to the context
        (16 bytes per node per column).  Clamps this join's block width
        and switches :class:`SeriesIDJ` to bounded-memory chunked
        rounds, exactly like the DHT ``B-IDJ``.
    """

    name = "Series-B-BJ"

    def __init__(
        self,
        graph: Graph,
        measure: SeriesMeasure,
        left: Sequence[int],
        right: Sequence[int],
        engine: Optional[WalkEngine] = None,
        walk_cache: Optional[WalkCache] = None,
        bound_cache: Optional[BoundPlanCache] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_block_bytes: Optional[int] = None,
    ) -> None:
        self._bind(
            make_series_context(
                graph, measure, left, right,
                engine=engine, walk_cache=walk_cache, bound_cache=bound_cache,
                max_block_bytes=max_block_bytes,
            ),
            block_size,
        )

    @classmethod
    def from_context(
        cls, context: TwoWayContext, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> "SeriesBackwardJoin":
        """Build from an existing measure context (e.g. a spec's edge)."""
        join = cls.__new__(cls)
        join._bind(context, block_size)
        return join

    def _bind(self, context: TwoWayContext, block_size: int) -> None:
        if context.measure is None:
            raise GraphValidationError(
                "series joins need a measure context (TwoWayContext.measure)"
            )
        if block_size < 1:
            raise GraphValidationError(
                f"block_size must be >= 1, got {block_size}"
            )
        if context.max_block_bytes is not None:
            # Same per-block semantics as B-BJ: clamp the propagated
            # block's width so its buffers stay under the ceiling.
            cap = columns_for_budget(
                context.max_block_bytes, context.engine.num_nodes
            )
            block_size = min(block_size, cap)
        self._ctx = context
        self._measure: SeriesMeasure = context.measure
        self._block_size = block_size
        self.pruning_trace: List[dict] = []
        # Best-effort progress for the execution governor: the pairs
        # scored so far (basic join) and the last fully-gathered
        # deepening round (IDJ) — see repro.exec.governed.
        self.partial_pairs: Optional[List[ScoredPair]] = None
        self.budget_snapshot: Optional[dict] = None

    @property
    def context(self) -> TwoWayContext:
        """The validated join inputs."""
        return self._ctx

    def all_pairs(self) -> List[ScoredPair]:
        """Score every candidate pair (unsorted)."""
        with self._ctx.engine.trace_span(
            "join", self.name, targets=len(self._ctx.right)
        ):
            return self._all_pairs()

    def _all_pairs(self) -> List[ScoredPair]:
        ctx, measure = self._ctx, self._measure
        if self._block_size == 1:
            pairs: List[ScoredPair] = []
            self.partial_pairs = pairs
            for q in ctx.right:
                scores = measure.backward_scores(ctx.engine, q, measure.d)
                pairs.extend(ctx.pairs_for_target(scores, q))
            return pairs
        cache = ctx.walk_cache
        pairs = []
        self.partial_pairs = pairs
        pending: List[int] = []

        def flush() -> None:
            block = measure.backward_scores_block(ctx.engine, pending, measure.d)
            for j, q in enumerate(pending):
                vector = block[:, j]
                if cache is not None:
                    cache.put_scores(q, measure.d, vector)
                pairs.extend(ctx.pairs_for_target(vector, q))
            pending.clear()

        for q in ctx.right:
            ctx.engine.checkpoint("cache")
            if cache is not None:
                cached = cache.peek(q, measure.d)
                if cached is not None:
                    pairs.extend(ctx.pairs_for_target(cached, q))
                    continue
            pending.append(q)
            if len(pending) == self._block_size:
                flush()
        if pending:
            flush()
        return pairs

    def top_k(self, k: int) -> List[ScoredPair]:
        """Top-``k`` pairs by exhaustive backward scoring."""
        if k == 0:
            return []
        return top_k_pairs(self.all_pairs(), k)


class SeriesIDJ(SeriesBackwardJoin):
    """``B-IDJ`` generalised: resumable doubling walks + tail pruning.

    Kernel measures run on the shared
    :class:`~repro.walks.rounds.DeepeningRounds` machinery — the exact
    plan the DHT ``B-IDJ`` runs: one resumable
    :class:`~repro.walks.state.WalkState` block carries all active
    targets across doubling levels (level ``2l`` extends level ``l``,
    the same ``~2d -> d`` column-step saving), walked levels are donated
    to the walk cache (``put_scores``) and pruned targets hand over
    their resumable column (``adopt``), so restart refills and sibling
    edges resume instead of re-walking.

    With ``max_block_bytes`` on the context, the same bounded-memory
    chunked rounds as ``B-IDJ`` apply: a byte-ceilinged resumable
    window, throwaway overflow chunks, survivor re-packing via
    :meth:`~repro.walks.state.WalkState.concat`, and the spill policy —
    overflow survivors donate their single-column states to the walk
    cache and are resumed from it at the next level (visible as
    ``extensions`` / ``steps_saved``), instead of restarting.  Outputs
    and pruning traces are bit-identical to the unbounded mode.

    The upper bound is the measure's reach-mass
    :class:`~repro.extensions.measures.SeriesYBound` when the measure
    defines ``tail_weight`` (served through the context's bound cache,
    keyed by ``(P, d)`` — shared by every edge with the same left set),
    falling back to the closed-form ``tail_bound`` otherwise (SimRank).

    Matrix-backed measures (``kernel() is None``) have nothing to
    resume in walk space; their levels are batched gathers from the
    measure's memoised iterates, which the measure itself resumes.  A
    byte ceiling only clamps the gather width there — the iterate's
    dense ``O(n^2)`` memory lives in the measure, outside the walk
    layer's budget.
    """

    name = "Series-IDJ"

    def top_k(self, k: int) -> List[ScoredPair]:
        if k < 0:
            raise GraphValidationError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        with self._ctx.engine.trace_span(
            "join", self.name, k=k, targets=len(self._ctx.right)
        ):
            return self._top_k(k)

    def _top_k(self, k: int) -> List[ScoredPair]:
        ctx, measure = self._ctx, self._measure
        engine, cache = ctx.engine, ctx.walk_cache
        kern = measure.kernel()
        bound = self._make_bound()
        left = ctx.left_array
        floor_value = measure.floor
        self.pruning_trace = []
        self.budget_snapshot = None

        active: List[int] = list(ctx.right)
        rounds: Optional[DeepeningRounds] = None
        max_cols: Optional[int] = None
        if kern is not None:
            rounds = DeepeningRounds(engine, kern, cache, ctx.max_block_bytes)
        elif ctx.max_block_bytes is not None:
            max_cols = columns_for_budget(ctx.max_block_bytes, engine.num_nodes)

        def walk_level(level: int, consume) -> None:
            """Feed every active target's ``level`` score vector to
            ``consume(q, vector)``.

            Kernel measures delegate to the shared deepening-rounds
            machinery (cache peek, resumable window, spill resume,
            bounded chunks).  Matrix-backed measures gather from the
            memoised iterate, chunked under the byte ceiling.
            """
            nonlocal max_cols
            if rounds is not None:
                rounds.walk_level(active, level, consume)
                return
            pending: List[int] = []
            for q in active:
                engine.checkpoint("cache")
                if cache is not None:
                    cached = cache.peek(q, level)
                    if cached is not None:
                        consume(q, cached)
                        continue
                pending.append(q)
            while pending:
                width = len(pending) if max_cols is None else max_cols
                group = pending[: max(width, 1)]
                try:
                    engine.checkpoint("round")
                    block = measure.backward_scores_block(engine, group, level)
                except (MemoryError, MemoryBudgetExceeded):
                    # Adaptive backoff, the matrix-measure twin of the
                    # rounds-layer split: halve the gather width and
                    # retry; a single-column failure is genuine
                    # exhaustion.
                    if len(group) == 1:
                        raise
                    half = max(1, len(group) // 2)
                    engine.stats.add("alloc_retries", 1)
                    engine.stats.add("degradations", 1)
                    if max_cols is None or half < max_cols:
                        max_cols = half
                    continue
                for j, q in enumerate(group):
                    vector = block[:, j]
                    if cache is not None:
                        cache.put_scores(q, level, vector)
                    consume(q, vector)
                del pending[: len(group)]

        level = 1
        while level < measure.d:
            with engine.trace_span(
                "level", level=level, active=len(active)
            ) as level_span:
                engine.checkpoint("round")
                width = len(active)
                targets_arr = np.asarray(active, dtype=np.int64)
                tails = np.array([bound.tail(level, q) for q in active])
                column_of = {q: j for j, q in enumerate(active)}
                left_scores = np.empty((left.size, width), dtype=np.float64)

                def gather(q, vector, column_of=column_of,
                           left_scores=left_scores):
                    left_scores[:, column_of[q]] = vector[left]

                walk_level(level, gather)
                # Every column of this round gathered: h_level is a
                # monotone lower bound and tail(level) a sound upper
                # increment, so a budget stop after this point can emit
                # flagged-partial results with oracle-containing
                # intervals.
                self.budget_snapshot = {
                    "level": level,
                    "targets": list(active),
                    "left": list(ctx.left),
                    "left_scores": left_scores,
                    "tails": tails,
                }
                valid = left[:, None] != targets_arr[None, :]
                floor_acc = BoundedTopK(k)
                # Only informative lower bounds (a nonzero statistic
                # within `level` steps) enter the floor, mirroring
                # Algorithm 2.
                floor_acc.push(left_scores[valid & (left_scores > floor_value)])
                best = np.where(valid, left_scores, -np.inf).max(axis=0)
                best = np.maximum(best, floor_value)
                t_k = floor_acc.kth_largest()
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
                if rounds is not None:
                    rounds.donate_pruned(
                        q for q, flag in zip(active, keep) if not flag
                    )
                    rounds.repack(set(surviving), level)
                active = surviving
                level *= 2

        with engine.trace_span(
            "level", level=measure.d, active=len(active), final=True
        ):
            engine.checkpoint("round")
            pairs: List[ScoredPair] = []

            def emit(q, vector):
                pairs.extend(ctx.pairs_for_target(vector, q))

            walk_level(measure.d, emit)
        return top_k_pairs(pairs, k)

    def _make_bound(self):
        """Reach-mass tail through the bound cache, or the closed form."""
        ctx, measure = self._ctx, self._measure
        if getattr(measure, "tail_weight", None) is not None:
            return ctx.bound_cache.y_bound(
                ctx.left,
                measure.d,
                lambda: SeriesYBound(ctx.engine, measure, ctx.left, measure.d),
            )
        return _ClosedFormTail(measure)

    def top_k_reference(self, k: int) -> List[ScoredPair]:
        """The seed implementation: per-target walks, restarted per level,
        closed-form tails.  Kept verbatim as the equivalence oracle;
        bypasses the walk and bound caches."""
        if k < 0:
            raise GraphValidationError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        ctx, measure = self._ctx, self._measure
        active = list(ctx.right)
        level = 1
        while level < measure.d:
            lower_bounds: List[float] = []
            upper = {}
            for q in active:
                scores = measure.backward_scores(ctx.engine, q, level)
                tail = measure.tail_bound(level)
                best = measure.floor
                for p in ctx.left:
                    if p == q:
                        continue
                    score = float(scores[p])
                    if score > measure.floor:
                        lower_bounds.append(score)
                    if score > best:
                        best = score
                upper[q] = best + tail
            if len(lower_bounds) >= k:
                threshold = sorted(lower_bounds, reverse=True)[k - 1]
                active = [q for q in active if upper[q] >= threshold]
            level *= 2
        pairs: List[ScoredPair] = []
        for q in active:
            scores = measure.backward_scores(ctx.engine, q, measure.d)
            pairs.extend(ctx.pairs_for_target(scores, q))
        return top_k_pairs(pairs, k)


def series_two_way_join(
    graph: Graph,
    left: Sequence[int],
    right: Sequence[int],
    k: int,
    measure: SeriesMeasure,
    algorithm: str = "idj",
    engine: Optional[WalkEngine] = None,
    walk_cache: Optional[WalkCache] = None,
    bound_cache: Optional[BoundPlanCache] = None,
    max_block_bytes: Optional[int] = None,
) -> List[ScoredPair]:
    """Top-``k`` 2-way join under an arbitrary series measure.

    ``algorithm`` is ``"idj"`` (pruned, default) or ``"basic"``.
    ``max_block_bytes`` caps any single resumable walk block, switching
    the deepening join to bounded-memory chunked rounds (with walk-cache
    spill for overflow survivors) — identical output either way.
    """
    name = algorithm.lower()
    if name == "basic":
        cls = SeriesBackwardJoin
    elif name == "idj":
        cls = SeriesIDJ
    else:
        raise GraphValidationError(
            f"unknown series algorithm {algorithm!r}; use 'basic' or 'idj'"
        )
    join = cls(
        graph, measure, left, right,
        engine=engine, walk_cache=walk_cache, bound_cache=bound_cache,
        max_block_bytes=max_block_bytes,
    )
    return join.top_k(k)


def _require_measure(spec: NWayJoinSpec) -> None:
    if spec.measure is None:
        raise GraphValidationError(
            "series n-way joins need a measure spec (NWayJoinSpec.measure)"
        )


class SeriesAllPairsJoin(NWayDriver):
    """``AP`` generalised: full per-edge materialisation + PBRJ rank join.

    Every edge materialises through the batched
    :class:`SeriesBackwardJoin`; with the spec's shared walk cache,
    edges whose right sets overlap score repeated targets from memory.
    The loop is the shared :class:`~repro.core.nway.driver.NWayDriver`
    (materialised source); ``stats`` is the rank join's own record.
    """

    name = "Series-AP"

    def __init__(
        self,
        spec: NWayJoinSpec,
        block_size: int = DEFAULT_BLOCK_SIZE,
        plan=None,
    ) -> None:
        _require_measure(spec)
        # A caller's explicit block width beats the plan's knob.
        explicit = None if block_size == DEFAULT_BLOCK_SIZE else block_size
        super().__init__(spec, "ap", "basic", plan=plan, block_size=explicit)
        self.stats = None

    def run(self) -> List[CandidateAnswer]:
        """Materialise every edge's full join, then rank-join."""
        answers = super().run()
        self.stats = self.rank_join
        return answers


class SeriesPartialJoin(NWayDriver):
    """``PJ`` generalised: top-``m`` prefixes + PBRJ + restart refills.

    Per-edge prefixes come from :class:`SeriesIDJ` (the pruned
    algorithm), refills rerun it at ``m+1`` against the spec's shared
    caches — the measure-generic twin of
    :class:`repro.core.nway.partial_join.PartialJoin`, on the same
    :class:`~repro.core.nway.driver.NWayDriver` (restart source).
    Incremental F-structure refinement is a DHT-specific optimisation
    with no measure-generic counterpart yet, so ``"pj-i"`` under a
    measure runs this.
    """

    name = "Series-PJ"

    def __init__(self, spec: NWayJoinSpec, m: int = 50, plan=None) -> None:
        _require_measure(spec)
        super().__init__(spec, "pj", "idj", m=m, plan=plan)

    def run(self) -> List[CandidateAnswer]:
        """Execute the partial join and return the top-``k`` answers."""
        return super().run()

