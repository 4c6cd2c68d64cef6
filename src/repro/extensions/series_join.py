"""Measure-generic 2-way and n-way joins over any :class:`SeriesMeasure`.

This realises the paper's future-work plan (Section VIII) on the full
production stack: the backward basic join and the iterative-deepening
join need only batched backward scoring and a tail bound from a
measure, and the n-way strategies (``AP``-style materialisation,
``PJ``-style top-``m`` prefixes with restart refills) feed the same
PBRJ rank join the DHT algorithms use.

There is one backward two-way stack, not two.  :class:`SeriesBackwardJoin`
and :class:`SeriesIDJ` are ``B-BJ`` / ``B-IDJ``
(:mod:`repro.core.two_way.backward`) *bound to a measure*: they build the
measure context and supply the three things that genuinely differ —

* **the scorer** — :meth:`SeriesMeasure.backward_scores_block` (one
  sparse-dense product per step for kernel measures, memoised matrix
  gathers for SimRank) and, at ``block_size=1``, the per-target oracle
  :meth:`SeriesMeasure.backward_scores`;
* **the bound** — :func:`series_bound`: the reach-mass
  :class:`~repro.extensions.measures.SeriesYBound` through the bound
  cache, or the measure's closed form;
* **the rounds**, for matrix-backed measures only — :class:`_MatrixRounds`
  in place of :class:`~repro.walks.rounds.DeepeningRounds`, which every
  kernel measure runs on unchanged (resumable blocks, walk-cache
  donation and spill, ``max_block_bytes`` chunking); both triage and
  donate per group of targets through the same two cache calls.

Contexts carry the same :class:`~repro.walks.cache.WalkCache` /
:class:`~repro.bounds_cache.BoundPlanCache` pair as DHT joins, keyed by
the *measure* (``measure.cache_key()``), so an
:class:`~repro.core.nway.spec.NWayJoinSpec` built with a measure shares
walks and reach-mass tail bounds across all its query edges — and a PPR
spec can never touch a DHT spec's entries.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.nway.candidates import CandidateAnswer
from repro.core.nway.driver import NWayDriver
from repro.core.nway.spec import NWayJoinSpec
from repro.core.two_way.backward import (
    DEFAULT_BLOCK_SIZE,
    BackwardBasicJoin,
    BackwardIDJ,
)
from repro.core.two_way.base import ScoredPair, TwoWayContext, top_k_pairs
from repro.exec.budget import MemoryBudgetExceeded
from repro.extensions.measures import SeriesMeasure, SeriesYBound
from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine
from repro.walks.rounds import columns_for_budget, triage

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


def series_bound(context: TwoWayContext):
    """The measure's reach-mass :class:`SeriesYBound` when it defines
    ``tail_weight`` (through the bound cache, keyed by ``(P, d)`` —
    shared by every edge with the same left set), else its closed-form
    ``tail_bound`` (SimRank)."""
    measure = context.measure
    if getattr(measure, "tail_weight", None) is not None:
        return context.bound_cache.y_bound(
            context.left,
            measure.d,
            lambda: SeriesYBound(context.engine, measure, context.left, measure.d),
        )
    return _ClosedFormTail(measure)


class _MatrixRounds:
    """The deepening rounds of a matrix-backed measure (``kernel() is
    None``), with :class:`~repro.walks.rounds.DeepeningRounds`'
    interface.

    There is nothing to resume in walk space: a level is a batched
    gather from the measure's memoised iterates, which the measure
    itself resumes.  A byte ceiling only clamps the gather width — the
    iterate's dense ``O(n^2)`` memory lives in the measure, outside the
    walk layer's budget — and only score vectors reach the walk cache.
    """

    def __init__(self, context: TwoWayContext) -> None:
        self._ctx = context
        self._max_cols: Optional[int] = None
        if context.max_block_bytes is not None:
            self._max_cols = columns_for_budget(
                context.max_block_bytes, context.engine.num_nodes
            )

    def walk_level(
        self, active: Sequence[int], level: int, rows: np.ndarray, consume
    ) -> None:
        """Feed every active target's ``level`` scores at node ids
        ``rows`` to ``consume(targets, block)``: the cached targets as
        one block, the rest gathered in chunks under the byte ceiling."""
        ctx = self._ctx
        engine, cache, measure = ctx.engine, ctx.walk_cache, ctx.measure
        hits, hit_block, pending = triage(engine, cache, active, level, rows)
        if hits:
            consume(hits, hit_block)
        while pending:
            width = len(pending) if self._max_cols is None else self._max_cols
            group = pending[: max(width, 1)]
            try:
                engine.checkpoint("round")
                block = measure.backward_scores_block(engine, group, level)
            except (MemoryError, MemoryBudgetExceeded):
                # Adaptive backoff, the matrix-measure twin of the
                # rounds-layer split: halve the gather width and retry;
                # a single-column failure is genuine exhaustion.
                if len(group) == 1:
                    raise
                half = max(1, len(group) // 2)
                engine.stats.add("alloc_retries", 1)
                engine.stats.add("degradations", 1)
                if self._max_cols is None or half < self._max_cols:
                    self._max_cols = half
                continue
            if cache is not None:
                cache.put_block(group, level, block.T)
            consume(group, block[rows])
            del pending[: len(group)]

    def donate_pruned(self, pruned) -> None:
        """Nothing to donate: the iterates are the resumable state."""

    def repack(self, survivors: set, level: int) -> None:
        """Nothing to repack: no walk block is retained across levels."""


class _MeasureBinding:
    """What both bindings add to their core operator's face."""

    @classmethod
    def from_context(
        cls, context: TwoWayContext, block_size: int = DEFAULT_BLOCK_SIZE
    ):
        """Build over an existing measure context's inputs, engine and
        caches (e.g. a spec's edge)."""
        if context.measure is None:
            raise GraphValidationError(
                "series joins need a measure context (TwoWayContext.measure)"
            )
        return cls(
            context.graph, context.measure, context.left, context.right,
            engine=context.engine, walk_cache=context.walk_cache,
            bound_cache=context.bound_cache, block_size=block_size,
            max_block_bytes=context.max_block_bytes,
        )


class SeriesBackwardJoin(_MeasureBinding, BackwardBasicJoin):
    """``B-BJ`` bound to a :class:`SeriesMeasure`: the loop, the cache
    traffic and the corrupted-block retry are
    :class:`~repro.core.two_way.backward.BackwardBasicJoin`'s; the
    measure supplies the scorers (which is what hides SimRank's matrix
    iterates).

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
        rounds.
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
        super().__init__(
            make_series_context(
                graph, measure, left, right,
                engine=engine, walk_cache=walk_cache, bound_cache=bound_cache,
                max_block_bytes=max_block_bytes,
            ),
            block_size,
        )

    def _score_target(self, q: int) -> np.ndarray:
        ctx = self._ctx
        return ctx.measure.backward_scores(ctx.engine, q, ctx.d)

    def _score_block(self, targets: List[int]) -> np.ndarray:
        ctx = self._ctx
        return ctx.measure.backward_scores_block(ctx.engine, targets, ctx.d).T

    def top_k(self, k: int) -> List[ScoredPair]:
        """Top-``k`` pairs by exhaustive backward scoring."""
        return super().top_k(k)


class SeriesIDJ(_MeasureBinding, BackwardIDJ):
    """``B-IDJ`` bound to a :class:`SeriesMeasure`: Algorithm 2's
    deepening loop is :class:`~repro.core.two_way.backward.BackwardIDJ`'s
    — resumable doubling walks on the measure's
    :class:`~repro.walks.kernels.BlockKernel`, walk-cache donation and
    resume, the bounded-memory chunked rounds under ``max_block_bytes``
    — and the measure supplies the bound (:func:`series_bound`) and, when
    it has no kernel, the rounds (:class:`_MatrixRounds`).

    Constructor arguments as for :class:`SeriesBackwardJoin`
    (``block_size`` is accepted for symmetry; deepening rounds are
    full-width or byte-ceilinged, never block-sized).
    """

    name = "Series-IDJ"

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
        super().__init__(
            make_series_context(
                graph, measure, left, right,
                engine=engine, walk_cache=walk_cache, bound_cache=bound_cache,
                max_block_bytes=max_block_bytes,
            ),
            series_bound,
        )

    def _rounds(self):
        if self._ctx.kernel is None:
            return _MatrixRounds(self._ctx)
        return super()._rounds()

    def top_k(self, k: int) -> List[ScoredPair]:
        """Top-``k`` pairs with iterative-deepening pruning on ``Q``."""
        return super().top_k(k)

    def top_k_reference(self, k: int) -> List[ScoredPair]:
        """The seed implementation: per-target walks, restarted per level,
        closed-form tails.  Kept verbatim as the equivalence oracle;
        bypasses the walk and bound caches."""
        if k < 0:
            raise GraphValidationError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        ctx, measure = self._ctx, self._ctx.measure
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
            pairs.extend(ctx.pairs_for_target(scores[ctx.left_array], q))
        return top_k_pairs(pairs, k)


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

