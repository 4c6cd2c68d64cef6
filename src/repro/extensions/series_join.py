"""Measure-generic 2-way and n-way joins over any :class:`SeriesMeasure`.

This realises the paper's future-work plan (Section VIII) on the full
production stack — and there is nothing measure-specific left to write
here.  A measure is a field of the one
:class:`~repro.core.two_way.base.TwoWayContext` /
:class:`~repro.core.nway.spec.NWayJoinSpec`
(``make_context(..., measure=...)``), and the core operators read the
three pieces that genuinely differ off it:

* **the scorer** — ``B-BJ`` walks a ``WalkState`` over the measure's
  kernel, gathers a matrix-backed measure's blocks from
  :meth:`SeriesMeasure.backward_scores_block`, and at ``block_size=1``
  runs the per-target oracle :meth:`SeriesMeasure.backward_scores`;
* **the bound** — ``y_bound_factory``: the reach-mass
  :class:`~repro.core.bounds.YBound` over the measure's ``tail_weight``
  through the bound cache, or its closed form;
* **the rounds** — :class:`~repro.walks.rounds.DeepeningRounds` for
  every kernel measure, :class:`~repro.walks.rounds.MatrixRounds` when
  ``kernel() is None``.

``AP`` / ``PJ`` / ``PJ-i`` run measure specs through the driver's
strategy table.  The classes below are those operators and executors
under their measure names, kept as the boundaries the benchmark's layer
attribution wraps plus the seed oracle
:meth:`SeriesIDJ.top_k_reference`.
"""

from __future__ import annotations

from typing import List

from repro.core.nway.all_pairs import AllPairsJoin
from repro.core.nway.candidates import CandidateAnswer
from repro.core.nway.partial_join import PartialJoin
from repro.core.nway.spec import NWayJoinSpec
from repro.core.two_way.backward import (
    DEFAULT_BLOCK_SIZE,
    BackwardBasicJoin,
    BackwardIDJY,
)
from repro.core.two_way.base import ScoredPair, top_k_pairs
from repro.graph.validation import GraphValidationError


class SeriesBackwardJoin(BackwardBasicJoin):
    """``B-BJ`` on a measure context: ``SeriesBackwardJoin(context,
    block_size)``, with ``block_size=1`` the per-target oracle path
    (:meth:`SeriesMeasure.backward_scores`)."""

    name = "Series-B-BJ"

    def top_k(self, k: int) -> List[ScoredPair]:
        """Top-``k`` pairs by exhaustive backward scoring."""
        return super().top_k(k)


class SeriesIDJ(BackwardIDJY):
    """``B-IDJ`` on a measure context, with the measure's bound:
    ``SeriesIDJ(context, observer=None)``."""

    name = "Series-IDJ"

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


class SeriesAllPairsJoin(AllPairsJoin):
    """``AP`` materialised with ``B-BJ`` (``basic`` under a measure);
    ``block_size`` is an explicit width that beats the plan's knob
    (``1``: the per-target oracle)."""

    name = "Series-AP"

    def __init__(
        self,
        spec: NWayJoinSpec,
        block_size: int = DEFAULT_BLOCK_SIZE,
        plan=None,
    ) -> None:
        super().__init__(spec, two_way="b-bj", plan=plan)
        if block_size != DEFAULT_BLOCK_SIZE:
            self._block_size = block_size


class SeriesPartialJoin(PartialJoin):
    """``PJ`` on a measure spec: ``SeriesPartialJoin(spec, m, ...)``."""

    name = "Series-PJ"

    def run(self) -> List[CandidateAnswer]:
        """Execute the partial join and return the top-``k`` answers."""
        return super().run()
