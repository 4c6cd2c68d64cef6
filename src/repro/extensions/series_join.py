"""Measure-generic 2-way and n-way joins over any :class:`SeriesMeasure`.

This realises the paper's future-work plan (Section VIII) on the full
production stack — and there is nothing measure-specific left to write
here.  A measure is a field of the one
:class:`~repro.core.two_way.base.TwoWayContext` /
:class:`~repro.core.nway.spec.NWayJoinSpec`
(``make_context(..., measure=...)``), and the core operators read the
three pieces that genuinely differ off it:

* **the scorer** — ``B-BJ`` walks a ``WalkState`` over the measure's
  kernel and gathers a matrix-backed measure's blocks from
  :meth:`SeriesMeasure.backward_scores_block`;
* **the bound** — ``y_bound_factory``: the reach-mass
  :class:`~repro.core.bounds.YBound` over the measure's ``tail_weight``
  through the bound cache, or its closed form;
* **the rounds** — :class:`~repro.walks.rounds.DeepeningRounds` for
  every kernel measure, :class:`~repro.walks.rounds.MatrixRounds` when
  ``kernel() is None``.

``AP`` / ``PJ`` / ``PJ-i`` run measure specs through the driver's
strategy table.  The classes below are those operators and executors
under their measure names, kept as the boundaries the benchmark's layer
attribution wraps.
"""

from __future__ import annotations

from typing import List

from repro.core.nway.candidates import CandidateAnswer
from repro.core.nway.partial_join import PartialJoin
from repro.core.two_way.backward import BackwardBasicJoin, BackwardIDJY
from repro.core.two_way.base import ScoredPair


class SeriesBackwardJoin(BackwardBasicJoin):
    """``B-BJ`` on a measure context: ``SeriesBackwardJoin(context)``."""

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


class SeriesPartialJoin(PartialJoin):
    """``PJ`` on a measure spec: ``SeriesPartialJoin(spec, m, ...)``."""

    name = "Series-PJ"

    def run(self) -> List[CandidateAnswer]:
        """Execute the partial join and return the top-``k`` answers."""
        return super().run()
