"""Forward-processing 2-way joins: ``F-BJ`` and ``F-IDJ`` (Section V-B).

Forward processing computes ``h_d(p, q)`` by propagating walker mass from
``p`` towards ``q``; one propagation serves a *single* pair, which is why
both algorithms cost ``O(|P| |Q| d |E_G|)`` in the worst case and why the
backward algorithms of Section VI beat them by a factor of ``|P|``.
Per-pair absorbing walks are DHT's kernel, so both read the context
measure's ``params`` (a :class:`~repro.core.dht.DHTMeasure`'s).
"""

from __future__ import annotations

from typing import List

from repro.core.two_way.backward import x_bound_factory
from repro.core.two_way.base import (
    ScoredPair,
    TwoWayContext,
    kth_largest,
    top_k_pairs,
)
from repro.graph.validation import GraphValidationError


class ForwardBasicJoin:
    """``F-BJ``: exhaustive per-pair forward computation.

    For every pair ``(p, q)`` runs a ``d``-step forward propagation with
    ``q`` absorbing and scores the resulting hit series (the approach of
    [8], adapted to the general DHT form).  No pruning; this is the
    baseline the paper uses inside ``AP``.
    """

    name = "F-BJ"

    def __init__(self, context: TwoWayContext) -> None:
        self._ctx = context

    def all_pairs(self) -> List[ScoredPair]:
        """Score every candidate pair (unsorted)."""
        ctx = self._ctx
        params = ctx.measure.params
        pairs: List[ScoredPair] = []
        for p in ctx.left:
            for q in ctx.right:
                if p == q:
                    continue
                series = ctx.engine.forward_first_hit_series(p, q, ctx.d)
                pairs.append(ScoredPair(p, q, params.score_from_series(series)))
        return pairs

    def top_k(self, k: int) -> List[ScoredPair]:
        """Top-``k`` pairs by exhaustive scoring."""
        if k == 0:
            return []
        return top_k_pairs(self.all_pairs(), k)


class ForwardIDJ:
    """``F-IDJ``: iterative-deepening forward join (adaptation of IDJ [19]).

    Runs ``ceil(log2 d) - 1`` cheap rounds with doubling walk lengths
    ``l = 1, 2, 4, ...``; after each round a left node ``p`` is pruned
    when even its best possible score ``max_q h_l(p, q) + X_l^+`` cannot
    reach the current top-``k`` floor ``T_k``.  Surviving pairs get the
    full ``d``-step computation in a final round.

    The short rounds are cheap (``l``-step walks) and, because ``lambda^i``
    decays geometrically, already rank most pairs correctly — so the
    expensive final round usually runs on a small survivor set.

    The ``X_l^+`` table is served through the context's
    :class:`~repro.bounds_cache.BoundPlanCache` instead of being rebuilt
    per join instance, so ``PJ`` restart refills and sibling query edges
    sharing a spec-wide cache reuse one build (hits land in
    ``engine.stats.bound_cache_hits``).
    """

    name = "F-IDJ"
    bound_factory = staticmethod(x_bound_factory)

    def __init__(self, context: TwoWayContext) -> None:
        self._ctx = context
        self.pruning_trace: List[dict] = []

    def top_k(self, k: int) -> List[ScoredPair]:
        """Top-``k`` pairs with iterative-deepening pruning on ``P``."""
        if k < 0:
            raise GraphValidationError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        ctx = self._ctx
        params = ctx.measure.params
        xbound = self.bound_factory(ctx)
        self.pruning_trace = []
        active = list(ctx.left)
        level = 1
        while level < ctx.d and len(active) > 1:
            lower_bounds: List[float] = []
            surviving: List[int] = []
            upper_by_p = {}
            for p in active:
                best_l = params.zero_score
                for q in ctx.right:
                    if p == q:
                        continue
                    series = ctx.engine.forward_first_hit_series(p, q, level)
                    h_l = params.score_from_series(series)
                    lower_bounds.append(h_l)
                    if h_l > best_l:
                        best_l = h_l
                upper_by_p[p] = best_l + xbound.tail(level)
            t_k = kth_largest(lower_bounds, k)
            for p in active:
                if upper_by_p[p] >= t_k:
                    surviving.append(p)
            self.pruning_trace.append(
                {
                    "level": level,
                    "active_before": len(active),
                    "pruned": len(active) - len(surviving),
                    "threshold": t_k,
                }
            )
            active = surviving
            level *= 2
        pairs: List[ScoredPair] = []
        for p in active:
            for q in ctx.right:
                if p == q:
                    continue
                series = ctx.engine.forward_first_hit_series(p, q, ctx.d)
                pairs.append(ScoredPair(p, q, params.score_from_series(series)))
        return top_k_pairs(pairs, k)
