"""Shared types for 2-way joins over DHT.

A 2-way join (Section V) takes node sets ``P`` (left) and ``Q`` (right)
and returns the ``k`` pairs ``(p, q)`` with the highest truncated DHT
scores ``h_d(p, q)``.  All five algorithms in the paper — ``F-BJ``,
``F-IDJ``, ``B-BJ``, ``B-IDJ-X``, ``B-IDJ-Y`` — share the
:class:`TwoWayContext` prepared here and return identical results; they
differ only in how much work they avoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import starmap
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.bounds_cache import BoundPlanCache
from repro.core.dht import DHTParams
from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError, validate_node_set
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine


class ScoredPair(NamedTuple):
    """A join result: left node, right node, truncated DHT score."""

    left: int
    right: int
    score: float


def sort_pairs(pairs: Sequence[ScoredPair]) -> List[ScoredPair]:
    """Sort pairs by descending score; ties broken by ``(left, right)``.

    The deterministic tie-break makes every algorithm return the same
    *sequence*, not just the same score multiset, which the equivalence
    tests rely on.
    """
    return sorted(pairs, key=lambda sp: (-sp.score, sp.left, sp.right))


def top_k_pairs(pairs: Sequence[ScoredPair], k: int) -> List[ScoredPair]:
    """The ``k`` highest-scoring pairs in descending order."""
    if k < 0:
        raise GraphValidationError(f"k must be >= 0, got {k}")
    return sort_pairs(pairs)[:k]


def kth_largest(values: Sequence[float], k: int) -> float:
    """``k``-th largest value, or ``-inf`` when fewer than ``k`` exist.

    ``O(len(values))`` via ``np.partition`` — the iterative-deepening
    joins call this once per round with every informative lower bound.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < k:
        return float("-inf")
    return float(np.partition(values, values.size - k)[values.size - k])


class BoundedTopK:
    """Bounded accumulator of the ``k`` largest values pushed so far.

    Replaces the unbounded per-round ``lower_bounds`` list in the
    deepening joins: memory stays ``O(k)`` regardless of how many
    candidate scores a round produces.  Values are appended into a
    ``max(2k, 64)``-slot buffer; a push that does not fit the free slots
    keeps only the ``k`` largest of buffer plus push, with one
    ``np.partition``, so the amortised cost per pushed value is
    ``O(1)`` and a large push costs one partition, not one per buffer
    fill.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise GraphValidationError(f"k must be >= 1, got {k}")
        self._k = k
        self._capacity = max(2 * k, 64)
        self._buffer = np.empty(self._capacity, dtype=np.float64)
        self._size = 0
        self._count = 0

    @property
    def count(self) -> int:
        """Total number of values pushed."""
        return self._count

    def push(self, values) -> None:
        """Add a scalar or array of values."""
        values = np.atleast_1d(np.asarray(values, dtype=np.float64)).ravel()
        if values.size == 0:
            return
        self._count += values.size
        size = self._size
        end = size + values.size
        if end <= self._capacity:
            self._buffer[size:end] = values
            self._size = end
            return
        # Only the k largest of everything seen can be the k-th largest.
        merged = np.concatenate((self._buffer[:size], values))
        top = np.partition(merged, end - self._k)[end - self._k :]
        self._buffer[: self._k] = top
        self._size = self._k

    def kth_largest(self) -> float:
        """``k``-th largest value seen, or ``-inf`` if fewer than ``k``."""
        if self._count < self._k:
            return float("-inf")
        return kth_largest(self._buffer[: self._size], self._k)


@dataclass
class TwoWayContext:
    """Validated inputs shared by every 2-way join algorithm.

    Attributes
    ----------
    graph / engine:
        The data graph and its walk engine (engine is created on demand
        and may be shared across joins on the same graph).
    params:
        DHT coefficients (general form).
    left / right:
        The node sets ``P`` and ``Q``.  Overlap is allowed; reflexive
        pairs ``(v, v)`` are excluded from results (``h(v, v) = 0`` by
        convention and is not a similarity between distinct entities).
    d:
        Truncation depth (Eq. 4), typically from
        :meth:`repro.core.dht.DHTParams.steps_for_epsilon`.
    walk_cache:
        Optional cross-join :class:`~repro.walks.cache.WalkCache`.  When
        set, ``back_walk`` serves repeated ``(target, level)`` requests
        from it and the backward joins donate their walks into it; an
        n-way spec shares one cache across all its query edges.  Must be
        bound to the same engine and params as this context.
    bound_cache:
        The :class:`~repro.bounds_cache.BoundPlanCache` serving ``Y``
        bounds and restricted-tail plans.  A private cache is created
        when none is passed, so repeated joins on one context (``PJ``
        restart refills) build each artifact once; an n-way spec passes
        one shared cache to every edge context so edges that agree on
        the left set share the build too.  Must be bound to the same
        engine and params as this context.
    measure:
        Optional :class:`repro.extensions.measures.SeriesMeasure`
        (duck-typed — the core layer never imports ``extensions``).
        ``None`` (default) selects DHT: ``params`` are required and the
        caches are keyed by them.  With a measure set, ``params`` may be
        ``None``, ``d`` should be the measure's truncation depth, and
        both caches are keyed by the measure's :meth:`cache_key` — so a
        DHT cache and a PPR cache on the same graph can never be mixed
        (the validation below rejects the swap).  The forward
        algorithms (``F-*``) require ``measure=None``; the backward
        ones read everything measure-specific off this context —
        :attr:`kernel`, :attr:`floor`, and through them the scorer, the
        tail bound and the deepening rounds.
    """

    graph: Graph
    params: Optional[DHTParams]
    left: List[int]
    right: List[int]
    d: int
    engine: WalkEngine = field(default=None)  # type: ignore[assignment]
    walk_cache: Optional[WalkCache] = None
    bound_cache: Optional[BoundPlanCache] = None
    measure: Optional[object] = None

    def __post_init__(self) -> None:
        self.left = validate_node_set(self.graph.num_nodes, self.left, "left node set")
        self.right = validate_node_set(self.graph.num_nodes, self.right, "right node set")
        if self.params is None and self.measure is None:
            raise GraphValidationError(
                "a TwoWayContext needs DHT params or a series measure"
            )
        if self.d < 1:
            raise GraphValidationError(f"d must be >= 1, got {self.d}")
        if self.engine is None:
            self.engine = WalkEngine(self.graph)
        key_params = self.cache_params
        for name in ("walk_cache", "bound_cache"):
            cache = getattr(self, name)
            if cache is not None and cache.engine is not self.engine:
                raise GraphValidationError(
                    f"{name} is bound to a different engine than this context"
                )
            if cache is not None and cache.params != key_params:
                raise GraphValidationError(
                    f"{name} was built for a different measure configuration"
                )
        if self.bound_cache is None:
            self.bound_cache = BoundPlanCache(self.engine, key_params)
        self._left_array = np.asarray(self.left, dtype=np.int64)
        self._num_pairs = len(self.left) * len(self.right) - len(
            set(self.left) & set(self.right)
        )

    @property
    def cache_params(self):
        """The identity walk/bound caches for this context are keyed by
        (:func:`cache_identity`)."""
        return cache_identity(self.params, self.measure)

    @property
    def kernel(self):
        """What a :class:`~repro.walks.state.WalkState` propagates this
        context's blocks with: the DHT params, or the measure's block
        kernel (``None`` for a matrix-backed measure)."""
        return self.params if self.measure is None else self.measure.kernel()

    @property
    def floor(self) -> float:
        """Score of a pair with no walk statistic at all — the bottom of
        the range (``params.zero_score`` / ``measure.floor``)."""
        if self.measure is None:
            return self.params.zero_score
        return self.measure.floor

    @property
    def left_array(self) -> np.ndarray:
        """``P`` as an int64 array (for vectorised score gathering)."""
        return self._left_array

    @property
    def num_pairs(self) -> int:
        """Number of candidate pairs, excluding reflexive ones."""
        return self._num_pairs

    def pairs_for_target(self, left_scores: np.ndarray, q: int) -> List[ScoredPair]:
        """Materialise ``(left[i], q, left_scores[i])`` for every valid
        ``left[i]`` — ``left_scores`` is aligned with :attr:`left`
        (``|P|`` values, what the row-restricted score reads return).

        One ``tolist`` keeps the per-pair Python work to a single tuple
        construction.
        """
        return [
            ScoredPair(p, q, value)
            for p, value in zip(self.left, left_scores.tolist())
            if p != q
        ]

    def top_pairs(
        self,
        blocks: Sequence[Tuple[Sequence[int], np.ndarray]],
        k: Optional[int] = None,
    ) -> List[ScoredPair]:
        """``sort_pairs(every valid pair)[:k]`` (``None``: all of them)
        picked straight from left-row blocks, building only the winners.

        ``blocks`` holds ``(targets, block)`` with ``block[i, j]`` the
        score of ``(left[i], targets[j])`` — what the rounds hand a
        consumer.  Reflexive pairs are masked, an ``np.partition``
        threshold keeps the candidates that can still make the cut, and
        one lexsort on ``(-score, left, right)`` orders them exactly as
        :func:`sort_pairs` would, ties included.
        """
        if not blocks or k == 0:
            return []
        right = np.concatenate([np.asarray(t, dtype=np.int64) for t, _ in blocks])
        scores = np.concatenate([block for _, block in blocks], axis=1)
        rows, cols = np.nonzero(self._left_array[:, None] != right[None, :])
        values = scores[rows, cols]
        if k is not None and k < values.size:
            cut = values.size - k
            keep = np.flatnonzero(values >= np.partition(values, cut)[cut])
            rows, cols, values = rows[keep], cols[keep], values[keep]
        lefts, rights = self._left_array[rows], right[cols]
        order = np.lexsort((rights, lefts, -values))[:k]
        return list(starmap(ScoredPair, zip(
            lefts[order].tolist(), rights[order].tolist(), values[order].tolist()
        )))


def resolve_config(
    params: Optional[DHTParams] = None,
    d: Optional[int] = None,
    epsilon: Optional[float] = None,
    measure: Optional[object] = None,
) -> Tuple[Optional[DHTParams], int]:
    """The one configuration rule: ``(params, d)`` of a join.

    DHT (``measure=None``) defaults follow Section VII-A: ``DHT_lambda``
    with ``lambda = 0.2`` and ``epsilon = 1e-6`` (which yields
    ``d = 8``); pass either ``d`` directly or an ``epsilon`` to derive
    it via Lemma 1 — not both.  A measure fixes its own coefficients and
    depth, ``(None, measure.d)``; ``params`` / ``d`` / ``epsilon``
    alongside one are an error (configure the measure instance instead —
    silently dropping them would change results without warning).
    """
    if measure is not None:
        passed = [
            name for name, value in
            (("params", params), ("d", d), ("epsilon", epsilon))
            if value is not None
        ]
        if passed:
            raise GraphValidationError(
                "a measure fixes its own depth and coefficients, so params, "
                "d and epsilon are DHT-only options; configure the measure "
                f"instance instead (got {', '.join(passed)})"
            )
        return None, measure.d
    params = params if params is not None else DHTParams.dht_lambda(0.2)
    if d is not None and epsilon is not None:
        raise GraphValidationError("pass either d or epsilon, not both")
    if d is None:
        d = params.steps_for_epsilon(epsilon if epsilon is not None else 1e-6)
    return params, d


def cache_identity(params: Optional[DHTParams], measure: Optional[object]):
    """What walk and bound caches are keyed by: the measure's
    ``cache_key()``, else the DHT params — one cache universe per
    ``(graph, measure)``."""
    return params if measure is None else measure.cache_key()


def make_context(
    graph: Graph,
    left: Sequence[int],
    right: Sequence[int],
    params: Optional[DHTParams] = None,
    d: Optional[int] = None,
    epsilon: Optional[float] = None,
    engine: Optional[WalkEngine] = None,
    walk_cache: Optional[WalkCache] = None,
    bound_cache: Optional[BoundPlanCache] = None,
    measure: Optional[object] = None,
) -> TwoWayContext:
    """Build a :class:`TwoWayContext` under :func:`resolve_config`: the
    paper's DHT defaults, or a ``measure`` that fixes its own depth."""
    params, d = resolve_config(params, d, epsilon, measure)
    return TwoWayContext(
        graph=graph, params=params, left=list(left), right=list(right), d=d,
        engine=engine, walk_cache=walk_cache, bound_cache=bound_cache,
        measure=measure,
    )
