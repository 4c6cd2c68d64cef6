"""Shared types for 2-way joins.

A 2-way join (Section V) takes node sets ``P`` (left) and ``Q`` (right)
and returns the ``k`` pairs ``(p, q)`` with the highest truncated scores
``h_d(p, q)`` under one measure — DHT, the paper's, or a Section VIII
series measure, each one value on the :class:`TwoWayContext` prepared
here.  All five algorithms in the paper — ``F-BJ``, ``F-IDJ``, ``B-BJ``,
``B-IDJ-X``, ``B-IDJ-Y`` — share that context and return identical
results; they differ only in how much work they avoid (the forward two
are DHT-only).
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
from repro.walks.state import row_positions


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
    left / right:
        The node sets ``P`` and ``Q``.  Overlap is allowed; reflexive
        pairs ``(v, v)`` are excluded from results (``h(v, v) = 0`` by
        convention and is not a similarity between distinct entities).
    measure:
        The proximity measure: a :class:`~repro.core.dht.DHTMeasure` or
        any :class:`repro.extensions.measures.SeriesMeasure` (duck-typed
        — the core layer never imports ``extensions``).  Its ``d`` is the
        truncation depth (Eq. 4); the backward joins read everything
        measure-specific off it — ``kernel()``, ``floor``, and through
        them the scorer, the tail bounds and the deepening rounds.  Both
        caches are keyed by its ``kernel()``, so a DHT cache and a
        PPR cache on the same graph can never be mixed (the validation
        below rejects the swap).  The forward algorithms (``F-*``) are
        DHT-only.
    walk_cache:
        Optional cross-join :class:`~repro.walks.cache.WalkCache`.  When
        set, ``back_walk`` serves repeated ``(target, level)`` requests
        from it and the backward joins donate their walks into it; an
        n-way spec shares one cache across all its query edges.  Must be
        bound to the same engine and measure as this context.
    bound_cache:
        The :class:`~repro.bounds_cache.BoundPlanCache` serving ``Y``
        bounds and restricted-tail plans.  A private cache is created
        when none is passed, so repeated joins on one context (``PJ``
        restart refills) build each artifact once; an n-way spec passes
        one shared cache to every edge context so edges that agree on
        the left set share the build too.  Must be bound to the same
        engine and measure as this context.
    walk_rows:
        With a walk cache, the sorted node ids every reader of this
        context's targets reads them at — a superset of ``left`` — or
        ``None`` (readers unknown: every node).  The backward joins
        walk, keep and donate cached targets at these rows only; an n-way
        spec sets them to the union of the left sets of the query edges
        that read the right set.
    """

    graph: Graph
    left: List[int]
    right: List[int]
    measure: object
    engine: WalkEngine = field(default=None)  # type: ignore[assignment]
    walk_cache: Optional[WalkCache] = None
    bound_cache: Optional[BoundPlanCache] = None
    walk_rows: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.left = validate_node_set(self.graph.num_nodes, self.left, "left node set")
        self.right = validate_node_set(self.graph.num_nodes, self.right, "right node set")
        if self.engine is None:
            self.engine = WalkEngine(self.graph)
        key = self.measure.kernel()
        for name in ("walk_cache", "bound_cache"):
            cache = getattr(self, name)
            if cache is not None and cache.engine is not self.engine:
                raise GraphValidationError(
                    f"{name} is bound to a different engine than this context"
                )
            if cache is not None and cache.params != key:
                raise GraphValidationError(
                    f"{name} was built for a different measure configuration"
                )
        if self.bound_cache is None:
            self.bound_cache = BoundPlanCache(self.engine, key)
        self._left_array = np.asarray(self.left, dtype=np.int64)
        if self.walk_rows is not None and row_positions(
            self.walk_rows, self._left_array
        ) is None:
            raise GraphValidationError(
                "walk_rows must be sorted node ids containing the left set"
            )
        self._num_pairs = len(self.left) * len(self.right) - len(
            set(self.left) & set(self.right)
        )

    @property
    def d(self) -> int:
        """Truncation depth: the measure's."""
        return self.measure.d

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
    """Build a :class:`TwoWayContext` from the query options: ``measure``
    / ``params`` / ``d`` / ``epsilon`` resolve to one measure under
    :func:`repro.query.resolve_measure` (the paper's DHT defaults when
    none is given)."""
    # Imported here: the query layer sits above core.
    from repro.query import resolve_measure

    return TwoWayContext(
        graph=graph, left=list(left), right=list(right), engine=engine,
        walk_cache=walk_cache, bound_cache=bound_cache,
        measure=resolve_measure(measure, params=params, d=d, epsilon=epsilon),
    )
