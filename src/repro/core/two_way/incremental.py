"""Incremental 2-way joins — the basis of ``PJ-i`` (Section VI-D).

``PJ`` repeatedly needs "the next best pair" of a 2-way join after the
top-``m`` prefix has been consumed.  Re-running a top-``(m+1)`` join from
scratch is wasteful: the top-``m`` join already computed bounds for most
pairs.  :class:`IncrementalTwoWayJoin` keeps that information in the
paper's ``F`` structure:

* ``F`` is a mutable max-priority queue of entries
  ``<(p, q), h^-(p, q), h^+(p, q), l>`` ordered by **upper** bound,
  with a hash index ``H`` from pair to entry (here: one sorted column
  per ``q`` and a lazy-deleted binary heap over the column heads).
* ``next_pair`` repeatedly looks at the two best entries ``e1, e2``.  If
  ``e1``'s lower bound already beats ``e2``'s upper bound, ``e1`` is the
  answer — finalise it with a full ``d``-step walk if needed.  Otherwise
  *refine* ``e1`` by re-walking its ``q`` with a doubled length
  ``min(2 l, d)``, which tightens every ``( . , q)`` entry at once.

Refinement walks run through the context's
:class:`~repro.walks.cache.WalkCache` (one is attached on construction
if the context has none): the instrumented ``B-IDJ`` donates its walk
state there, so a doubled-length re-walk *extends* the recorded
``l``-step walk instead of restarting from scratch — each target pays
for every propagation step at most once across the join's lifetime.
The ``Y`` bound comes from the context's
:class:`~repro.bounds_cache.BoundPlanCache` the same way: inside a
``PJ-i`` run all query edges share one cache via the spec, so edges
that agree on the left set reuse one reach-mass build.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from itertools import islice
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import ScoreUpperBound
from repro.core.two_way.backward import (
    BackwardIDJ,
    BoundFactory,
    y_bound_factory,
)
from repro.core.two_way.base import ScoredPair, TwoWayContext
from repro.graph.validation import GraphValidationError
from repro.walks.cache import WalkCache

Pair = Tuple[int, int]


class FEntry(NamedTuple):
    """One ``F`` entry: pair key, score bounds, and walk depth ``l``."""

    pair: Pair
    lower: float
    upper: float
    level: int


class _Column:
    """The ``( . , q)`` entries of ``F``: one walk's worth of bounds."""

    __slots__ = ("level", "tail", "scores", "live", "stack", "version")

    def __init__(self, live: np.ndarray) -> None:
        self.level = 0  # no walk recorded yet
        self.tail = 0.0
        self.scores: Optional[np.ndarray] = None  # left-aligned lower bounds
        self.live = live  # left positions neither reflexive nor removed
        self.stack: List[int] = []  # positions, best (-upper, p) on top
        self.version = 0  # of the one heap record that speaks for the column


class FStructure:
    """Max-priority queue over ``F`` entries keyed by upper bound, stored
    a column at a time — the unit Section VI-D refines.

    Per right node ``q`` one walk level, one tail and the ``|P|``
    left-aligned scores, with the live positions ordered once per walk
    by ``(-upper, p)`` (``upper = fl(score + tail)``, the rounded value
    the entries compare by).  The heap holds one record per *column* —
    its head — with lazy deletion by version: ``|Q|`` records, not
    ``|P||Q|``, and a refinement costs one sort of ``|P|`` floats and
    one push (the paper's "mutable priority queue" + hash table ``H``).
    """

    def __init__(self, left: Sequence[int]) -> None:
        self._left = np.asarray(left, dtype=np.int64)
        self._position = {p: i for i, p in enumerate(self._left.tolist())}
        self._columns: Dict[int, _Column] = {}
        self._heap: List[Tuple[float, int, int, int]] = []  # (-upper, p, q, version)

    def __len__(self) -> int:
        return sum(
            int(column.live.sum()) for column in self._columns.values() if column.level
        )

    def __contains__(self, pair: Pair) -> bool:
        return self.get(pair) is not None

    def get(self, pair: Pair) -> Optional[FEntry]:
        """Current entry for ``pair``, if tracked."""
        column = self._columns.get(pair[1])
        i = self._position.get(pair[0])
        if column is None or i is None or not (column.level and column.live[i]):
            return None
        return self._entry(pair[1], column, i)

    def update_column(self, q: int, level: int, scores: np.ndarray, tail: float) -> None:
        """Insert column ``q`` or supersede it with a deeper walk's bounds:
        ``scores`` (aligned with ``left``, kept by reference) are the
        lower bounds, ``scores + tail`` the upper ones.

        Following Section VI-D, an existing column is only replaced when
        the new walk is *longer* (``level > column.level``) — longer walks
        give tighter bounds.  Removed pairs stay removed.
        """
        column = self._column(q)
        if column.level >= level:
            return
        column.level, column.tail, column.scores = level, float(tail), scores
        live = np.flatnonzero(column.live)
        upper = scores[live] + column.tail
        column.stack = live[np.lexsort((-self._left[live], upper))].tolist()
        self._push(q, column)

    def remove(self, pair: Pair) -> None:
        """Drop ``pair`` for good — before or after its column is walked."""
        column = self._column(pair[1])
        i = self._position.get(pair[0])
        if i is None or not column.live[i]:
            return
        column.live[i] = False
        if column.stack and column.stack[-1] == i:
            self._push(pair[1], column)  # the head went: the runner-up speaks

    def peek_top_two(self) -> Tuple[Optional[FEntry], Optional[FEntry]]:
        """The two entries with the highest upper bounds.

        Ties are broken by pair id, matching
        :func:`repro.core.two_way.base.sort_pairs`.  The runner-up is the
        better of the best column's own second entry and the next
        column's head.
        """
        self._prune_stale()
        if not self._heap:
            return None, None
        head = heapq.heappop(self._heap)
        self._prune_stale()
        rival = self._heap[0] if self._heap else None
        heapq.heappush(self._heap, head)
        q = head[2]
        column = self._columns[q]
        first = self._entry(q, column, column.stack[-1])
        second = None
        for i in islice(reversed(column.stack), 1, None):
            if column.live[i]:
                second = self._entry(q, column, i)
                break
        if rival is not None and (
            second is None or rival[:3] < (-second.upper, *second.pair)
        ):
            other = self._columns[rival[2]]
            second = self._entry(rival[2], other, other.stack[-1])
        return first, second

    def _column(self, q: int) -> _Column:
        column = self._columns.get(q)
        if column is None:
            column = self._columns[q] = _Column(self._left != q)
        return column

    def _entry(self, q: int, column: _Column, i: int) -> FEntry:
        lower = float(column.scores[i])
        return FEntry(
            (int(self._left[i]), q), lower, lower + column.tail, column.level
        )

    def _push(self, q: int, column: _Column) -> None:
        """Let the column's first live entry (if any) speak for it."""
        stack = column.stack
        while stack and not column.live[stack[-1]]:
            stack.pop()
        column.version += 1
        if stack:
            head = self._entry(q, column, stack[-1])
            heapq.heappush(
                self._heap, (-head.upper, head.pair[0], q, column.version)
            )

    def _prune_stale(self) -> None:
        heap = self._heap
        while heap and self._columns[heap[0][2]].version != heap[0][3]:
            heapq.heappop(heap)


class _FRecorder:
    """Walk observer that mirrors ``B-IDJ`` walk results into ``F``.

    ``B-IDJ`` walks each surviving ``q`` once per deepening round; only
    the *deepest* walk matters (``FStructure.update_column`` would
    discard the rest anyway) and the rounds only deepen, so the recorder
    overwrites one ``|P|``-float row per ``q`` and the join flushes the
    rows into ``F`` once, after ``B-IDJ`` finishes — saving one sort and
    heap push per superseded round.  The rows are its own copies: the
    whole recorder holds ``|Q| x |P|`` floats whatever the graph size,
    and pins no walk block.
    """

    def __init__(self, context: TwoWayContext) -> None:
        self._slot = {q: j for j, q in enumerate(context.right)}
        self.scores = np.empty((len(context.right), len(context.left)))
        self.levels = np.zeros(len(context.right), dtype=np.int64)
        self.tails = np.zeros(len(context.right))

    def observe(self, targets, level, block, tails) -> None:
        slots = [self._slot[q] for q in targets]
        self.scores[slots] = block.T
        self.levels[slots] = level
        self.tails[slots] = tails


class IncrementalTwoWayJoin:
    """A 2-way join that can be consumed one pair at a time.

    Typical use (this is exactly what ``PJ-i`` does per query-graph
    edge)::

        join = IncrementalTwoWayJoin(context)
        prefix = join.top(m)          # modified B-IDJ, fills F
        extra = join.next_pair()      # the (m+1)-th pair, from F
        extra = join.next_pair()      # the (m+2)-th, ...

    The emitted stream is globally sorted: it equals the sequence a fresh
    top-``(m + t)`` join would return (the property tests check this).

    Parameters
    ----------
    context:
        Validated join inputs.
    bound_factory:
        Upper-bound flavour for both the initial ``B-IDJ`` and the
        refinement loop; defaults to the ``Y`` bound, the paper's choice.
    """

    def __init__(
        self,
        context: TwoWayContext,
        bound_factory: BoundFactory = y_bound_factory,
    ) -> None:
        if context.walk_cache is None:
            # Resumable refinement needs somewhere to keep walk state
            # between next_pair() calls; work on a private copy of the
            # context so the caller's object is not mutated.
            context = replace(
                context,
                walk_cache=WalkCache(context.engine, context.params),
            )
        self._ctx = context
        self._bound: ScoreUpperBound = bound_factory(context)
        self._f = FStructure(context.left)
        self._emitted = 0
        self._started = False

    @property
    def context(self) -> TwoWayContext:
        """The join's validated inputs."""
        return self._ctx

    @property
    def pairs_remaining(self) -> int:
        """Candidate pairs not yet emitted."""
        return self._ctx.num_pairs - self._emitted

    def top(self, m: int) -> List[ScoredPair]:
        """The top-``m`` pairs, via ``B-IDJ`` instrumented to fill ``F``.

        Must be called exactly once, before any :meth:`next_pair` call.
        ``m = 0`` is allowed (Algorithm 1 permits it): ``F`` is seeded
        with 1-step walks from every right node so that ``next_pair`` can
        start refining.
        """
        if self._started:
            raise GraphValidationError("top() may only be called once")
        self._started = True
        if m < 0:
            raise GraphValidationError(f"m must be >= 0, got {m}")
        if m == 0:
            level = min(1, self._ctx.d)
            for q in self._ctx.right:
                self._refine(q, level)
            return []
        recorder = _FRecorder(self._ctx)
        algorithm = BackwardIDJ(
            self._ctx,
            bound_factory=lambda _ctx: self._bound,
            observer=recorder,
        )
        result = algorithm.top_k(m)
        self._emitted = len(result)
        for pair in result:
            self._f.remove(pair[:2])
        for q, level, scores, tail in zip(
            self._ctx.right, recorder.levels.tolist(), recorder.scores,
            recorder.tails.tolist(),
        ):
            self._f.update_column(q, level, scores, tail)
        return result

    def next_pair(self) -> Optional[ScoredPair]:
        """The next pair in global score order, or ``None`` if exhausted.

        Implements the Section VI-D loop: peek the two best entries by
        upper bound; emit the head once its lower bound is certain to
        dominate, otherwise refine the head's ``q`` with a doubled walk.
        """
        if not self._started:
            raise GraphValidationError("call top(m) before next_pair()")
        d = self._ctx.d
        while True:
            first, second = self._f.peek_top_two()
            if first is None:
                return None
            if first.level >= d:
                # Exact bounds and the maximal upper one, so
                # first.lower == first.upper >= second.upper: the head is
                # certain whatever float asymmetries say.
                return self._emit(first)
            if second is None or first.lower >= second.upper:
                # The head is the answer; finalise its exact score.
                self._refine(first.pair[1], d)
            else:
                self._refine(first.pair[1], min(2 * first.level, d))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _emit(self, entry: FEntry) -> ScoredPair:
        self._emitted += 1
        self._f.remove(entry.pair)
        return ScoredPair(*entry.pair, entry.lower)

    def _refine(self, q: int, level: int) -> None:
        """Re-walk ``q`` at ``level`` steps and tighten all its entries."""
        ctx = self._ctx
        scores = ctx.walk_cache.scores(q, level, rows=ctx.left_array)
        tail = 0.0 if level >= ctx.d else self._bound.tail(level, q)
        self._f.update_column(q, level, scores, tail)
