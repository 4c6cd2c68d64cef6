"""Incremental 2-way joins — the basis of ``PJ-i`` (Section VI-D).

``PJ`` repeatedly needs "the next best pair" of a 2-way join after the
top-``m`` prefix has been consumed.  Re-running a top-``(m+1)`` join from
scratch is wasteful: the top-``m`` join already computed bounds for most
pairs.  :class:`IncrementalTwoWayJoin` keeps that information in the
paper's ``F`` structure:

* ``F`` is a mutable max-priority queue of entries
  ``<(p, q), h^-(p, q), h^+(p, q), l>`` ordered by **upper** bound,
  with a hash index ``H`` from pair to entry (here: a dict + lazy-deleted
  binary heap).
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
import itertools
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

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


class FEntry:
    """One ``F`` entry: pair key, score bounds, and walk depth ``l``."""

    __slots__ = ("pair", "lower", "upper", "level")

    def __init__(self, pair: Pair, lower: float, upper: float, level: int) -> None:
        self.pair = pair
        self.lower = lower
        self.upper = upper
        self.level = level

    def __repr__(self) -> str:  # pragma: no cover - debug cosmetic
        return (
            f"FEntry(pair={self.pair}, lower={self.lower:.6f}, "
            f"upper={self.upper:.6f}, l={self.level})"
        )


class FStructure:
    """Max-priority queue over :class:`FEntry` keyed by upper bound.

    Uses a binary heap with *lazy deletion*: updating an entry pushes a
    fresh heap record and bumps a per-pair version; stale records are
    skipped on pop.  This keeps ``update`` at ``O(log n)`` without a
    decrease-key primitive (the paper's "mutable priority queue" + hash
    table ``H``).
    """

    def __init__(self) -> None:
        self._entries: Dict[Pair, FEntry] = {}
        self._versions: Dict[Pair, int] = {}
        self._heap: List[Tuple[float, int, int, int, Pair]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._entries

    def get(self, pair: Pair) -> Optional[FEntry]:
        """Current entry for ``pair``, if tracked."""
        return self._entries.get(pair)

    def update(self, pair: Pair, lower: float, upper: float, level: int) -> None:
        """Insert ``pair`` or supersede its entry with deeper-walk bounds.

        Following Section VI-D, an existing entry is only replaced when
        the new walk is *longer* (``level > entry.level``) — longer walks
        give tighter bounds.
        """
        entry = self._entries.get(pair)
        if entry is not None and entry.level >= level:
            return
        if entry is None:
            entry = FEntry(pair, lower, upper, level)
            self._entries[pair] = entry
        else:
            entry.lower = lower
            entry.upper = upper
            entry.level = level
        version = self._versions.get(pair, 0) + 1
        self._versions[pair] = version
        heapq.heappush(
            self._heap, (-upper, pair[0], pair[1], version, pair)
        )

    def remove(self, pair: Pair) -> None:
        """Drop ``pair`` (lazy: its heap records become stale)."""
        self._entries.pop(pair, None)
        self._versions.pop(pair, None)

    def peek_top_two(self) -> Tuple[Optional[FEntry], Optional[FEntry]]:
        """The two entries with the highest upper bounds.

        Ties are broken by pair id, matching
        :func:`repro.core.two_way.base.sort_pairs`.
        """
        self._prune_stale()
        if not self._heap:
            return None, None
        first_record = self._heap[0]
        first = self._entries[first_record[4]]
        # Temporarily pop the head to look at the runner-up.
        head = heapq.heappop(self._heap)
        self._prune_stale()
        second = self._entries[self._heap[0][4]] if self._heap else None
        heapq.heappush(self._heap, head)
        return first, second

    def _prune_stale(self) -> None:
        while self._heap:
            neg_upper, _, _, version, pair = self._heap[0]
            entry = self._entries.get(pair)
            if entry is None or self._versions.get(pair) != version:
                heapq.heappop(self._heap)
                continue
            break


class _FRecorder:
    """Walk observer that mirrors ``B-IDJ`` walk results into ``F``.

    ``B-IDJ`` walks each surviving ``q`` once per deepening round; only
    the *deepest* walk matters (``FStructure.update`` would discard the
    rest anyway), so the recorder buffers the latest walk per ``q`` and
    the join flushes the buffer into ``F`` once, after ``B-IDJ``
    finishes — saving one heap push per superseded round.  What it
    buffers is its own copy of the ``|P|`` left-aligned scores, so the
    whole recorder holds ``|Q| x |P|`` floats whatever the graph size.
    """

    def __init__(self) -> None:
        self.latest: Dict[int, Tuple[int, np.ndarray, float]] = {}

    def observe(self, q: int, level: int, scores: np.ndarray, tail: float) -> None:
        previous = self.latest.get(q)
        if previous is None or level > previous[0]:
            self.latest[q] = (level, scores.copy(), tail)


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
        self._f = FStructure()
        self._emitted: set = set()
        self._started = False

    @property
    def context(self) -> TwoWayContext:
        """The join's validated inputs."""
        return self._ctx

    @property
    def pairs_remaining(self) -> int:
        """Candidate pairs not yet emitted."""
        return self._ctx.num_pairs - len(self._emitted)

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
        recorder = _FRecorder()
        algorithm = BackwardIDJ(
            self._ctx,
            bound_factory=lambda _ctx: self._bound,
            observer=recorder,
        )
        result = algorithm.top_k(m)
        for pair in result:
            self._emitted.add((pair.left, pair.right))
        for q, (level, scores, tail) in recorder.latest.items():
            self._record_walk(q, level, scores, tail)
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
            head_certain = second is None or first.lower >= second.upper
            if first.level >= d:
                if head_certain:
                    return self._emit(first)
                # first has max upper and exact bounds, so
                # first.lower == first.upper >= second.upper: unreachable,
                # but guard against float asymmetries by emitting anyway.
                return self._emit(first)
            if head_certain:
                # The head is the answer; finalise its exact score.
                self._refine(first.pair[1], d)
            else:
                self._refine(first.pair[1], min(2 * first.level, d))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _emit(self, entry: FEntry) -> ScoredPair:
        pair = entry.pair
        self._emitted.add(pair)
        self._f.remove(pair)
        return ScoredPair(pair[0], pair[1], entry.lower)

    def _refine(self, q: int, level: int) -> None:
        """Re-walk ``q`` at ``level`` steps and tighten all its entries."""
        ctx = self._ctx
        scores = ctx.walk_cache.scores(q, level, rows=ctx.left_array)
        tail = 0.0 if level >= ctx.d else self._bound.tail(level, q)
        self._record_walk(q, level, scores, tail)

    def _record_walk(self, q: int, level: int, scores: np.ndarray, tail: float) -> None:
        """Fold one walk's left-aligned ``scores`` into ``F``."""
        for p, score in zip(self._ctx.left, scores.tolist()):
            if p == q:
                continue
            key = (p, q)
            if key in self._emitted:
                continue
            self._f.update(key, score, score + tail, level)
