"""Cross-join walk cache: share backward walks between query edges.

A backward walk from target ``q`` depends only on the graph and the
measure's coefficients — not on the join's left set — so its full-graph
score vector ``h_level(., q)`` can be reused by *any* join on the same
``(graph, measure)`` pair.  N-way joins whose node sets overlap (star
and clique query specs, ``PJ``'s restart refills, ``PJ-i``'s F-structure
refinements) repeatedly ask for the same ``(target, level)`` walks; the
cache answers those from memory instead of re-propagating.

The cache is measure-generic: build it with
:class:`~repro.core.dht.DHTParams` (the DHT first-hit kernel), any
:class:`~repro.walks.kernels.BlockKernel` (e.g. PPR), or — for
matrix-backed measures with no propagation kernel, like SimRank — any
hashable cache identity, in which case only the score-vector layer is
usable (``peek`` / ``put_scores``; the resumable layer needs a kernel).
One cache per ``(graph, measure)``: entries of different measures never
share a cache, which :class:`repro.core.two_way.base.TwoWayContext`
validates and :meth:`WalkCache.adopt` enforces for donated states.

Two layers per target, bounded by an LRU over targets (and, when
``max_bytes`` is set, by a strict byte-denominated LRU budget over the
retained vectors and resumable buffers):

* finished score vectors keyed by walk level, stored immutable — an
  exact repeat reads the caller's ``rows`` of one (``|P|`` floats for a
  join over left set ``P``) or, for a full-vector request, copies it;
* one resumable :class:`~repro.walks.state.WalkState` at the deepest
  level walked so far — a *deeper* request extends it (paying only the
  missing steps) instead of restarting from level 0.

Algorithms that batch their own walks (``B-BJ``, ``B-IDJ``) look a whole
group of targets up with :meth:`WalkCache.peek_block` and donate their
results via :meth:`WalkCache.put_block` / :meth:`WalkCache.adopt` — one
lock hold per group — so later joins and refinements resume where they
left off.

This cache covers the *walk* half of the sharing story; the bound half —
``Y_l^+`` reach-mass tables and restricted-tail plans, which likewise
depend only on ``(graph, params)`` plus a node set — lives in the
sibling :class:`repro.bounds_cache.BoundPlanCache`.  N-way specs create
one of each and pass both to every query-edge context.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exec.budget import CorruptedWalkError
from repro.graph.validation import GraphValidationError
from repro.walks.engine import WalkEngine
from repro.walks.kernels import as_block_kernel
from repro.walks.state import WalkState

if TYPE_CHECKING:  # avoid a runtime cycle: core.dht imports repro.walks
    from repro.core.dht import DHTParams


@dataclass
class WalkCacheStats:
    """Hit/miss accounting, cumulative since the last reset."""

    hits: int = 0
    misses: int = 0
    extensions: int = 0  # misses served by extending a resumable state
    steps_saved: int = 0  # column-steps skipped thanks to resumed prefixes
    evictions: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.extensions = 0
        self.steps_saved = 0
        self.evictions = 0


class _TargetEntry:
    """Cached walks of one target: score vectors per level + deepest state."""

    __slots__ = ("scores", "state")

    def __init__(self) -> None:
        self.scores: Dict[int, np.ndarray] = {}
        self.state: Optional[WalkState] = None


def _read(vector: np.ndarray, rows: Optional[np.ndarray]) -> np.ndarray:
    """What a lookup hands out of an immutable cached vector: always a
    fresh array, restricted to ``rows`` when the caller names them."""
    return vector.copy() if rows is None else vector[rows]


class WalkCache:
    """Per-``(graph, measure)`` cache of backward-walk score vectors.

    Parameters
    ----------
    engine:
        The graph's walk engine; all cached walks run on it.
    params:
        The measure identity: DHT coefficients, a block kernel, or any
        hashable value object.  Cached vectors are only valid for this
        exact configuration — build one cache per ``(graph, measure)``
        pair.
    max_targets:
        LRU bound on the number of distinct targets retained (each
        target costs a few length-``n`` float64 vectors).
    max_bytes:
        Optional byte-denominated LRU budget over everything the cache
        retains (score vectors plus resumable-state buffers).  The bound
        is strict: least-recent targets are evicted until the total fits,
        and an entry that alone exceeds the budget is dropped outright —
        ``current_bytes <= max_bytes`` always holds, which makes the
        bounded joins' spill policy and the governor's byte ceiling
        end-to-end true.

    The cache is safe to share across concurrent queries (the
    :class:`repro.service.QueryService` tier): every public method runs
    under one re-entrant lock, so LRU order, byte accounting, in-place
    :class:`~repro.walks.state.WalkState` extension, and the cache's own
    hit/miss stats never tear.  Re-entrant because a governed walk under
    :meth:`scores` may fire an ``"evict"`` fault that calls
    :meth:`clear` on this same cache from the same thread.  A cold miss
    walks while holding the lock — correctness over cold-path
    parallelism.  Stored vectors are read-only arrays, so a hit holds
    the lock for the lookup and LRU touch only and reads the vector —
    the ``rows`` gather or the full copy — after releasing it, and
    :meth:`put_block` validates and (if needed) copies before taking it.
    """

    def __init__(
        self,
        engine: WalkEngine,
        params: "DHTParams | object",
        max_targets: int = 256,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_targets < 1:
            raise GraphValidationError(
                f"max_targets must be >= 1, got {max_targets}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise GraphValidationError(
                f"max_bytes must be >= 1 when set, got {max_bytes}"
            )
        self._engine = engine
        self._params = params
        self._max_targets = max_targets
        self._max_bytes = max_bytes
        self._entries: "OrderedDict[int, _TargetEntry]" = OrderedDict()
        self._entry_bytes: Dict[int, int] = {}
        self._total_bytes = 0
        self._lock = threading.RLock()
        self.stats = WalkCacheStats()

    @property
    def engine(self) -> WalkEngine:
        """The engine cached walks run on."""
        return self._engine

    @property
    def params(self) -> "DHTParams | object":
        """The measure identity cached scores were folded with."""
        return self._params

    @property
    def max_targets(self) -> int:
        """LRU capacity in distinct targets."""
        return self._max_targets

    @property
    def max_bytes(self) -> Optional[int]:
        """Byte-denominated LRU budget (``None`` = targets-only bound)."""
        return self._max_bytes

    @property
    def current_bytes(self) -> int:
        """Bytes currently retained (vectors + resumable buffers)."""
        with self._lock:
            return self._total_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, target: int) -> bool:
        with self._lock:
            return target in self._entries

    def clear(self) -> None:
        """Drop every cached walk (stats are kept)."""
        with self._lock:
            self._entries.clear()
            self._entry_bytes.clear()
            self._total_bytes = 0

    # ------------------------------------------------------------------
    # Lookup / compute
    # ------------------------------------------------------------------

    def peek(
        self, target: int, level: int, rows: Optional[np.ndarray] = None
    ) -> Optional[np.ndarray]:
        """Cached ``h_level(., target)`` or ``None`` — never walks.

        A hit refreshes the target's LRU position and returns a fresh
        array (cached vectors are never handed out aliased): the entries
        at node ids ``rows`` when given — all a join reads — else a copy
        of the whole vector.
        """
        everything = slice(None) if rows is None else rows
        _, block, _ = self.peek_block((target,), level, everything)
        return None if block is None else block[:, 0]

    def peek_block(
        self, targets: Sequence[int], level: int, rows: np.ndarray
    ) -> Tuple[List[int], Optional[np.ndarray], List[int]]:
        """:meth:`peek` for a whole group of targets under one lock
        hold: ``(hits, block, misses)`` with ``block[i, j]`` the cached
        ``h_level(rows[i], hits[j])`` (``None`` without a hit).

        Counted and LRU-touched exactly as ``peek(q, level, rows)`` for
        each ``q`` in order would be; the ``(|rows|, H)`` block is
        gathered after the lock is released.
        """
        hits: List[int] = []
        vectors: List[np.ndarray] = []
        misses: List[int] = []
        with self._lock:
            lookup = self._entries.get
            touch = self._entries.move_to_end
            for target in targets:
                entry = lookup(target)
                vector = entry.scores.get(level) if entry is not None else None
                if vector is None:
                    misses.append(target)
                else:
                    touch(target)
                    hits.append(target)
                    vectors.append(vector)
            self.stats.hits += len(hits)
            self.stats.misses += len(misses)
        if not hits:
            return hits, None, misses
        return hits, np.array([vector[rows] for vector in vectors]).T, misses

    def resumable_level(self, target: int) -> int:
        """Level of the retained resumable state for ``target`` (0 if none).

        A pure probe: touches neither the LRU order nor the hit/miss
        stats.  The bounded-memory joins use it to decide whether an
        overflow target has a spilled state worth resuming
        (``0 < resumable_level(q) <= level``) or should be re-walked in
        a fresh batched chunk.
        """
        with self._lock:
            entry = self._entries.get(target)
            if entry is None or entry.state is None:
                return 0
            return entry.state.level

    def scores(
        self,
        target: int,
        level: int,
        count_stats: bool = True,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``h_level(., target)``, walking only the uncached suffix.

        Returns a fresh array: the entries at node ids ``rows`` when
        given, else the whole vector.  Cache hit: that read.  Miss with
        a resumable state at a lower level: extends it, paying
        ``level - state.level`` steps.  Cold miss: a fresh ``level``-step
        walk.  The result is always recorded for future hits.  Pass
        ``count_stats=False`` when the caller already recorded this
        lookup via :meth:`peek`, so one logical request is not
        double-counted.

        Always visits the governor (site ``"cache"``), even on a pure
        hit — deadlines and fault injection must reach loops that the
        warm cache would otherwise serve without a single walk step.
        """
        # Before any bookkeeping: a rejected request must not insert a
        # phantom entry or evict a valid one.
        self._engine._check_target(target)
        self._engine.checkpoint("cache")
        if count_stats:
            hit = self.peek(target, level, rows)
            if hit is not None:
                return hit
        with self._lock:
            entry = self._ensure_entry(target)
            vector = entry.scores.get(level)
            if vector is None:
                vector = self._walk(target, entry, level)
        return _read(vector, rows)

    def _walk(self, target: int, entry: _TargetEntry, level: int) -> np.ndarray:
        """Walk ``target`` to ``level`` (resuming the retained state when
        it is not deeper) and record the vector; lock held by caller."""
        state = entry.state
        resumed_from = 0
        if state is not None and state.level <= level:
            resumed_from = state.level
        else:
            state = WalkState(self._engine, self._params, [target])
        try:
            state.advance_to(level)
        except CorruptedWalkError:
            # Poisoned buffers cannot be trusted at *any* level: drop
            # the retained state and re-walk from scratch (a counted
            # degradation).  A second corruption propagates to the
            # rounds-layer retry.
            self._engine.stats.add("degradations", 1)
            entry.state = None
            self._account(target)
            resumed_from = 0
            state = WalkState(self._engine, self._params, [target])
            state.advance_to(level)
        if resumed_from > 0:
            self.stats.extensions += 1
            self.stats.steps_saved += resumed_from
            # Mirror the resume into the engine currency so spill
            # resumes are visible next to propagation_steps.
            self._engine.stats.add("extensions", 1)
            self._engine.stats.add("steps_saved", resumed_from)
        if entry.state is None or state.level >= entry.state.level:
            entry.state = state
        vector = state.score_column(0)
        vector.setflags(write=False)
        entry.scores[level] = vector
        self._account(target)
        self._evict()
        return vector

    # ------------------------------------------------------------------
    # Donation (batched algorithms feed their walks back)
    # ------------------------------------------------------------------

    def put_scores(self, target: int, level: int, scores: np.ndarray) -> None:
        """Record an externally computed ``h_level(., target)`` vector
        (:meth:`put_block` for a single target)."""
        self.put_block((target,), level, (scores,))

    def put_block(
        self, targets: Sequence[int], level: int, vectors: Iterable[np.ndarray]
    ) -> None:
        """Record externally computed ``h_level(., q)`` vectors, one per
        target, under one lock hold.

        The vectors must come from the step-accumulated score path
        (:class:`WalkState` columns) so cached and freshly walked scores
        stay bit-identical.  The cache takes ownership: an array that
        owns contiguous memory (a freshly finalised column) is frozen
        and stored as is, so the donor's reference turns read-only; a
        view or strided array is copied first.  Anything but float64
        ``(num_nodes,)`` vectors for in-range targets is rejected with
        nothing stored.  Entries are inserted, accounted and evicted
        target by target, in order — the LRU sequence of that many
        single donations.
        """
        n = self._engine.num_nodes
        frozen = []
        for target, scores in zip(targets, vectors):
            self._engine._check_target(target)
            scores = np.asarray(scores)
            if scores.dtype != np.float64 or scores.shape != (n,):
                raise GraphValidationError(
                    f"put_block needs float64 vectors of shape "
                    f"({n},), got {scores.dtype} {scores.shape}"
                )
            if not (scores.flags.owndata and scores.flags.c_contiguous):
                scores = scores.copy()
            scores.setflags(write=False)
            frozen.append(scores)
        with self._lock:
            for target, scores in zip(targets, frozen):
                entry = self._ensure_entry(target)
                entry.scores[level] = scores
                self._account(target)
                self._evict()

    def adopt(self, state: WalkState) -> None:
        """Adopt a single-column resumable state (deepest wins).

        The iterative-deepening joins donate columns here on two
        occasions: a *pruned* target's column, so a later, deeper
        request for that target resumes instead of restarting, and — in
        bounded-memory mode — an overflow *survivor*'s column that no
        longer fits the resumable window (the spill policy), so the next
        deepening round resumes it from here rather than re-walking it
        from level 0.  The caller hands over ownership: the cache may
        extend the state in place.
        """
        if state.width != 1:
            raise GraphValidationError(
                f"adopt() takes a single-column state, got width {state.width}"
            )
        try:
            expected = as_block_kernel(self._params)
        except GraphValidationError:
            # Matrix-backed measures (e.g. SimRank) have no propagation
            # kernel, so there is nothing a donated state could ever be
            # resumed with — a distinct error from a kernel mismatch.
            raise GraphValidationError(
                "cannot adopt a resumable state: this cache's measure has "
                "no resumable walk layer (only score vectors are cached "
                "for matrix-backed measures)"
            ) from None
        if state.kernel != expected:
            raise GraphValidationError(
                "adopted state was walked under a different measure kernel "
                "than this cache"
            )
        target = int(state.targets[0])
        self._engine._check_target(target)
        with self._lock:
            entry = self._ensure_entry(target)
            if entry.state is None or state.level > entry.state.level:
                entry.state = state
            self._account(target)
            self._evict()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _ensure_entry(self, target: int) -> _TargetEntry:
        entry = self._entries.get(target)
        if entry is None:
            entry = _TargetEntry()
            self._entries[target] = entry
        else:
            self._entries.move_to_end(target)
        return entry

    @staticmethod
    def _entry_nbytes(entry: _TargetEntry) -> int:
        total = sum(vector.nbytes for vector in entry.scores.values())
        if entry.state is not None:
            total += entry.state.nbytes
        return total

    def _account(self, target: int) -> None:
        """Refresh the byte bookkeeping for one (mutated) entry."""
        entry = self._entries.get(target)
        if entry is None:
            return
        nbytes = self._entry_nbytes(entry)
        self._total_bytes += nbytes - self._entry_bytes.get(target, 0)
        self._entry_bytes[target] = nbytes

    def _evict(self) -> None:
        while len(self._entries) > self._max_targets:
            self._pop_lru()
        if self._max_bytes is not None:
            # Strict byte bound: evict least-recent targets until the
            # total fits — including, if need be, the entry that was just
            # touched (one entry bigger than the whole budget must not
            # stay resident).
            while self._entries and self._total_bytes > self._max_bytes:
                self._pop_lru()

    def _pop_lru(self) -> None:
        target, _ = self._entries.popitem(last=False)
        self._total_bytes -= self._entry_bytes.pop(target, 0)
        self.stats.evictions += 1
