"""Shared deepening-round walk machinery for the backward joins.

``B-IDJ`` runs one walk plan under DHT and under every kernel measure,
and ``B-BJ`` runs its final level alone (a fresh plan per block of
targets, one ``walk_level`` at full depth):
at each doubling level, feed every active target's scores *at the
join's left rows* to a pruning step, one ``(|rows|, B)`` block per
resolved group of targets, keeping one resumable
:class:`~repro.walks.state.WalkState` block so level ``2l`` extends
level ``l`` instead of restarting.  :class:`DeepeningRounds` is that
plan, so the bounded-memory mode — and its spill policy — exist exactly
once, for every measure (each has a block kernel).  A state keeps its
prefix only at the rows somebody reads: a cache-less round at the
caller's rows, a round sharing a cache at its *scope* (an n-way query's
reader rows, donated as ``(|scope|,)`` vectors).  Full length-``n``
score vectors are finalised only by an unscoped round, to donate them to
a cache whose readers are unknown (a two-way query on a shared tier).
The cache is read and fed per group of targets: :func:`triage` is one
``peek_block``, a walked part is donated with one ``put_block``.

**The ceiling** is the calling thread's ``QueryBudget.max_bytes`` —
the one walk-block ceiling, read once per join by
:func:`columns_for_budget` under the model of 16 bytes per node per
column (walker mass plus score prefix, both dense; a block still in its
frontier phase holds less, never more).  Every block operator plans its
width under it *before* walking — these rounds and ``B-BJ``'s block
width alike — so the governor's ``"alloc"`` veto never has to discover
it.

**Unbounded mode** (no byte budget): one full-width resumable block
carries every walking target across levels; targets that fall out of
the block (served by the walk cache at an earlier level, then missing)
are resumed through the cache's single-column path.

**Bounded mode**: the resumable *window* is capped at the ceiling's
column count.  Overflow targets are walked in throwaway chunks of the
same width, and the window is re-packed from this round's survivors
(:meth:`~repro.walks.state.WalkState.concat`) after each pruning step.
Survivors that do not fit the window are **spilled**: their
single-column states are donated into the walk cache via
:meth:`~repro.walks.cache.WalkCache.adopt` (under the cache's existing
LRU budget), and the next round *resumes* them from the cache instead
of re-walking from level 0 — the restart steps the old drop-and-re-walk
policy paid become ``extensions`` / ``steps_saved`` counters (mirrored
into :class:`~repro.walks.engine.WalkEngineStats`).  Without a cache
there is nowhere to spill, and overflow survivors restart per level as
before.

**Adaptive backoff** (the governed robustness layer): an allocation
failure (a real ``MemoryError`` or an injected one) does not abort the
round.  The failing block is split in half, the window capacity is
halved for the rest of the query, and the halves retry — a bounded,
counted backoff (``alloc_retries`` / ``degradations`` in
:class:`~repro.walks.engine.WalkEngineStats`) that bottoms out at
single-column blocks, where a failure is genuine exhaustion and
propagates.  A block whose mass validation detects corruption
(:class:`~repro.exec.budget.CorruptedWalkError`, e.g. an injected NaN)
is discarded and re-walked fresh a bounded number of times.

Scores are bit-identical across all modes (Eq. 5 columns propagate
independently and the prefix accumulation order is fixed), so the
joins' top-``k`` outputs and pruning traces never depend on the memory
budget — only ``propagation_steps`` / ``peak_block_bytes`` /
``extensions`` do.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exec.budget import BudgetExhaustedError, CorruptedWalkError
from repro.graph.validation import GraphValidationError
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine
from repro.walks.state import RestrictedTail, WalkState, row_positions

# Bounded attempts at re-walking a corrupted block before giving up; a
# walk that keeps producing non-finite mass is a broken environment, not
# a transient fault.
REWALK_ATTEMPTS = 3

# The ceiling model: a resumable block costs at most two (n, B) float64
# buffers: walker mass plus the score prefix for a cached walk (which
# holds a transient third, the dense step's spare, while it steps), or
# mass plus the spare for a cache-less one, whose prefix covers only the
# join's rows.  A block on the sparse frontier holds less, but may
# densify at any step, so every width is planned — and every allocation
# vetoed — against the ceiling.
BYTES_PER_COLUMN_NODE = 16

# ``consume(targets, block)``: ``block[i, j]`` is the level's score of
# node ``rows[i]`` to ``targets[j]``; the block is the consumer's to keep.
Consumer = Callable[[Sequence[int], np.ndarray], None]


def triage(
    engine: WalkEngine,
    cache: Optional[WalkCache],
    targets: Sequence[int],
    level: int,
    rows: np.ndarray,
) -> Tuple[List[int], Optional[np.ndarray], List[int]]:
    """Split ``targets`` into cache hits — with their ``(|rows|, H)``
    score block, one :meth:`~repro.walks.cache.WalkCache.peek_block` —
    and the misses somebody has to walk (everything, without a cache).

    One governor call first, counted as ``len(targets)`` visits (site
    ``"cache"``): even a fully cache-served pass must stay interruptible
    by deadlines and fault injection, but it pays per block, not per
    target.
    """
    engine.checkpoint("cache", count=len(targets))
    if cache is None:
        return [], None, list(targets)
    return cache.peek_block(targets, level, rows)


def columns_for_budget(engine: WalkEngine) -> Optional[int]:
    """Widest block the calling thread's byte budget allows (``None``:
    no byte budget, so no ceiling).

    The single source of the block-layout cost model — every clamp in
    the join stack (window width, chunk width, ``B-BJ`` block width)
    derives from it, so a layout change cannot desynchronise them.  It
    reads ``engine.governor``, which is thread-local, so call it when
    the join runs, not when it is built.
    A budget below one column's cost is infeasible: a single column is
    the smallest block the propagation can run, so the query stops with
    ``reason="bytes"`` and a message naming the minimum feasible budget.
    """
    governor = engine.governor
    max_bytes = None if governor is None else governor.budget.max_bytes
    if max_bytes is None:
        return None
    minimum = BYTES_PER_COLUMN_NODE * engine.num_nodes
    columns = max_bytes // minimum
    if columns < 1:
        raise BudgetExhaustedError(
            "bytes",
            f"max_bytes={max_bytes} cannot fit a single walk column: one "
            f"column costs {BYTES_PER_COLUMN_NODE} bytes per node x "
            f"{engine.num_nodes} nodes = {minimum} bytes, the minimum "
            f"feasible budget for this graph",
        )
    return columns


class DeepeningRounds:
    """Resumable walk rounds with an optional byte-ceilinged window.

    Built when the join runs: the window width is planned from the
    calling thread's byte budget (:func:`columns_for_budget`).

    Parameters
    ----------
    engine:
        The graph's walk engine.
    params:
        A :class:`~repro.core.dht.DHTParams` or any
        :class:`~repro.walks.kernels.BlockKernel` — whatever
        :class:`~repro.walks.state.WalkState` accepts.
    cache:
        Optional :class:`~repro.walks.cache.WalkCache` bound to the same
        engine and measure.  Hits are read at the caller's rows; walked
        levels are donated (``put_block``), and in bounded mode it
        doubles as the spill target for overflow survivors.  Without
        one, states keep their score prefix at the caller's rows only.
    scope:
        With a cache, the sorted node ids the cache's readers read
        (``None``: unknown, so every node).  States keep their prefix
        there and donate ``(|scope|,)`` vectors; only an unscoped round
        — a two-way query on a shared cache — finalises full-width
        columns, to donate them.  Every ``rows`` a caller passes must
        lie inside it.
    """

    def __init__(
        self,
        engine: WalkEngine,
        params: object,
        cache: Optional[WalkCache],
        scope: Optional[np.ndarray] = None,
    ) -> None:
        self._engine = engine
        self._params = params
        self._cache = cache
        self._max_cols = columns_for_budget(engine)
        # The states' prefix rows (a cache-less round's are the caller's,
        # set per walk) and a cache-less round's final-level tail plan.
        self._rows: Optional[np.ndarray] = None if cache is None else scope
        self._tail: Optional[RestrictedTail] = None
        # ``(rows, their positions in the scope)`` of the last scoped read.
        self._at: Tuple[Optional[np.ndarray], Optional[np.ndarray]] = (None, None)
        self._state: Optional[WalkState] = None  # retained resumable window
        self._state_cols: Dict[int, int] = {}
        # This round's repack candidates (window + a budgeted prefix of
        # the throwaway chunks), for prune-time cache donation and
        # survivor re-packing.
        self._round_chunks: List[Tuple[WalkState, List[int]]] = []
        self._walked: Dict[int, Tuple[WalkState, int]] = {}

    @property
    def max_cols(self) -> Optional[int]:
        """Window capacity in columns (``None`` = unbounded)."""
        return self._max_cols

    def walk_level(
        self,
        active: Sequence[int],
        level: int,
        rows: np.ndarray,
        consume: Consumer,
        tail: Optional[RestrictedTail] = None,
    ) -> None:
        """Feed every active target's ``level`` scores at node ids
        ``rows`` to ``consume(targets, block)``, one ``(|rows|,
        len(targets))`` block per resolved group — nothing is retained
        here.  ``rows`` is the same array at every level of a join; a
        cache-less round finishes its states on ``tail`` (a plan over
        ``rows``, for the last level), which a cached round ignores.

        Resolution order per target: cached vector (no walk), the
        retained resumable window (extended in batch), then the cache's
        single-column resume path — in unbounded mode for any target
        that fell out of the block, in bounded mode for targets whose
        spilled state can be extended (``0 < resumable_level <=
        level``).  Whatever remains is walked in throwaway chunks of at
        most ``max_cols`` columns; only the first ``max_cols`` columns'
        worth of chunks stay alive as repack candidates, the rest donate
        their columns to the cache (the spill) and are dropped as soon
        as their block is consumed, so the round's live walk blocks
        stay ``O(max_bytes)`` no matter how large the active set
        is.  The groups are: all cache hits, each advanced part of the
        window, all resumed targets, each throwaway chunk.
        """
        with self._engine.trace_span(
            "walk_level", level=level, targets=len(active)
        ):
            if self._cache is None:
                self._rows, self._tail = rows, tail
            self._walk_level(active, level, rows, consume)

    def _walk_level(
        self,
        active: Sequence[int],
        level: int,
        rows: np.ndarray,
        consume: Consumer,
    ) -> None:
        cache = self._cache
        self._round_chunks = []
        self._walked = {}
        hits, hit_block, missed = triage(self._engine, cache, active, level, rows)
        resident: List[int] = []
        resume: List[int] = []
        pending: List[int] = []
        for q in missed:
            if self._state is not None and q in self._state_cols:
                resident.append(q)
            elif cache is not None and (
                (self._max_cols is None and self._state is not None)
                or 0 < cache.resumable_level(q, rows) <= level
                # A scoped walk of a target held full width would be
                # dropped; the cache walks it at its entry's width.
                or (self._rows is not None and cache.holds_full_width(q))
            ):
                resume.append(q)
            else:
                pending.append(q)
        if hits:
            consume(hits, hit_block)
        if self._state is None and pending:
            # Cold start: the first walking round claims residency.
            claim = (
                pending if self._max_cols is None else pending[: self._max_cols]
            )
            pending = pending[len(claim):]
            self._state = self._new_state(claim)
            self._state_cols = {q: j for j, q in enumerate(claim)}
            resident = claim
        if self._state is not None:
            if resident:
                parts = self._advance_parts(self._state, level)
            else:
                parts = [(self._state, [int(t) for t in self._state.targets])]
            column_of: Dict[int, Tuple[WalkState, int]] = {}
            for part, part_targets in parts:
                self._round_chunks.append((part, part_targets))
                for j, q in enumerate(part_targets):
                    column_of[q] = (part, j)
            if len(parts) == 1:
                self._state = parts[0][0]
                self._state_cols = {q: j for j, q in enumerate(parts[0][1])}
            else:
                # The backoff split the window; repack() rebuilds it from
                # this round's chunks under the narrowed budget.
                self._state, self._state_cols = None, {}
            for q in resident:
                self._walked[q] = column_of[q]
            for part, part_targets in parts:
                # In `resident` (= active) order, which the window's
                # column order need not be: donation order is LRU order.
                columns = [
                    column_of[q][1] for q in resident if column_of[q][0] is part
                ]
                self._feed(part, part_targets, columns, level, rows, consume)
        if resume:
            # The peek above already recorded these misses; scores()
            # resumes the cache's single-column state (adopted spill or
            # earlier donation), paying only the missing steps.
            consume(resume, np.stack(
                [cache.scores(q, level, count_stats=False, rows=rows)
                 for q in resume],
                axis=1,
            ))
        if pending:  # bounded-mode overflow (or cache-less cold targets)
            width = self._max_cols if self._max_cols is not None else len(pending)
            candidate_cols = 0
            queue = list(pending)
            while queue:
                group = queue[: max(width, 1)]
                queue = queue[len(group):]
                parts = self._advance_parts(self._new_state(group), level)
                # A backoff may have narrowed the budget mid-loop.
                if self._max_cols is not None:
                    width = self._max_cols
                for chunk, chunk_targets in parts:
                    retain = (
                        self._max_cols is None or candidate_cols < self._max_cols
                    )
                    if retain:
                        candidate_cols += len(chunk_targets)
                        self._round_chunks.append((chunk, chunk_targets))
                        for j, q in enumerate(chunk_targets):
                            self._walked[q] = (chunk, j)
                    every = range(len(chunk_targets))
                    self._feed(chunk, chunk_targets, every, level, rows, consume)
                    if not retain:
                        # Survivors of this chunk are not known until the
                        # pruning step, by which time the chunk is gone —
                        # spill every column now; pruned ones simply age
                        # out of the cache's LRU.
                        self._spill(chunk, every)

    def _feed(
        self,
        part: WalkState,
        targets: List[int],
        columns: Sequence[int],
        level: int,
        rows: np.ndarray,
        consume: Consumer,
    ) -> None:
        """Hand the given columns of a walked block to the consumer as
        one ``rows``-restricted block, donating each column — at the
        scope, or full width when the round has none — when there is a
        cache to take it."""
        if not columns:
            return
        fed = [targets[j] for j in columns]
        cache, scope = self._cache, self._rows
        if cache is None:
            block = part.scores_at(rows)
        elif scope is None:
            cache.put_block(fed, level, map(part.score_column, columns))
            block = part.scores_at(rows)
        else:
            scoped = part.scores_at(scope)
            cache.put_block(fed, level, (scoped[:, j] for j in columns), scope)
            block = scoped[self._positions(rows)]
        if list(columns) != list(range(part.width)):
            block = np.take(block, columns, axis=1)
        consume(fed, block)

    def _positions(self, rows: np.ndarray) -> np.ndarray:
        """Where the caller's ``rows`` sit in a scoped round's scope."""
        if self._at[0] is not rows:
            at = row_positions(self._rows, rows)
            if at is None:
                raise GraphValidationError("a scoped round is read inside its scope")
            self._at = (rows, at)
        return self._at[1]

    def _new_state(self, targets: Sequence[int]) -> WalkState:
        return WalkState(self._engine, self._params, targets, rows=self._rows)

    def _advance_parts(
        self, state: WalkState, level: int
    ) -> List[Tuple[WalkState, List[int]]]:
        """Advance ``state`` to ``level``, degrading instead of aborting.

        An allocation failure splits the block in half, narrows the
        window budget, and retries the halves (the adaptive backoff); a
        corrupted block is re-walked fresh.  Returns
        the advanced parts with their target lists — one part when
        nothing degraded, several after a split.
        """
        todo: List[WalkState] = [state]
        done: List[WalkState] = []
        while todo:
            part = todo.pop()
            try:
                part.advance_to(level, self._tail)
            except MemoryError:
                if part.width == 1:
                    raise  # a single column is the floor; genuine exhaustion
                half = part.width // 2
                self._note_backoff(half)
                todo.append(part.select(list(range(half, part.width))))
                todo.append(part.select(list(range(half))))
                continue
            except CorruptedWalkError:
                part = self._rewalk(part, level)
            done.append(part)
        return [(part, [int(t) for t in part.targets]) for part in done]

    def _note_backoff(self, new_cols: int) -> None:
        """Record one allocation-backoff retry and narrow the window."""
        stats = self._engine.stats
        stats.add("alloc_retries", 1)
        stats.add("degradations", 1)
        new_cols = max(1, new_cols)
        if self._max_cols is None or new_cols < self._max_cols:
            self._max_cols = new_cols

    def _rewalk(self, state: WalkState, level: int) -> WalkState:
        """Replace a corrupted block with a fresh walk (bounded retries)."""
        targets = [int(t) for t in state.targets]
        for _ in range(REWALK_ATTEMPTS):
            self._engine.stats.add("degradations", 1)
            try:
                return self._new_state(targets).advance_to(level, self._tail)
            except CorruptedWalkError:
                continue
        raise CorruptedWalkError(
            f"re-walking targets {targets} kept producing non-finite mass "
            f"after {REWALK_ATTEMPTS} attempts"
        )

    def donate_pruned(self, pruned: Iterable[int]) -> None:
        """Donate pruned targets' walked columns to the cache, so later
        (deeper) joins resume them instead of restarting."""
        if self._cache is None:
            return
        for q in pruned:
            held = self._walked.get(q)
            if held is not None:
                holder, column = held
                self._cache.adopt(holder.extract_column(column))

    def repack(self, survivors: set, level: int) -> None:
        """Narrow this round's walked blocks and fold them into the next
        retained window.

        Unbounded mode has a single part (the full-width block):
        narrowing it in place preserves the original behaviour,
        including the no-copy fast path when nothing was pruned from the
        block.  Bounded mode packs survivor columns — window first, then
        this round's throwaway chunks — until the ``max_cols`` budget is
        full; the overflow survivors are spilled to the cache (resumed
        next level) or, cache-less, dropped and re-walked.  Only parts
        at this round's ``level`` are concatenated (the window can lag a
        round when all its targets were cache-served); a lagging window
        is kept only when nothing newer survived, and spilled otherwise.
        """
        narrowed: List[Tuple[WalkState, List[int]]] = []
        for st, targets in self._round_chunks:
            kept_cols = [j for j, q in enumerate(targets) if q in survivors]
            if not kept_cols:
                continue
            kept_targets = [targets[j] for j in kept_cols]
            if len(kept_cols) != st.width:
                st = st.select(kept_cols)
            narrowed.append((st, kept_targets))
        if not narrowed:
            self._state, self._state_cols = None, {}
            return
        current = [p for p in narrowed if p[0].level == level]
        if not current:
            current = narrowed[:1]
        current_ids = {id(p[0]) for p in current}
        pieces: List[WalkState] = []
        packed: List[int] = []
        for st, targs in current:
            if self._max_cols is not None:
                room = self._max_cols - len(packed)
                if room <= 0:
                    self._spill(st, range(st.width))
                    continue
                if len(targs) > room:
                    self._spill(st, range(room, st.width))
                    st = st.select(list(range(room)))
                    targs = targs[:room]
            pieces.append(st)
            packed.extend(targs)
        for st, _ in narrowed:  # lagging parts superseded by newer chunks
            if id(st) not in current_ids:
                self._spill(st, range(st.width))
        self._state = pieces[0] if len(pieces) == 1 else WalkState.concat(pieces)
        self._state_cols = {q: j for j, q in enumerate(packed)}

    def _spill(self, state: WalkState, columns: Iterable[int]) -> None:
        """Donate the given columns' resumable states to the cache."""
        if self._cache is None:
            return
        for j in columns:
            self._cache.adopt(state.extract_column(j))

