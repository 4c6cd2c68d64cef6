"""Resumable backward-walk state (the heart of batched iterative deepening).

Backward propagation is a Markov recurrence: the step-``l+1 .. 2l``
masses depend on the past only through the walker mass after step
``l``.  :class:`WalkState` snapshots exactly that — the mass block for
``B`` targets plus the accumulated score prefix
``sum_{i <= l} w_i M_i`` — so a level-``2l`` walk *extends* a
level-``l`` walk instead of restarting it.  ``B-IDJ``'s doubling
schedule ``1, 2, 4, ..., d`` therefore costs ``d`` column-steps per
surviving target instead of the ``1 + 2 + 4 + ... + d (~2d)`` the
restart-per-level seed implementation paid.

The state is measure-generic: everything specific to one measure — the
step weights ``w_i``, whether the propagation is absorbing (DHT's
first-hit Eq. 5) or plain (PPR's every-visit ``S_i``), and how the
prefix folds into scores — lives in a
:class:`~repro.walks.kernels.BlockKernel`.  Passing a
:class:`~repro.core.dht.DHTParams` selects the DHT kernel, preserving
the original behaviour of every DHT call site.

The score prefix is accumulated step-by-step (``acc += w_i M_i``), so
extending a state and walking fresh to the same depth produce
bit-identical scores — every batched/cached/resumable path in the repo
shares this accumulation order.

A state has a **frontier phase**.  The short levels of the doubling
schedule reach the 1-, 2-, 4-hop in-neighbourhood of a target, so from
step 1 mass and prefix are *frontier blocks* — ``(B, n)`` CSR matrices,
one sparse row per target — stepped by the engine's sparse x sparse
product.  Before each step the state asks
:meth:`~repro.walks.engine.WalkEngine.frontier_pays` (the next step's
product bound, from the in-degree profile, against the dense step's
``nnz(T) * B``); the first time the answer is no it commits both
blocks, once, to C-contiguous ``(n, B)`` arrays and is the dense state
from there on — a one-way switch.  The two steps are bit-identical
(same products, same summation order, exact zeros skipped), so nothing
that reads a state — scores, restructuring, bounds, pruning order, the
step counters — can tell which form it is in; only ``nbytes`` and the
wall clock can.

A walk is kept at the rows its readers read: ``WalkState(..., rows=R)``
keeps a ``(|R|, B)`` prefix, with the same products in the same order —
bit-identical scores at ``R``.  A walk with no cache to feed keeps the
join's rows ``P`` and may finish its last steps on a
:class:`RestrictedTail` (dropping its mass); an n-way query's shared
walks keep the sorted union ``U`` of the rows its edges read, and are
read at any subset of it (a ``searchsorted`` gather).

A dense state's buffers cost 16 bytes per node per column (two
``(n, B)`` float64 blocks) — the ceiling the ``"alloc"`` checkpoint
commits to before step 1, since a state may densify at any step; a
frontier state holds what its sparse arrays hold and densifies rather
than exceed what the dense one would.  While :meth:`WalkState.advance_to`
runs dense steps it also keeps the block the last step propagated from:
that dead block is the next step's output buffer
(:func:`~repro.walks.kernels.dense_step` writes into it), so only the
first dense step of a call allocates.  A full-width walk holds mass
and prefix, plus that transient third block while it steps; a
row-restricted one holds its mass plus the step's spare, and a
``(|R|, B)`` prefix.  :meth:`WalkState.advance_to` reports each
materialisation to ``engine.stats.peak_block_bytes``, the counter a
``QueryBudget.max_bytes`` ceiling (the widths every block operator
plans under it) is audited against.  :meth:`WalkState.scores_at` is what the joins read:
the scores of a block at the left set's rows, one row gather of the
prefix instead of a full-graph vector per column
(:meth:`WalkState.score_column`, which only a full-width walk donated to
a walk cache still uses).  :meth:`WalkState.select` narrows a block to surviving columns,
:meth:`WalkState.extract_column` copies one out (cache
adoption — including the bounded rounds' spill of overflow survivors),
and :meth:`WalkState.concat` re-packs same-level blocks — together they
let :class:`~repro.walks.rounds.DeepeningRounds` keep the resumable
window of ``B-IDJ``, under DHT or any kernel measure, under a byte budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np
from scipy import sparse

from repro.exec.budget import CorruptedWalkError
from repro.graph.validation import GraphValidationError
from repro.walks.engine import WalkEngine, block_rows, dense_block
from repro.walks.kernels import BlockKernel, as_block_kernel

if TYPE_CHECKING:  # avoid a runtime cycle: core.dht imports repro.walks
    from repro.core.dht import DHTParams


def _nbytes(block) -> int:
    """Bytes held by a walk block of either form."""
    if sparse.issparse(block):
        return block.data.nbytes + block.indices.nbytes + block.indptr.nbytes
    return block.nbytes


def _values(block) -> np.ndarray:
    """Every entry a block can hold a non-zero in."""
    return block.data if sparse.issparse(block) else block


def row_positions(scope: np.ndarray, rows) -> Optional[np.ndarray]:
    """Where node ids ``rows`` sit in the sorted id array ``scope``, or
    ``None`` when some of them lie outside it."""
    at = np.searchsorted(scope, rows)
    if at.size and (at.max() >= scope.size or not np.array_equal(scope[at], rows)):
        return None
    return at


class RestrictedTail:
    """Row-sliced operators for the last walk steps: step ``d`` needs
    mass at ``R_0 = rows`` only, step ``d - 1`` at ``R_1 =
    out_nbrs(R_0) | R_0``, and so on, with ``A_j = T[R_j][:, R_{j+1}]``
    for as many levels (at most ``d - 1``) as the slice stays under half
    of ``nnz(T)``.  Shared through ``BoundPlanCache.tail_plan``.
    """

    def __init__(self, engine: WalkEngine, rows: Sequence[int], d: int) -> None:
        engine.stats.add("plan_builds", 1)
        transition = engine.graph.transition_matrix()
        out_degrees = np.diff(transition.indptr)
        budget = transition.nnz // 2
        base = np.sort(np.asarray(rows, dtype=np.int64))
        self.node_sets: List[np.ndarray] = [base]
        self.operators: List = []
        while len(self.operators) < d - 1:
            current = self.node_sets[-1]
            if int(out_degrees[current].sum()) > budget:
                break
            sliced = transition[current]
            keep = np.zeros(transition.shape[1], dtype=bool)  # O(n), no sort
            keep[sliced.indices] = keep[base] = True
            bigger = np.flatnonzero(keep)
            self.operators.append(sliced[:, bigger])
            self.node_sets.append(bigger)

    @property
    def depth(self) -> int:
        """Number of final steps the plan can serve."""
        return len(self.operators)


class WalkState:
    """Resumable backward walk over a block of targets.

    Parameters
    ----------
    engine:
        Walk engine of the graph being walked.
    params:
        A :class:`~repro.core.dht.DHTParams` (selects the first-hit DHT
        kernel) or any :class:`~repro.walks.kernels.BlockKernel`
        (e.g. the PPR kernel), used to fold step masses into scores.
    targets:
        Target node ids, one per block column.  Duplicates are allowed
        (columns propagate independently).
    rows:
        Distinct node ids to keep the score prefix at (``None``: every
        node); such a state is read only through ``scores_at`` — at
        ``rows``, or at any subset of them when ``rows`` is sorted —
        never as full columns.

    Notes
    -----
    A fresh state sits at ``level = 0``; :meth:`advance_to` runs
    propagation steps for all columns at once (one sparse product per
    step: sparse x sparse on the frontier, CSR x dense after the
    switch).  :meth:`scores_at` / :meth:`scores_matrix` /
    :meth:`score_column` convert the accumulated prefix into truncated
    scores ``h_level(u, target)`` — at chosen rows, everywhere, or for
    one column.  Memory: two ``(B, n)`` sparse frontier blocks, then two
    ``(n, B)`` float64 arrays, plus a third — the dead block the next
    dense step writes into — only while :meth:`advance_to` runs (a
    row-restricted state's prefix is ``(|rows|, B)`` from step 1 on).
    """

    __slots__ = ("_engine", "_params", "_kernel", "_targets", "_rows", "_level",
                 "_mass", "_acc")

    def __init__(
        self, engine: WalkEngine, params: "DHTParams | BlockKernel",
        targets: Sequence[int], rows: Optional[Sequence[int]] = None,
    ) -> None:
        self._engine = engine
        self._params = params
        self._kernel = as_block_kernel(params)
        self._targets = engine._check_target_block(targets)
        self._rows = None if rows is None else np.asarray(rows, dtype=np.int64)
        self._level = 0
        # The level-0 blocks (one-hot mass, zero prefix) are implicit;
        # buffers materialise on the first advance_to() step.  Both are
        # (B, n) CSR frontier blocks or both (n, B) arrays, except that
        # a row-restricted prefix is a (|rows|, B) array and a finished
        # state (see advance_to) has no mass.
        self._mass = None
        self._acc = None

    @classmethod
    def _restore(
        cls,
        engine: WalkEngine,
        params: DHTParams,
        targets: np.ndarray,
        rows: Optional[np.ndarray],
        level: int,
        mass,
        acc,
    ) -> "WalkState":
        state = cls.__new__(cls)
        state._engine = engine
        state._params = params
        state._kernel = as_block_kernel(params)
        state._targets = targets
        state._rows = rows
        state._level = level
        state._mass = mass
        state._acc = acc
        state._fit()
        return state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def engine(self) -> WalkEngine:
        """The engine this state walks on."""
        return self._engine

    @property
    def params(self) -> "DHTParams | BlockKernel":
        """The params/kernel object the state was created with."""
        return self._params

    @property
    def kernel(self) -> BlockKernel:
        """The block kernel the score prefix is accumulated with."""
        return self._kernel

    @property
    def targets(self) -> np.ndarray:
        """Target ids, one per column (do not mutate)."""
        return self._targets

    @property
    def level(self) -> int:
        """Number of Eq. 5 steps walked so far."""
        return self._level

    @property
    def rows(self) -> Optional[np.ndarray]:
        """The node ids the score prefix is kept at (``None``: every
        node)."""
        return self._rows

    @property
    def width(self) -> int:
        """Number of block columns ``B``."""
        return self._targets.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes held by the materialised buffers (0 at level 0)."""
        if self._acc is None:
            return 0
        return _nbytes(self._acc) + (0 if self._mass is None else _nbytes(self._mass))

    @property
    def _dense_nbytes(self) -> int:
        """What the dense state's mass and prefix arrays cost."""
        n = self._engine.num_nodes
        return 8 * (n + (n if self._rows is None else self._rows.size)) * self.width

    def _densify(self) -> None:
        """Leave the frontier phase: commit the blocks, once, to
        C-contiguous ``(n, B)`` arrays (there is no way back)."""
        self._mass = dense_block(self._mass)
        self._acc = dense_block(self._acc)

    def _fit(self) -> None:
        """A frontier state never holds more than the dense one would."""
        if sparse.issparse(self._mass) and self.nbytes > self._dense_nbytes:
            self._densify()

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def advance_to(
        self, level: int, tail: Optional[RestrictedTail] = None
    ) -> "WalkState":
        """Extend the walk to ``level`` steps (no-op if already there).

        A state can only move forward — the propagation recurrence
        cannot be run backwards — so ``level`` below the current one
        raises.  A ``tail`` over a row-restricted state's rows runs the
        last ``tail.depth`` steps, committed together, and finishes the
        state.  Returns ``self`` for chaining.
        """
        if level < self._level:
            raise GraphValidationError(
                f"cannot rewind a walk state from level {self._level} to {level}"
            )
        if level > self._level and self._acc is not None and self._mass is None:
            raise GraphValidationError("a finished walk cannot be extended")
        if tail is not None and (self._rows is None or not np.array_equal(
            np.sort(self._rows), tail.node_sets[0]
        )):
            raise GraphValidationError("a tail needs a state at its rows")
        engine, targets = self._engine, self._targets
        if level > self._level and self._acc is None:
            # Cold materialisation commits up to two (n, B) float64
            # blocks (mass and prefix, or mass and the dense step's
            # spare) — the walk starts on the frontier but may densify
            # at any step — so let the governor veto that ceiling
            # *before* any memory exists (16 bytes per node per column).
            engine.checkpoint("alloc", nbytes=16 * engine.num_nodes * self.width)
        # The tail's steps (never step 1, the one-hot gather).
        tail_from = level + 1 if tail is None else max(2, level - tail.depth + 1)
        rows = self._rows
        # The dense steps ping-pong two mass buffers: each writes into
        # the block the step before it propagated from, so only the
        # first dense step of a call allocates.
        spare = None
        while self._level < min(level, tail_from - 1):
            i = self._level + 1
            weight = self._kernel.weight(i)
            if i == 1:
                # One-hot start: step 1 is a column gather of T.
                self._mass = engine.backward_onehot_step(targets)
                held = self._mass if rows is None else block_rows(self._mass, rows)
                self._acc = held * weight
            else:
                if sparse.issparse(self._mass) and not engine.frontier_pays(
                    self._mass
                ):
                    self._densify()
                # Absorbing kernels (DHT first hits) zero each column's
                # target entry before propagating; plain kernels (PPR)
                # skip the zeroing, which `first=True` selects.
                spent = self._mass
                first = not self._kernel.absorbing
                if sparse.issparse(spent):
                    self._mass = engine.backward_block_step(spent, targets, first)
                    held = self._mass if rows is None else block_rows(self._mass, rows)
                    self._acc = self._acc + held * weight
                else:
                    # A full-width prefix update rides in the step; the
                    # dead block takes the next step's product.
                    self._mass = engine.backward_block_step(
                        spent, targets, first, out=spare,
                        fold=None if rows is not None else (weight, self._acc),
                    )
                    if rows is not None:
                        self._acc += self._mass[rows] * weight
                    spare = spent
            self._level = i
        if self._level < level:
            self._finish_on(tail, level)
        if self._acc is not None:
            self._fit()
            engine.stats.record_block_bytes(self.nbytes)
            governor = engine.governor
            if governor is not None and governor.validate_walks:
                # Detect poisoned mass *before* the block's scores can be
                # consumed, donated to a cache, or folded into results.
                if not (
                    np.isfinite(_values(self._acc)).all()
                    and (self._mass is None or np.isfinite(_values(self._mass)).all())
                ):
                    raise CorruptedWalkError(
                        f"non-finite walk mass at level {self._level} for "
                        f"targets {targets.tolist()}"
                    )
        return self

    def _finish_on(self, tail: RestrictedTail, level: int) -> None:
        """The steps up to ``level`` on the tail — each maps the mass on
        ``R_c`` (``c`` steps left) onto ``R_{c-1}`` — committed at the end."""
        mass = block_rows(self._mass, tail.node_sets[level - self._level])
        acc = self._acc.copy()
        for i in range(self._level + 1, level + 1):
            c = level - i + 1
            mass = self._engine.backward_block_step(
                mass, self._targets, not self._kernel.absorbing,
                restricted=(tail.operators[c - 1], tail.node_sets[c]),
            )
            at = np.searchsorted(tail.node_sets[c - 1], self._rows)
            acc += mass[at] * self._kernel.weight(i)
        self._mass, self._acc, self._level = None, acc, level

    # ------------------------------------------------------------------
    # Scores
    # ------------------------------------------------------------------

    def scores_matrix(self) -> np.ndarray:
        """Truncated scores ``h_level(u, target_j)`` as an ``(n, B)`` array.

        Freshly allocated; the kernel owns the reflexive-entry
        convention (DHT leaves the return-walk artefact, which callers
        ignore; PPR folds in the self-visit term).  At level 0 every
        score is the kernel's empty-sum floor.
        """
        if self._acc is None:
            return self._kernel.empty_scores(self._engine.num_nodes, self._targets)
        return self._kernel.finalize(dense_block(self._acc), self._targets)

    def score_column(self, j: int) -> np.ndarray:
        """Scores of column ``j`` as a fresh length-``n`` vector."""
        acc = self._acc
        if acc is None:
            return self._kernel.empty_scores(
                self._engine.num_nodes, self._targets[j : j + 1]
            )[:, 0]
        if sparse.issparse(acc):
            start, end = acc.indptr[j], acc.indptr[j + 1]
            column = np.zeros(self._engine.num_nodes, dtype=np.float64)
            column[acc.indices[start:end]] = acc.data[start:end]
        else:
            column = acc[:, j]
        return self._kernel.finalize_column(column, int(self._targets[j]))

    def scores_at(self, rows: np.ndarray) -> np.ndarray:
        """Scores at node ids ``rows`` as a fresh ``(|rows|, B)`` array,
        bit-identical to ``scores_matrix()[rows]``.

        One gather of prefix rows (contiguous ones once the state is
        dense), then the kernel's fold on ``|rows| * B`` entries — the
        joins' read, which never touches the other ``n - |rows|`` rows
        of the block.  A row-restricted state is read at its own rows
        or, when those are sorted, at any subset of them (one
        ``searchsorted`` gather).
        """
        if self._acc is None:
            return self._kernel.empty_scores(
                self._engine.num_nodes, self._targets
            )[rows]
        if self._rows is None:
            held = block_rows(self._acc, rows)
        elif rows is self._rows or np.array_equal(rows, self._rows):
            held = self._acc
        else:
            at = row_positions(self._rows, rows)
            if at is None:
                raise GraphValidationError(
                    "a row-restricted walk is read inside its rows"
                )
            held = self._acc[at]
        return self._kernel.finalize_rows(held, rows, self._targets)

    # ------------------------------------------------------------------
    # Restructuring
    # ------------------------------------------------------------------

    def select(self, indices: Sequence[int]) -> "WalkState":
        """A new state narrowed to the given column indices.

        Used by ``B-IDJ`` to drop pruned targets between deepening
        rounds; the returned state owns copies of the selected columns.
        """
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))

        def take(block):
            if block is None:
                return None
            if sparse.issparse(block):
                return block[indices]
            return np.take(block, indices, axis=1)

        return WalkState._restore(
            self._engine,
            self._params,
            self._targets[indices].copy(),
            self._rows,
            self._level,
            take(self._mass),
            take(self._acc),
        )

    def extract_column(self, j: int) -> "WalkState":
        """A single-column copy of column ``j`` (for cache adoption)."""
        return self.select([j])

    @staticmethod
    def concat(states: Sequence["WalkState"]) -> "WalkState":
        """Pack same-level states into one block (columns concatenated).

        All states must share the engine, params, rows and level — Eq. 5
        columns propagate independently, so re-packing changes nothing
        about future steps.  ``B-IDJ``'s bounded-memory rounds use this
        to fold the survivors of this round's throwaway chunks into the
        retained resumable window.  The result owns fresh buffers: a
        frontier block when every piece is still one, dense otherwise;
        a finished state cannot be re-packed.
        """
        if not states:
            raise GraphValidationError("concat needs at least one state")
        first = states[0]
        for state in states[1:]:
            if state._engine is not first._engine:
                raise GraphValidationError(
                    "concat needs states bound to the same engine"
                )
            if state._kernel != first._kernel:
                raise GraphValidationError(
                    "concat needs states with identical measure kernels"
                )
            if state._level != first._level:
                raise GraphValidationError(
                    f"concat needs states at one level, got "
                    f"{state._level} != {first._level}"
                )
            if not np.array_equal(state._rows, first._rows):  # None == None
                raise GraphValidationError("concat needs states at one set of rows")
        if len(states) == 1:
            return first.select(np.arange(first.width))
        targets = np.concatenate([s._targets for s in states])
        if first._acc is None:
            mass = acc = None
        elif all(sparse.issparse(s._mass) for s in states):
            mass = sparse.vstack([s._mass for s in states], format="csr")
            acc = (sparse.vstack([s._acc for s in states], format="csr")
                   if first._rows is None else np.hstack([s._acc for s in states]))
        else:
            mass = np.hstack([dense_block(s._mass) for s in states])
            acc = np.hstack([dense_block(s._acc) for s in states])
        return WalkState._restore(
            first._engine, first._params, targets, first._rows, first._level,
            mass, acc,
        )
