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

A dense state's buffers cost 16 bytes per node per column (two
``(n, B)`` float64 blocks) — the ceiling the ``"alloc"`` checkpoint
commits to before step 1, since a state may densify at any step; a
frontier state holds what its sparse arrays hold and densifies rather
than exceed that.  While :meth:`WalkState.advance_to` runs dense steps
it also keeps the block the last step propagated from: that dead block
is the next step's output buffer (:func:`~repro.walks.kernels.dense_step`
writes into it), so only the first dense step of a call allocates, and
it is dropped when the call returns — between calls a state holds its
two blocks and nothing else.  :meth:`WalkState.advance_to` reports each
materialisation to ``engine.stats.peak_block_bytes``, the counter a
``QueryBudget.max_bytes`` ceiling (the widths every block operator
plans under it) is audited against.  :meth:`WalkState.scores_at` is what the joins read:
the scores of a block at the left set's rows, one row gather of the
prefix instead of a full-graph vector per column
(:meth:`WalkState.score_column`, which only walk-cache donation still
uses).  :meth:`WalkState.select` narrows a block to surviving columns,
:meth:`WalkState.extract_column` copies one out (cache
adoption — including the bounded rounds' spill of overflow survivors),
and :meth:`WalkState.concat` re-packs same-level blocks — together they
let :class:`~repro.walks.rounds.DeepeningRounds` keep the resumable
window of ``B-IDJ``, under DHT or any kernel measure, under a byte budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

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
    dense step writes into — only while :meth:`advance_to` runs.
    """

    __slots__ = ("_engine", "_params", "_kernel", "_targets", "_level", "_mass", "_acc")

    def __init__(
        self, engine: WalkEngine, params: "DHTParams | BlockKernel", targets: Sequence[int]
    ) -> None:
        self._engine = engine
        self._params = params
        self._kernel = as_block_kernel(params)
        self._targets = engine._check_target_block(targets)
        self._level = 0
        # The level-0 blocks (one-hot mass, zero prefix) are implicit;
        # buffers materialise on the first advance_to() step.  Both are
        # (B, n) CSR frontier blocks or both (n, B) arrays.
        self._mass = None
        self._acc = None

    @classmethod
    def _restore(
        cls,
        engine: WalkEngine,
        params: DHTParams,
        targets: np.ndarray,
        level: int,
        mass,
        acc,
    ) -> "WalkState":
        state = cls.__new__(cls)
        state._engine = engine
        state._params = params
        state._kernel = as_block_kernel(params)
        state._targets = targets
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
    def width(self) -> int:
        """Number of block columns ``B``."""
        return self._targets.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes held by the materialised buffers (0 at level 0)."""
        if self._mass is None:
            return 0
        return _nbytes(self._mass) + _nbytes(self._acc)

    @property
    def _dense_nbytes(self) -> int:
        """What the two ``(n, B)`` float64 arrays cost."""
        return 16 * self._engine.num_nodes * self.width

    def _densify(self) -> None:
        """Leave the frontier phase: commit both blocks, once, to
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

    def advance_to(self, level: int) -> "WalkState":
        """Extend the walk to ``level`` steps (no-op if already there).

        A state can only move forward — the propagation recurrence
        cannot be run backwards — so ``level`` below the current one
        raises.  Returns ``self`` for chaining.
        """
        if level < self._level:
            raise GraphValidationError(
                f"cannot rewind a walk state from level {self._level} to {level}"
            )
        engine, targets = self._engine, self._targets
        if level > self._level and self._mass is None:
            # Cold materialisation commits up to two (n, B) float64
            # blocks — the walk starts on the frontier but may densify
            # at any step — so let the governor veto that ceiling
            # *before* any memory exists (16 bytes per node per column).
            engine.checkpoint("alloc", nbytes=self._dense_nbytes)
        # The dense steps ping-pong two mass buffers: each writes into
        # the block the step before it propagated from, so only the
        # first dense step of a call allocates.
        spare = None
        while self._level < level:
            i = self._level + 1
            weight = self._kernel.weight(i)
            if i == 1:
                # One-hot start: step 1 is a column gather of T.
                self._mass = engine.backward_onehot_step(targets)
                self._acc = self._mass * weight
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
                    self._acc = self._acc + self._mass * weight
                else:
                    # The prefix update rides in the step; the dead
                    # block takes the next step's product.
                    self._mass = engine.backward_block_step(
                        spent, targets, first, out=spare,
                        fold=(weight, self._acc),
                    )
                    spare = spent
            self._level = i
        if self._mass is not None:
            self._fit()
            engine.stats.record_block_bytes(self.nbytes)
            governor = engine.governor
            if governor is not None and governor.validate_walks:
                # Detect poisoned mass *before* the block's scores can be
                # consumed, donated to a cache, or folded into results.
                if not (
                    np.isfinite(_values(self._mass)).all()
                    and np.isfinite(_values(self._acc)).all()
                ):
                    raise CorruptedWalkError(
                        f"non-finite walk mass at level {self._level} for "
                        f"targets {targets.tolist()}"
                    )
        return self

    def extend(self, steps: int) -> "WalkState":
        """Walk ``steps`` further steps; returns ``self``."""
        if steps < 0:
            raise GraphValidationError(f"steps must be >= 0, got {steps}")
        return self.advance_to(self._level + steps)

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
        of the block.
        """
        if self._acc is None:
            return self._kernel.empty_scores(
                self._engine.num_nodes, self._targets
            )[rows]
        return self._kernel.finalize_rows(
            block_rows(self._acc, rows), rows, self._targets
        )

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

        All states must share the engine, params, and level — Eq. 5
        columns propagate independently, so re-packing changes nothing
        about future steps.  ``B-IDJ``'s bounded-memory rounds use this
        to fold the survivors of this round's throwaway chunks into the
        retained resumable window.  The result owns fresh buffers: a
        frontier block when every piece is still one, dense otherwise.
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
        if len(states) == 1:
            return first.select(np.arange(first.width))
        targets = np.concatenate([s._targets for s in states])
        if first._mass is None:
            mass = acc = None
        elif all(sparse.issparse(s._mass) for s in states):
            mass = sparse.vstack([s._mass for s in states], format="csr")
            acc = sparse.vstack([s._acc for s in states], format="csr")
        else:
            mass = np.hstack([dense_block(s._mass) for s in states])
            acc = np.hstack([dense_block(s._acc) for s in states])
        return WalkState._restore(
            first._engine, first._params, targets, first._level, mass, acc
        )
