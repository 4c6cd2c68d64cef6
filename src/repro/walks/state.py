"""Resumable backward-walk state (the heart of batched iterative deepening).

Backward propagation is a Markov recurrence: the step-``l+1 .. 2l``
masses depend on the past only through the walker mass after step
``l``.  :class:`WalkState` snapshots exactly that — the ``(n, B)`` mass
block for ``B`` targets plus the accumulated score prefix
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

A state's buffers cost 16 bytes per node per column (two ``(n, B)``
float64 blocks); :meth:`WalkState.advance_to` reports each
materialisation to ``engine.stats.peak_block_bytes``, the counter a
``max_block_bytes`` ceiling (the deepening joins' chunked rounds) is
audited against.  :meth:`WalkState.scores_at` is what the joins read:
the scores of a block at the left set's rows, one row gather of the
prefix instead of a full-graph vector per column
(:meth:`WalkState.score_column`, which only walk-cache donation still
uses).  :meth:`WalkState.select` narrows a block to surviving columns,
:meth:`WalkState.extract_column` copies one out (cache
adoption — including the bounded rounds' spill of overflow survivors),
and :meth:`WalkState.concat` re-packs same-level blocks — together they
let :class:`~repro.walks.rounds.DeepeningRounds` keep the resumable
window of ``B-IDJ`` *and* ``Series-IDJ`` under a byte budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.exec.budget import CorruptedWalkError
from repro.graph.validation import GraphValidationError
from repro.walks.engine import WalkEngine
from repro.walks.kernels import BlockKernel, as_block_kernel

if TYPE_CHECKING:  # avoid a runtime cycle: core.dht imports repro.walks
    from repro.core.dht import DHTParams


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
    propagation steps for all columns at once (one CSR sparse-dense
    product per step).  :meth:`scores_at` / :meth:`scores_matrix` /
    :meth:`score_column` convert the accumulated prefix into truncated
    scores ``h_level(u, target)`` — at chosen rows, everywhere, or for
    one column.  Memory: two ``(n, B)`` float64 blocks.
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
        # buffers materialise on the first advance_to() step.
        self._mass: Optional[np.ndarray] = None
        self._acc: Optional[np.ndarray] = None

    @classmethod
    def _restore(
        cls,
        engine: WalkEngine,
        params: DHTParams,
        targets: np.ndarray,
        level: int,
        mass: np.ndarray,
        acc: np.ndarray,
    ) -> "WalkState":
        state = cls.__new__(cls)
        state._engine = engine
        state._params = params
        state._kernel = as_block_kernel(params)
        state._targets = targets
        state._level = level
        state._mass = mass
        state._acc = acc
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
        return self._mass.nbytes + self._acc.nbytes

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
        if level > self._level and self._mass is None:
            # Cold materialisation is about to commit two (n, B) float64
            # blocks; let the governor veto the allocation *before* the
            # memory exists (16 bytes per node per column).
            self._engine.checkpoint(
                "alloc", nbytes=16 * self._engine.num_nodes * self.width
            )
        while self._level < level:
            i = self._level + 1
            if i == 1:
                # One-hot start: step 1 is a column gather of T.
                self._mass = self._engine.backward_onehot_step(self._targets)
                self._acc = self._kernel.weight(1) * self._mass
            else:
                # Absorbing kernels (DHT first hits) zero each column's
                # target entry before propagating; plain kernels (PPR)
                # skip the zeroing, which `first=True` selects.
                self._mass = self._engine.backward_block_step(
                    self._mass, self._targets, first=not self._kernel.absorbing
                )
                self._acc += self._kernel.weight(i) * self._mass
            self._level = i
        if self._mass is not None:
            self._engine.stats.record_block_bytes(
                self._mass.nbytes + self._acc.nbytes
            )
            governor = self._engine.governor
            if governor is not None and governor.validate_walks:
                # Detect poisoned mass *before* the block's scores can be
                # consumed, donated to a cache, or folded into results.
                if not (
                    np.isfinite(self._mass).all() and np.isfinite(self._acc).all()
                ):
                    raise CorruptedWalkError(
                        f"non-finite walk mass at level {self._level} for "
                        f"targets {self._targets.tolist()}"
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
        return self._kernel.finalize(self._acc, self._targets)

    def score_column(self, j: int) -> np.ndarray:
        """Scores of column ``j`` as a fresh length-``n`` vector."""
        if self._acc is None:
            return self._kernel.empty_scores(
                self._engine.num_nodes, self._targets[j : j + 1]
            )[:, 0]
        return self._kernel.finalize_column(self._acc[:, j], int(self._targets[j]))

    def scores_at(self, rows: np.ndarray) -> np.ndarray:
        """Scores at node ids ``rows`` as a fresh ``(|rows|, B)`` array,
        bit-identical to ``scores_matrix()[rows]``.

        One gather of contiguous prefix rows, then the kernel's fold on
        ``|rows| * B`` entries — the joins' read, which never touches
        the other ``n - |rows|`` rows of the block.
        """
        if self._acc is None:
            return self._kernel.empty_scores(
                self._engine.num_nodes, self._targets
            )[rows]
        return self._kernel.finalize_rows(self._acc[rows], rows, self._targets)

    # ------------------------------------------------------------------
    # Restructuring
    # ------------------------------------------------------------------

    def select(self, indices: Sequence[int]) -> "WalkState":
        """A new state narrowed to the given column indices.

        Used by ``B-IDJ`` to drop pruned targets between deepening
        rounds; the returned state owns copies of the selected columns.
        """
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        return WalkState._restore(
            self._engine,
            self._params,
            self._targets[indices].copy(),
            self._level,
            None if self._mass is None else np.take(self._mass, indices, axis=1),
            None if self._acc is None else np.take(self._acc, indices, axis=1),
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
        retained resumable window.  The result owns fresh buffers.
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
        else:
            mass = np.hstack([s._mass for s in states])
            acc = np.hstack([s._acc for s in states])
        return WalkState._restore(
            first._engine, first._params, targets, first._level, mass, acc
        )
