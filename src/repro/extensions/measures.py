"""Random-walk proximity measures beyond DHT.

The paper's conclusion (Section VIII) plans to extend the study of
n-way joins to other proximity measures on graphs, Personalized
PageRank first among them.  The IDJ framework [19] the paper
builds on supports any measure expressible as a truncated decayed
series

``score(u, v) = sum_{i} w_i M_i(u, v) + floor``

where ``M_i`` is some per-step walk statistic and ``w_i`` a
non-negative weight.  :class:`SeriesMeasure` captures that contract —
one resumable block kernel, the only scorer, plus the tail algebra
iterative deepening needs — and two families instantiate it:

* :class:`~repro.core.dht.DHTMeasure` — the paper's own measure
  (``M_i = P_i``, first-hit probability; absorbing propagation),
  defined in the core layer and re-exported here.
* :class:`TruncatedPPR` — Personalized PageRank (``M_i = S_i``, the
  *unrestricted* visit probability; plain propagation).

Every measure has a block kernel: scores that are not a walk could not
be planned under a query's byte ceiling (README, "Measures", names the
measure dropped for that and why).

**Admissibility contract** (what ``B-IDJ`` on a measure context relies
on — see ``docs/ALGORITHMS.md`` for the worked derivations):

1. A :class:`~repro.walks.state.WalkState` over ``kernel()`` advanced
   to ``l`` steps scores the ``l``-step truncation ``h_l(., q)`` of
   each of its targets ``q``, and ``h_l(p, q) <= h_d(p, q)`` for
   ``l <= d`` (non-negative statistics and weights), so truncations
   are valid *lower* bounds.
2. ``x_bound(d)`` is the data-independent tail table ``B-IDJ-X`` reads,
   an :class:`~repro.core.bounds.XBound` whose
   ``tail(l) >= sum_{i > l} w_i sup_u,v M_i(u, v)``, so
   ``h_d(p, q) <= h_l(p, q) + tail(l)`` is a valid *upper* bound.
3. ``floor`` is the score of a pair whose every statistic is zero — the
   bottom of the range, used to seed per-target maxima and to filter
   uninformative lower bounds.
4. ``tail_weights(d)``, the per-step ``w_i * sup M_i`` for
   ``i = 1 .. d``, builds the data-dependent reach-mass tail
   :class:`~repro.core.bounds.YBound`
   (Theorem 1, measure-generically: for DHT because first hits are a
   sub-event of visits, for PPR because ``S_i(p, q)`` is one summand of
   the left set's reach mass), which is tighter than the closed form
   whenever the left set's ``i``-step reach mass at ``q`` is below 1.

5. ``kernel()`` is the measure's block kernel (DHT's params, else a
   :class:`~repro.walks.kernels.BlockKernel`) and its cache identity:
   both caches are keyed by it, so every measure gets the full
   resumable walk layer — :class:`~repro.walks.state.WalkState` blocks,
   walk-cache adoption, and the bounded-memory rounds of
   :class:`~repro.walks.rounds.DeepeningRounds` under
   ``QueryBudget.max_bytes``.  A one-target walk and a block walk run
   the same kernel, so per-target and batched scores agree by
   construction (at every node but the target itself, whose entry
   follows the kernel's return-walk convention; every join excludes
   ``p == q``).

These five — ``d``, ``x_bound``, ``floor``, ``tail_weights`` and
``kernel`` — are the whole contract (``repro.query`` accepts any object
with them as a measure).
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

import numpy as np

from repro.core.bounds import XBound
from repro.core.dht import DHTMeasure  # noqa: F401 - re-exported
from repro.walks.engine import WalkEngine
from repro.walks.kernels import BlockKernel, PPRBlockKernel
from repro.walks.state import WalkState


class SeriesMeasure(Protocol):
    """A truncated decayed-series proximity measure.

    Implementations provide a *backward* block kernel — one propagation
    from a block of targets yields the measure to all sources — plus
    the algebra needed for iterative-deepening bounds.  See the module
    docstring for the admissibility conditions each piece must satisfy.
    (Both families also carry a display ``name``, which plans print;
    it is not part of the contract.)
    """

    d: int

    def x_bound(self, d: int) -> XBound:
        """The data-independent tail table of depth ``d`` that
        ``B-IDJ-X`` reads: ``tail(l)`` bounds the score mass of steps
        ``l+1 .. d``."""
        ...

    @property
    def floor(self) -> float:
        """Score of a pair with zero walk statistics (the range floor)."""
        ...

    def tail_weights(self, d: int) -> Sequence[float]:
        """Per-step ``w_i * sup M_i``, ``i = 1 .. d``: the weights of
        the reach-mass :class:`~repro.core.bounds.YBound`."""
        ...

    def kernel(self) -> BlockKernel:
        """The resumable block kernel, also the value identity of walk
        and bound caches: two measures share cached artifacts iff their
        kernels compare equal, and distinct families never collide (DHT
        and PPR kernels are distinct frozen dataclasses)."""
        ...


class TruncatedPPR:
    """Personalized PageRank, truncated at ``d`` steps.

    ``PPR(u, v) = (1 - c) * sum_{i >= 0} c^i S_i(u, v)`` where
    ``S_i(u, v)`` is the probability that a ``c``-continuing walker from
    ``u`` is at ``v`` after ``i`` steps (Jeh & Widom [20]).  Unlike DHT
    the walker may revisit ``v``; the backward kernel is therefore the
    plain (non-absorbing) propagation —
    :class:`~repro.walks.kernels.PPRBlockKernel` in block form.

    Parameters
    ----------
    damping:
        Continuation probability ``c`` in (0, 1); 0.85 is customary.
    epsilon:
        Truncation error target; ``d`` is the smallest depth with
        ``c^{d+1} <= epsilon`` (the tail of the geometric series, since
        ``S_i <= 1``).
    """

    def __init__(self, damping: float = 0.85, epsilon: float = 1e-4) -> None:
        if not (0.0 < damping < 1.0):
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        if not (0.0 < epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        self.damping = damping
        self.epsilon = epsilon
        self.d = max(1, math.ceil(math.log(epsilon) / math.log(damping) - 1.0))
        self.name = f"PPR(c={damping})"

    @property
    def floor(self) -> float:
        """A never-visited pair scores 0."""
        return 0.0

    def kernel(self) -> PPRBlockKernel:
        """The plain-propagation block kernel (weights ``(1-c) c^i``)."""
        return PPRBlockKernel(self.damping)

    def backward_scores_block(
        self, engine: WalkEngine, targets: Sequence[int], steps: int
    ) -> np.ndarray:
        """Batched truncated PPR: one sparse-dense product per step for
        the whole target block (PPR has no reflexive artefact — the
        self-visit term is part of the score)."""
        return WalkState(engine, self.kernel(), targets).advance_to(steps).scores_matrix()

    def x_bound(self, d: int) -> XBound:
        """``X_l^+ = (1-c) sum_{i > l} c^i = c^{l+1}`` (since
        ``S_i <= 1``) as a depth-``d`` table."""
        return XBound(1.0, self.damping, d)

    def tail_weights(self, d: int) -> list:
        """``w_i * sup S_i = (1-c) c^i``, ``i = 1 .. d`` — enables the
        reach-mass :class:`~repro.core.bounds.YBound`."""
        return [(1.0 - self.damping) * self.damping ** i for i in range(1, d + 1)]
