"""Random-walk proximity measures beyond DHT.

The paper's conclusion (Section VIII) plans to extend the study of
n-way joins to other proximity measures on graphs, Personalized
PageRank first among them.  The IDJ framework [19] the paper
builds on supports any measure expressible as a truncated decayed
series

``score(u, v) = sum_{i} w_i M_i(u, v) + floor``

where ``M_i`` is some per-step walk statistic and ``w_i`` a
non-negative weight.  :class:`SeriesMeasure` captures that contract —
per-target *and* batched-block backward kernels plus the tail algebra
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

1. ``backward_scores(engine, q, l)`` returns the ``l``-step truncation
   ``h_l(., q)``, and ``h_l(p, q) <= h_d(p, q)`` for ``l <= d``
   (non-negative statistics and weights), so truncations are valid
   *lower* bounds.
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

Batched-block equivalence: ``backward_scores_block`` must agree with
per-target ``backward_scores`` at every node ``u != target`` (reflexive
entries may differ by the kernel's return-walk convention; every join
excludes ``p == q``).

5. ``kernel()`` is the measure's block kernel (DHT's params, else a
   :class:`~repro.walks.kernels.BlockKernel`) and its cache identity:
   both caches are keyed by it, so every measure gets the full
   resumable walk layer — :class:`~repro.walks.state.WalkState` blocks,
   walk-cache adoption, and the bounded-memory rounds of
   :class:`~repro.walks.rounds.DeepeningRounds` under
   ``QueryBudget.max_bytes``.
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

    Implementations provide a *backward* kernel — one propagation from a
    target yields the measure to all sources — in both per-target and
    batched-block (the joins') forms, plus the algebra
    needed for iterative-deepening bounds.  See the module docstring for
    the admissibility conditions each piece must satisfy.
    """

    name: str
    d: int

    def backward_scores(self, engine: WalkEngine, target: int, steps: int) -> np.ndarray:
        """``steps``-truncated scores from every node to ``target`` —
        what :func:`~repro.core.two_way.backward.back_walk` returns on a
        cache-less measure context."""
        ...

    def backward_scores_block(
        self, engine: WalkEngine, targets: Sequence[int], steps: int
    ) -> np.ndarray:
        """Batched backward scores: an ``(n, B)`` array, column ``j``
        agreeing with ``backward_scores(engine, targets[j], steps)`` at
        every node ``u != targets[j]``."""
        ...

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

    def backward_scores(self, engine: WalkEngine, target: int, steps: int) -> np.ndarray:
        """Truncated PPR of every node to ``target`` in one propagation.

        ``(1-c) * sum_{i=1..steps} c^i S_i(u, target)`` plus the ``i=0``
        self-visit term for ``u == target`` itself.  Reports its steps
        to ``engine.stats`` in the same column-step currency as the
        batched paths.
        """
        back = np.zeros(engine.num_nodes, dtype=np.float64)
        back[target] = 1.0
        transition = engine.graph.transition_matrix()
        scores = np.zeros(engine.num_nodes, dtype=np.float64)
        scores[target] = 1.0 - self.damping  # i = 0 term
        factor = 1.0 - self.damping
        for i in range(1, steps + 1):
            # Same governor visibility as the DHT per-target path,
            # whose steps run through engine.backward_first_hit_series.
            engine.checkpoint("step")
            back = transition.dot(back)
            scores += factor * self.damping ** i * back
        engine.stats.add("propagation_steps", steps)
        engine.stats.add("sparse_products", steps)
        return scores

    def backward_scores_block(
        self, engine: WalkEngine, targets: Sequence[int], steps: int
    ) -> np.ndarray:
        """Batched truncated PPR: one sparse-dense product per step for
        the whole target block, equal to :meth:`backward_scores` at
        every node (PPR has no reflexive artefact — the self-visit term
        is part of the score)."""
        return WalkState(engine, self.kernel(), targets).advance_to(steps).scores_matrix()

    def x_bound(self, d: int) -> XBound:
        """``X_l^+ = (1-c) sum_{i > l} c^i = c^{l+1}`` (since
        ``S_i <= 1``) as a depth-``d`` table."""
        return XBound(1.0, self.damping, d)

    def tail_weights(self, d: int) -> list:
        """``w_i * sup S_i = (1-c) c^i``, ``i = 1 .. d`` — enables the
        reach-mass :class:`~repro.core.bounds.YBound`."""
        return [(1.0 - self.damping) * self.damping ** i for i in range(1, d + 1)]
