"""Random-walk proximity measures beyond DHT.

The paper's conclusion (Section VIII) plans to "extend the study of
n-way join for other proximity measures on graphs, including
Personalized PageRank [and] SimRank".  The IDJ framework [19] the paper
builds on supports any measure expressible as a truncated decayed
series

``score(u, v) = sum_{i} w_i M_i(u, v) + floor``

where ``M_i`` is some per-step walk statistic and ``w_i`` a
non-negative weight.  :class:`SeriesMeasure` captures that contract —
per-target *and* batched-block backward kernels plus the tail algebra
iterative deepening needs — and three families instantiate it:

* :class:`TruncatedPPR` — Personalized PageRank (``M_i = S_i``, the
  *unrestricted* visit probability; plain propagation).
* :class:`DHTMeasure` — the core DHT implementation adapted to the
  contract (``M_i = P_i``, first-hit probability; absorbing
  propagation), so generic joins can mix measures and the core
  algorithms double as its oracles.
* :class:`repro.extensions.simrank.SimRankMeasure` — SimRank, whose
  pairwise-recursive fixed point has no single-propagation kernel; it
  serves blocks from memoised (and resumable) matrix iterates instead.

**Admissibility contract** (what ``B-IDJ`` on a measure context relies
on — see ``docs/ALGORITHMS.md`` for the worked derivations):

1. ``backward_scores(engine, q, l)`` returns the ``l``-step truncation
   ``h_l(., q)``, and ``h_l(p, q) <= h_d(p, q)`` for ``l <= d``
   (non-negative statistics and weights), so truncations are valid
   *lower* bounds.
2. ``tail_bound(l) >= sum_{i > l} w_i sup_u,v M_i(u, v)``, so
   ``h_d(p, q) <= h_l(p, q) + tail_bound(l)`` is a valid *upper* bound.
3. ``floor`` is the score of a pair whose every statistic is zero — the
   bottom of the range, used to seed per-target maxima and to filter
   uninformative lower bounds.
4. Optionally, ``tail_weight(i) = w_i * sup M_i`` per step enables the
   data-dependent reach-mass tail :class:`~repro.core.bounds.YBound`
   (Theorem 1, measure-generically: for DHT because first hits are a
   sub-event of visits, for PPR because ``S_i(p, q)`` is one summand of
   the left set's reach mass), which is tighter than the closed form
   whenever the left set's ``i``-step reach mass at ``q`` is below 1.

Batched-block equivalence: ``backward_scores_block`` must agree with
per-target ``backward_scores`` at every node ``u != target`` (reflexive
entries may differ by the kernel's return-walk convention; every join
excludes ``p == q``).

A measure whose ``kernel()`` is non-``None`` gets the full resumable
walk layer for free: :class:`~repro.walks.state.WalkState` blocks,
walk-cache adoption, and the bounded-memory chunked rounds of
:class:`~repro.walks.rounds.DeepeningRounds` (a ``max_block_bytes``
ceiling with walk-cache spill of overflow survivors).  Matrix-backed
measures (``kernel() is None``) use only the score-vector half of the
walk cache and resume through their own memoised iterates.
"""

from __future__ import annotations

import math
from typing import Optional, Protocol, Sequence

import numpy as np

from repro.core.dht import DHTParams
from repro.graph.validation import GraphValidationError
from repro.walks.engine import WalkEngine
from repro.walks.kernels import BlockKernel, DHTBlockKernel, PPRBlockKernel
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

    def tail_bound(self, level: int) -> float:
        """Upper bound on the score mass of steps ``level+1 .. d``."""
        ...

    @property
    def floor(self) -> float:
        """Score of a pair with zero walk statistics (the range floor)."""
        ...

    def cache_key(self) -> object:
        """Hashable value identity for walk/bound caches.

        Two measures share cached artifacts iff their keys compare
        equal; distinct measure families must never collide (DHT and
        PPR kernels are distinct frozen dataclasses by construction).
        """
        ...

    def kernel(self) -> Optional[BlockKernel]:
        """The resumable block kernel, or ``None`` for matrix-backed
        measures (no :class:`~repro.walks.state.WalkState` support —
        and therefore no bounded-memory walk windows or cache spill;
        such measures resume through their own memoised iterates)."""
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

    def cache_key(self) -> PPRBlockKernel:
        """Walk/bound caches are keyed by the kernel itself."""
        return self.kernel()

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

    def tail_bound(self, level: int) -> float:
        """``(1-c) sum_{i > level} c^i = c^{level+1}`` (since S_i <= 1)."""
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        return self.damping ** (level + 1)

    def tail_weight(self, i: int) -> float:
        """``w_i * sup S_i = (1-c) c^i`` — enables the reach-mass
        :class:`~repro.core.bounds.YBound`."""
        if i < 1:
            raise ValueError(f"i must be >= 1, got {i}")
        return (1.0 - self.damping) * self.damping ** i


class DHTMeasure:
    """Adapter exposing the core DHT implementation as a
    :class:`SeriesMeasure`, so generic joins can mix measures.

    ``B-BJ`` / ``B-IDJ`` on this measure run the loops a
    :class:`~repro.core.dht.DHTParams` context runs, on the same
    first-hit kernel; the adapter exists so joins can mix measures and
    so DHT is an oracle-rich third instantiation of the contract.
    """

    def __init__(self, params: DHTParams = None, epsilon: float = 1e-6) -> None:
        self.params = params if params is not None else DHTParams.dht_lambda(0.2)
        self.d = self.params.steps_for_epsilon(epsilon)
        self.name = f"DHT(lambda={self.params.decay})"

    @property
    def floor(self) -> float:
        """``beta`` — the score of a pair that never hits."""
        return self.params.beta

    def kernel(self) -> DHTBlockKernel:
        """The first-hit (absorbing) block kernel of Eq. 5."""
        return DHTBlockKernel.from_params(self.params)

    def cache_key(self) -> DHTBlockKernel:
        """Walk/bound caches are keyed by the kernel itself."""
        return self.kernel()

    def backward_scores(self, engine: WalkEngine, target: int, steps: int) -> np.ndarray:
        """Truncated DHT via the per-target first-hit kernel."""
        series = engine.backward_first_hit_series(target, steps)
        scores = self.params.scores_from_matrix(series)
        scores[target] = 0.0
        return scores

    def backward_scores_block(
        self, engine: WalkEngine, targets: Sequence[int], steps: int
    ) -> np.ndarray:
        """Batched truncated DHT with the reflexive convention of
        :meth:`backward_scores` (``h(v, v) = 0``, replacing the block
        kernel's return-walk artefact)."""
        state = WalkState(engine, self.kernel(), targets).advance_to(steps)
        scores = state.scores_matrix()
        idx = np.asarray(targets, dtype=np.int64)
        scores[idx, np.arange(idx.shape[0])] = 0.0
        return scores

    def tail_bound(self, level: int) -> float:
        """The ``X_l^+`` geometric tail (Lemma 2)."""
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        return (
            self.params.alpha
            * self.params.decay ** (level + 1)
            / (1.0 - self.params.decay)
        )

    def tail_weight(self, i: int) -> float:
        """``w_i * sup P_i = alpha * lambda^i`` — the Theorem 1 weights."""
        if i < 1:
            raise ValueError(f"i must be >= 1, got {i}")
        return self.params.alpha * self.params.decay ** i


_DHT_NAMES = frozenset({"dht", "dht-lambda", "dht-e"})

#: Every name :func:`measure_by_name` resolves.
MEASURE_NAMES = tuple(sorted(_DHT_NAMES | {"ppr", "simrank"}))


def measure_by_name(name: str, **options) -> Optional[object]:
    """Resolve a measure name to a :class:`SeriesMeasure` instance.

    The DHT family (``"dht"``, ``"dht-lambda"``, ``"dht-e"``) resolves
    to ``None`` — callers keep the ``params``-configured DHT context
    (:class:`~repro.core.dht.DHTParams`).  ``"ppr"`` builds
    a :class:`TruncatedPPR` (options: ``damping``, ``epsilon``) and
    ``"simrank"`` a :class:`repro.extensions.simrank.SimRankMeasure`
    (options: ``decay``, ``iterations``, ``weighted``).
    """
    key = name.lower()
    if key in _DHT_NAMES:
        return None
    if key == "ppr":
        return TruncatedPPR(**options)
    if key == "simrank":
        from repro.extensions.simrank import SimRankMeasure

        return SimRankMeasure(**options)
    raise GraphValidationError(
        f"unknown measure {name!r}; choose from {list(MEASURE_NAMES)}"
    )
