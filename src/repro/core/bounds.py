"""Upper bounds on DHT scores — Section VI-C of the paper.

Both backward iterative-deepening joins bound the final score
``h_d(p, q)`` by ``h_l(p, q) + U_l^+`` after an ``l``-step walk:

* :class:`XBound` — Lemma 2's closed-form geometric tail
  ``X_l^+ = alpha * lambda^{l+1} / (1 - lambda)``.  Cheap, but loose:
  it assumes every remaining step hits with probability 1.
* :class:`YBound` — Theorem 1's data-dependent tail
  ``Y_l^+(P, q) = alpha * sum_{i=l+1}^{d} lambda^i min(sum_p S_i(p, q), 1)``
  built from the *unrestricted* reach probabilities ``S_i`` (Lemmas 3-4).
  One ``O(d |E_G|)`` propagation from the whole set ``P`` precomputes the
  bound for every ``q`` and every ``l`` (suffix sums).

Lemma 5 guarantees ``Y_l^+(P, q) <= X_l^+`` — the Y bound always prunes at
least as well; the property tests verify this, and Fig. 10(b)'s benchmark
measures how much it matters.

The same two tables serve every series measure (Section VIII):
:class:`YBound` takes the per-step weights, so every measure's
``tail_weights(d)`` gets the reach-mass tail, and :class:`XBound` takes
the geometric tail's scale and ratio, so every measure's ``x_bound(d)``
is one (PPR's ``c^{l+1}``: scale 1, ratio ``c``).

Memoisation semantics: a :class:`YBound` depends only on
``(graph, measure, P, d)`` — not on the right set, not on ``k`` — so it is
shared through the :class:`repro.bounds_cache.BoundPlanCache` attached to
every :class:`~repro.core.two_way.base.TwoWayContext`.  A context created
standalone gets a private cache (so repeated joins on one context, e.g.
``PJ``'s restart refills, build the bound once); contexts created by an
:class:`~repro.core.nway.spec.NWayJoinSpec` share one cache across all
query edges, so a star spec whose edges repeat the centre set as ``P``
pays for one reach-mass propagation total instead of one per edge.
Every build increments ``engine.stats.bound_builds`` and every cache hit
``engine.stats.bound_cache_hits`` — the counters behind
``bounds_cache.builds_per_op`` / ``bounds_cache.hit_ratio`` of
``bench/run.py --trace 1``.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.walks.engine import WalkEngine


class ScoreUpperBound(Protocol):
    """Tail bound interface shared by X and Y bounds.

    ``tail(l, q)`` returns ``U_l^+`` such that
    ``h_d(p, q) <= h_l(p, q) + U_l^+`` for every ``p`` in the join's left
    set.  ``q`` is a *graph* node id (only the Y bound actually uses it).
    ``tails(l, qs)`` is the same bound for a whole group of targets, one
    float64 array equal to ``[tail(l, q) for q in qs]`` bit for bit — a
    deepening level pays one call per block, not one per target.  Both
    reject an ``l`` outside ``[0, d]`` with :class:`ValueError`.
    """

    name: str

    def tail(self, l: int, q: int) -> float:
        """Upper bound on the score contribution of steps ``l+1 .. d``."""
        ...

    def tails(self, l: int, qs: Sequence[int]) -> np.ndarray:
        """:meth:`tail` for every target in ``qs``, as one array."""
        ...


def _check_level(l: int, d: int) -> None:
    if not (0 <= l <= d):
        raise ValueError(f"l must be in [0, {d}], got {l}")


class XBound:
    """Lemma 2's closed form ``X_l^+ = scale * ratio^{l+1}``, a
    measure's data-independent tail table — what ``B-IDJ-X`` and
    ``F-IDJ`` read.  DHT's is ``alpha * lambda^{l+1} / (1 - lambda)``
    (scale ``alpha / (1 - lambda)``, ratio ``lambda``).

    Independent of the data and of ``q``; ``O(1)`` per query after a
    trivial precomputation of the powers.
    """

    name = "X"

    def __init__(self, scale: float, ratio: float, d: int) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self._d = d
        self._tails = scale * ratio ** np.arange(1, d + 2)
        # _tails[l] == scale * ratio^{l+1} for l = 0..d

    @property
    def d(self) -> int:
        """Walk length the bound was built for."""
        return self._d

    def tail(self, l: int, q: int = -1) -> float:
        """``X_l^+``; valid for any ``q`` (argument ignored)."""
        _check_level(l, self._d)
        return float(self._tails[l])

    def tails(self, l: int, qs: Sequence[int]) -> np.ndarray:
        """``X_l^+`` once per target in ``qs``."""
        _check_level(l, self._d)
        return np.full(len(qs), self._tails[l])


class YBound:
    """Theorem 1: reach-mass tail ``Y_l^+(P, q)``.

    Parameters
    ----------
    engine:
        Walk engine for the join's graph.
    weights:
        Per-step weights ``w_i``, ``i = 1 .. d``: ``alpha * lambda^i``
        (DHT's) or any measure's ``tail_weights(d)``.
    sources:
        The left node set ``P`` of the 2-way join.
    d:
        Full walk length.

    Notes
    -----
    The constructor runs one ``d``-step unrestricted propagation from all
    of ``P`` (cost ``O(d |E_G|)``), caches
    ``c_i(q) = w_i * min(sum_p S_i(p, q), 1)`` for the whole graph, and
    serves ``Y_l^+(P, q) = sum_{i > l} c_i(q)`` from suffix sums —
    ``O(1)`` per ``(l, q)`` query, ``O(d |V_G|)`` memory, matching the
    complexity stated in Section VI-C.  The build holds the reach series
    and the suffix table, about ``2 (d + 1) |V_G|`` floats, at its peak:
    ``c_i`` is formed in place in the series and summed into the table.
    """

    name = "Y"

    def __init__(
        self,
        engine: WalkEngine,
        weights: Sequence[float],
        sources: Sequence[int],
        d: int,
    ) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self._d = d
        engine.stats.add("bound_builds", 1)
        contributions = engine.reach_mass_series(sources, d)  # (d, n)
        np.minimum(contributions, 1.0, out=contributions)
        contributions *= np.asarray(weights)[:, None]  # c_i(q)
        # suffix[l, q] = sum_{i = l+1 .. d} c_i(q), for l = 0..d
        suffix = np.empty((d + 1, contributions.shape[1]), dtype=np.float64)
        suffix[d] = 0.0
        np.cumsum(contributions[::-1], axis=0, out=suffix[d - 1 :: -1])
        self._suffix = suffix

    @property
    def d(self) -> int:
        """Walk length the bound was built for."""
        return self._d

    def tail(self, l: int, q: int) -> float:
        """``Y_l^+(P, q)`` for graph node ``q``."""
        _check_level(l, self._d)
        return float(self._suffix[l, q])

    def tails(self, l: int, qs: Sequence[int]) -> np.ndarray:
        """``Y_l^+(P, q)`` for every graph node in ``qs``: one gather."""
        _check_level(l, self._d)
        return self._suffix[l, np.asarray(qs, dtype=np.intp)]

