"""SimRank (Jeh & Widom [21]) as a measure of the joins.

The second measure named in the paper's future-work list.  SimRank is
pairwise-recursive —

``s(a, b) = C / (|I_a| |I_b|) * sum_{x in I_a} sum_{y in I_b} s(x, y)``

with ``s(a, a) = 1`` — so unlike DHT/PPR there is no single-propagation
backward kernel; the standard computation iterates the full similarity
matrix to a fixed point (dense, small graphs; the scale is quadratic by
nature).  :class:`SimRankMeasure` is the
:class:`repro.extensions.measures.SeriesMeasure` instantiation that
plugs SimRank into the 2-way and n-way joins
(``make_context(..., measure=SimRankMeasure())``).

The measure's "resumable walk state" is the matrix iterate itself: the
fixed-point sweep is a recurrence in the iteration count, so the
measure memoises iterates per level and *extends* the deepest one
instead of restarting — the matrix analogue of
:class:`~repro.walks.state.WalkState`, shared by every query edge that
scores through the same measure instance.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import ClosedFormTail
from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError
from repro.walks.engine import WalkEngine


def _in_weight_matrix(graph: Graph, weighted: bool) -> np.ndarray:
    """Column-normalised in-neighbour weights: ``W[x, a] = w_xa / sum_in(a)``.

    Vectorised: one pass extracts the in-edge arrays **in each column's
    adjacency insertion order** — ``np.bincount`` then accumulates every
    column total in exactly the order a per-entry loop's running Python
    ``sum`` visits it, so the result is bit-identical to that loop on
    any graph, not just where summation order is benign — and NumPy
    does the normalising division and the dense scatter.
    """
    n = graph.num_nodes
    w = np.zeros((n, n), dtype=np.float64)
    m = graph.num_edges
    if n == 0 or m == 0:
        return w
    rows = np.empty(m, dtype=np.int64)
    cols = np.empty(m, dtype=np.int64)
    vals = np.empty(m, dtype=np.float64)
    i = 0
    for a in graph.nodes():
        for x, weight in graph.in_neighbors(a).items():
            rows[i], cols[i], vals[i] = x, a, weight
            i += 1
    if weighted:
        totals = np.bincount(cols, weights=vals, minlength=n)
        w[rows, cols] = vals / totals[cols]
    else:
        counts = np.bincount(cols, minlength=n).astype(np.float64)
        w[rows, cols] = 1.0 / counts[cols]
    return w


def _simrank_sweep(similarity: np.ndarray, w: np.ndarray, decay: float) -> np.ndarray:
    """One fixed-point sweep ``S <- decay * W^T S W`` with diagonal reset."""
    similarity = decay * (w.T @ similarity @ w)
    np.fill_diagonal(similarity, 1.0)
    return similarity


@dataclass
class SimRankMeasureStats:
    """Iterate-cache accounting, cumulative since the last reset."""

    sweeps: int = 0  # fixed-point sweeps actually computed
    iterate_evictions: int = 0  # memoised iterates dropped by the LRU cap

    def reset(self) -> None:
        """Zero all counters."""
        self.sweeps = 0
        self.iterate_evictions = 0


class SimRankMeasure:
    """SimRank as a :class:`repro.extensions.measures.SeriesMeasure`.

    Level ``l`` of the generic joins maps to ``l`` fixed-point sweeps:
    the iterates grow monotonically towards the fixed point, so an
    ``l``-sweep score is an admissible lower bound and
    ``decay^(l+1)`` bounds everything the remaining sweeps can add
    (``tail_bound``).  ``d = iterations`` plays the truncation-depth
    role.

    There is no propagation kernel (``kernel()`` is ``None``): backward
    "walks" are column gathers from memoised matrix iterates, computed
    once per level per graph and *resumed* from the deepest cached
    iterate (the recurrence is deterministic, so resumed and fresh
    iterates are bit-identical).  Dense ``O(n^2)`` memory per iterate —
    small graphs only, like every SimRank computation here — so the
    memo is capped at ``max_cached_iterates`` matrices: the deepest
    iterate is always retained (it is what deeper requests resume
    from), shallower ones live in an LRU and are recomputed from the
    identity when evicted and needed again.  ``stats`` counts sweeps
    and evictions.
    """

    def __init__(
        self,
        decay: float = 0.8,
        iterations: int = 10,
        weighted: bool = True,
        max_cached_iterates: int = 4,
    ) -> None:
        if not (0.0 < decay < 1.0):
            raise GraphValidationError(f"decay must be in (0, 1), got {decay}")
        if iterations < 1:
            raise GraphValidationError(f"iterations must be >= 1, got {iterations}")
        if max_cached_iterates < 1:
            raise GraphValidationError(
                f"max_cached_iterates must be >= 1, got {max_cached_iterates}"
            )
        self.decay = decay
        self.d = iterations
        self.weighted = weighted
        self.max_cached_iterates = max_cached_iterates
        self.name = f"SimRank(C={decay})"
        self.stats = SimRankMeasureStats()
        self._graph: Optional[Graph] = None
        self._w: Optional[np.ndarray] = None
        self._iterates: "OrderedDict[int, np.ndarray]" = OrderedDict()

    @property
    def floor(self) -> float:
        """A structurally unrelated pair scores 0."""
        return 0.0

    def kernel(self) -> None:
        """No single-propagation kernel — SimRank is matrix-backed."""
        return None

    def cache_key(self) -> Tuple[str, float, int, bool]:
        """Value identity for walk/bound caches (score-vector layer only)."""
        return ("simrank", self.decay, self.d, self.weighted)

    def _iterate_to(self, graph: Graph, steps: int) -> np.ndarray:
        """The ``steps``-sweep iterate, resumed from the deepest cached
        one not past ``steps`` (the recurrence is deterministic, so the
        result is bit-identical however it was reached)."""
        if self._graph is not graph:
            # Bound to a new graph: drop the old graph's iterates.
            self._graph = graph
            self._w = _in_weight_matrix(graph, self.weighted)
            self._iterates = OrderedDict({0: np.eye(graph.num_nodes)})
        available = [l for l in self._iterates if l <= steps]
        if available:
            level = max(available)
            similarity = self._iterates[level]
            self._iterates.move_to_end(level)  # LRU refresh
        else:
            # Every shallow-enough iterate was evicted: level 0 is the
            # identity and always rebuildable.
            level, similarity = 0, np.eye(graph.num_nodes)
        while level < steps:
            similarity = _simrank_sweep(similarity, self._w, self.decay)
            level += 1
            self.stats.sweeps += 1
        if level not in self._iterates:
            self._iterates[level] = similarity
        else:
            self._iterates.move_to_end(level)
        self._evict_iterates()
        return similarity

    def _evict_iterates(self) -> None:
        """Cap the memo: keep the deepest iterate, LRU-evict shallower."""
        deepest = max(self._iterates)
        while len(self._iterates) > self.max_cached_iterates:
            for level in self._iterates:  # iteration order == LRU order
                if level != deepest:
                    del self._iterates[level]
                    self.stats.iterate_evictions += 1
                    break
            else:  # only the deepest is left; nothing evictable
                break

    def backward_scores(self, engine: WalkEngine, target: int, steps: int) -> np.ndarray:
        """``steps``-sweep SimRank of every node to ``target`` (a matrix
        column; reflexive entry is 1 by definition and excluded by all
        joins)."""
        return self._iterate_to(engine.graph, steps)[:, target].copy()

    def backward_scores_block(
        self, engine: WalkEngine, targets: Sequence[int], steps: int
    ) -> np.ndarray:
        """Batched column gather from the (memoised) ``steps``-sweep iterate."""
        idx = np.asarray(targets, dtype=np.int64)
        return self._iterate_to(engine.graph, steps)[:, idx].copy()

    def tail_bound(self, level: int) -> float:
        """``decay^(level+1)``: each further sweep adds terms weighted by
        one more factor of ``decay``, and scores are bounded by 1."""
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        return self.decay ** (level + 1)

    def x_bound(self, d: int) -> ClosedFormTail:
        """:meth:`tail_bound` as a depth-``d`` table."""
        return ClosedFormTail(self, d)
