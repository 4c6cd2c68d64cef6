"""Per-``(graph, measure)`` cache of bound and plan artifacts.

Three artifact kinds are cached, keyed by the node set that
parameterises them (empty for the data-independent ``X`` bound) plus
the walk depth ``d``:

* **Y bounds** (Theorem 1): the reach-mass suffix table built by
  :class:`repro.core.bounds.YBound` depends only on
  ``(graph, params, P, d)`` — not on the right set, not on ``k`` — so
  every query edge of an n-way join whose left set is ``P`` (every edge
  of a star spec, repeated sets of a clique spec) and every ``PJ``
  restart / ``PJ-i`` refinement over those edges can share one build.
  Each build costs a ``d``-step propagation over the whole edge set
  (``O(d |E_G|)``); sharing turns per-edge builds into one.
* **Restricted-tail plans** (:class:`repro.core.two_way.backward._RestrictedTail`):
  the row-sliced submatrix operators for the final walk steps depend
  only on ``(graph, rows, d)``.  ``B-BJ``'s *lean* scorer — the path
  taken when no walk cache is attached (standalone two-way contexts) —
  reuses the plan across repeated ``all_pairs`` calls and across
  contexts that share a bound cache and a left set instead of
  re-slicing the transition matrix.  With a walk cache attached ``B-BJ`` scores
  through full resumable blocks it donates to the cache, which needs no
  tail plan, so those runs never touch this entry kind.
* **X bounds** (Lemma 2): the closed-form geometric tail depends only
  on ``(params, d)``, so it is keyed by the empty node set.  Cheap to
  build, but ``F-IDJ`` and ``B-IDJ-X`` used to rebuild it per join
  instance — under ``PJ``'s restart refills that is one rebuild per
  refill; the cache serves it once per depth, and the hits land in the
  engine stats like every other bound hit.

The same cache serves the measure-generic joins: a cache built for a
non-DHT measure (its ``params`` is the measure's cache identity, e.g. a
:class:`~repro.walks.kernels.PPRBlockKernel`) memoises that measure's
reach-mass tail bounds under the same ``("y", P, d)`` keys.  Because
every cache is private to one ``(graph, measure)`` pair — enforced by
the context/spec validation — DHT and PPR artifacts can never collide
even when their node-set-plus-depth keys coincide.

The cache is deliberately *generic*: artifacts are produced by caller
supplied zero-argument builders, so this module depends on neither
:mod:`repro.core.bounds` nor the join algorithms (no import cycles).
Capacity is a single LRU over all kinds; hit/build counts are mirrored
into :class:`repro.walks.engine.WalkEngineStats` (``bound_cache_hits``,
``plan_cache_hits``) so benchmarks read one counter source.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Tuple

from repro.graph.validation import GraphValidationError
from repro.walks.engine import WalkEngine

if TYPE_CHECKING:  # avoid a runtime cycle: core.dht imports repro.walks
    from repro.core.dht import DHTParams

Key = Tuple[str, Tuple[int, ...], int]


@dataclass
class BoundCacheStats:
    """Hit/build accounting, cumulative since the last reset."""

    y_hits: int = 0
    y_builds: int = 0
    plan_hits: int = 0
    plan_builds: int = 0
    x_hits: int = 0
    x_builds: int = 0
    evictions: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.y_hits = 0
        self.y_builds = 0
        self.plan_hits = 0
        self.plan_builds = 0
        self.x_hits = 0
        self.x_builds = 0
        self.evictions = 0


class BoundPlanCache:
    """LRU cache of Y-bound and tail-plan artifacts for one engine.

    Parameters
    ----------
    engine:
        The graph's walk engine; cached artifacts are only valid for its
        graph.
    params:
        The measure identity the bounds are folded with: DHT
        coefficients, a block kernel, or any hashable value object.
        Tail plans do not depend on ``params``, but keeping one cache
        per ``(engine, measure)`` pair mirrors
        :class:`repro.walks.cache.WalkCache` and keeps the validation
        (and cross-measure isolation) story uniform.
    max_entries:
        LRU bound over all artifact kinds together.  A Y bound costs
        ``O(d |V_G|)`` floats, a tail plan a few row-sliced sparse
        operators; the default keeps worst-case retention modest.
    """

    def __init__(
        self, engine: WalkEngine, params: "DHTParams | object", max_entries: int = 64
    ) -> None:
        if max_entries < 1:
            raise GraphValidationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self._engine = engine
        self._params = params
        self._max_entries = max_entries
        self._entries: "OrderedDict[Key, object]" = OrderedDict()
        # Shared across concurrent queries by the service tier: one
        # re-entrant lock serialises lookup-or-build and the LRU, so an
        # artifact is built at most once even under contention (a
        # governed build may checkpoint back into this cache, hence
        # re-entrant).
        self._lock = threading.RLock()
        self.stats = BoundCacheStats()

    @property
    def engine(self) -> WalkEngine:
        """The engine cached artifacts were built against."""
        return self._engine

    @property
    def params(self) -> "DHTParams | object":
        """The measure identity cached bounds were folded with."""
        return self._params

    @property
    def max_entries(self) -> int:
        """LRU capacity over all artifact kinds."""
        return self._max_entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every cached artifact (stats are kept)."""
        with self._lock:
            self._entries.clear()

    @staticmethod
    def node_set_key(nodes: Iterable[int]) -> Tuple[int, ...]:
        """Canonical hashable form of a node set (sorted, deduplicated).

        Validated node sets preserve first-seen order, so two joins over
        the same *set* may list it differently; sorting makes the cache
        key order-insensitive, matching the artifacts' semantics (both
        the reach-mass propagation and the tail plan see ``P`` as a set).
        """
        return tuple(sorted({int(u) for u in nodes}))

    # ------------------------------------------------------------------
    # Lookup / build
    # ------------------------------------------------------------------

    def y_bound(self, sources: Iterable[int], d: int, build: Callable[[], object]):
        """The ``Y_l^+(P, .)`` bound for ``P = sources``, built at most once.

        ``build`` must return a :class:`repro.core.bounds.YBound`
        constructed from exactly these sources and ``d`` on this cache's
        engine/params; it runs only on a miss.
        """
        return self._get(("y", self.node_set_key(sources), int(d)), build)

    def peek_y_bound(self, sources: Iterable[int], d: int):
        """Pure probe: the memoised ``Y`` bound for ``(sources, d)``, or
        ``None``.

        Unlike :meth:`y_bound` this never builds, never counts a hit,
        and never reorders the LRU — the planner uses it to read
        already-paid-for reach-mass tails without perturbing either the
        cache or the engine's accounting.
        """
        with self._lock:
            return self._entries.get(("y", self.node_set_key(sources), int(d)))

    def tail_plan(self, rows: Iterable[int], d: int, build: Callable[[], object]):
        """The restricted-tail plan for ``rows`` at depth ``d``.

        ``build`` must return the plan for exactly these rows; it runs
        only on a miss.
        """
        return self._get(("tail", self.node_set_key(rows), int(d)), build)

    def x_bound(self, d: int, build: Callable[[], object]):
        """The closed-form ``X_l^+`` bound at depth ``d``, built at most once.

        ``X`` depends only on this cache's params and ``d`` (Lemma 2 —
        no node set, no data), so the key carries the empty node set.
        ``build`` must return a :class:`repro.core.bounds.XBound` (or a
        measure's closed-form tail) for this cache's params; it runs
        only on a miss.
        """
        return self._get(("x", (), int(d)), build)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _get(self, key: Key, build: Callable[[], object]):
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is not None:
                self._entries.move_to_end(key)
                if key[0] == "y":
                    self.stats.y_hits += 1
                    self._engine.stats.add("bound_cache_hits", 1)
                elif key[0] == "x":
                    self.stats.x_hits += 1
                    self._engine.stats.add("bound_cache_hits", 1)
                else:
                    self.stats.plan_hits += 1
                    self._engine.stats.add("plan_cache_hits", 1)
                return artifact
            artifact = build()
            if key[0] == "y":
                self.stats.y_builds += 1
            elif key[0] == "x":
                self.stats.x_builds += 1
            else:
                self.stats.plan_builds += 1
            self._entries[key] = artifact
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            return artifact
