"""Vectorised random-walk kernels.

Every DHT computation in the paper reduces to propagating probability mass
along graph edges, one step per iteration, with the *target* node made
absorbing so only first hits are counted:

* **Backward propagation** (Eq. 5, used by ``backWalk`` / all ``B-*``
  algorithms): one propagation from the target ``q`` yields the first-hit
  probabilities ``P_i(u, q)`` for *every* start node ``u`` simultaneously.
* **Forward propagation** (used by ``F-BJ`` / ``F-IDJ``): one propagation
  from the start ``p``, with ``q`` absorbing, yields ``P_i(p, q)`` for a
  *single* target ``q``.
* **Reach mass** (used by the ``Y_l^+`` bound, Theorem 1): an unrestricted
  propagation from the whole set ``P`` at once; by linearity the mass at
  ``v`` after ``i`` steps is ``sum_p S_i(p, v)``.

Each step is a sparse mat-vec costing ``O(|E_G|)``.

Two batched refinements on top of the per-target Eq. 5 kernel:

* :meth:`WalkEngine.backward_first_hit_block` propagates an ``(n, B)``
  column block for ``B`` targets with one CSR sparse-dense product per
  step — the per-column recurrence is identical to Eq. 5, so column
  ``j`` of the block equals ``backward_first_hit_series(targets[j])``
  exactly, but the per-step sparse traversal and its Python overhead are
  amortised over the whole block.
* :class:`repro.walks.state.WalkState` keeps the block's walker mass
  between calls so an ``l``-step walk can be *extended* to ``2l`` steps
  instead of restarted — Eq. 5 is a Markov recurrence, so the extension
  produces the same probabilities as a fresh deeper walk.

Every kernel reports its work through :attr:`WalkEngine.stats`
(column-steps and sparse products), which the tests use to prove
the resumable paths do strictly less propagation.  The same stats object
carries the bound-layer counters (``bound_builds`` / ``bound_cache_hits``
for ``Y_l^+`` reach-mass tables, ``plan_builds`` / ``plan_cache_hits``
for restricted-tail plans, ``peak_block_bytes`` for the resumable-block
memory high-water mark) so one counter source is the perf currency for
the whole walk-and-bound stack — ``bench/run.py --trace 1`` reports it
per op.
"""

from __future__ import annotations

import threading
from typing import Dict, Sequence

import numpy as np

from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError

#: Additive counter fields of :class:`WalkEngineStats` (reads sum the
#: per-thread shards).
STAT_COUNTERS = (
    "propagation_steps",
    "sparse_products",
    "bound_builds",
    "bound_cache_hits",
    "plan_builds",
    "plan_cache_hits",
    "extensions",
    "steps_saved",
    "checkpoints",
    "budget_stops",
    "degradations",
    "alloc_retries",
)

#: High-water-mark fields (reads take the max over the per-thread shards).
STAT_PEAKS = ("peak_block_bytes",)

_STAT_FIELDS = STAT_COUNTERS + STAT_PEAKS


class _NullSpan:
    """The disabled-tracer span: every operation is a no-op.

    Defined here (not in :mod:`repro.obs.trace`, which re-exports it)
    so the engine's trace hooks need no import from the observability
    layer — ``walks`` stays at the bottom of the dependency order.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


#: Shared no-op span returned by every trace hook when tracing is off.
NULL_SPAN = _NullSpan()


class WalkEngineStats:
    """Propagation-work counters, cumulative since the last reset.

    ``propagation_steps`` counts *column-steps*: one unit per target per
    step, so a ``B``-wide block step adds ``B``.  The unit is invariant
    under batching — batched and per-target runs of the same walk plan
    report the same count — which makes it the right currency for
    checking that *resumable* walks (which skip re-walked prefixes) do
    strictly less work.  ``sparse_products`` counts CSR mat-vec /
    mat-mat calls and therefore *does* drop under batching.

    The bound-layer counters mirror the same philosophy for the pruning
    machinery: ``bound_builds`` counts ``Y_l^+`` reach-mass constructions
    (one ``O(d |E_G|)`` propagation each, incremented by
    :class:`repro.core.bounds.YBound` itself so every build is counted
    regardless of the code path), ``bound_cache_hits`` counts Y bounds
    served from a :class:`repro.bounds_cache.BoundPlanCache` without
    building, and ``plan_builds`` / ``plan_cache_hits`` do the same for
    restricted-tail propagation plans.  ``peak_block_bytes`` is the
    high-water mark of any single resumable walk block's buffers
    (walker mass + score prefix, 16 bytes per node per column) — the
    number a ``max_block_bytes`` ceiling on the iterative-deepening
    joins is checked against.

    ``extensions`` / ``steps_saved`` mirror the walk cache's resume
    counters into the engine currency: one extension per request served
    by resuming a retained or spilled :class:`~repro.walks.state.WalkState`
    (instead of restarting from level 0), and the column-steps that
    resume skipped.  The bounded-memory joins' spill policy — overflow
    survivors donate their single-column states to the walk cache and
    are resumed from it at the next deepening level — shows up here:
    steps the drop-and-re-walk policy would have restarted become
    ``steps_saved``.

    The governed-execution counters make every degradation observable:
    ``checkpoints`` counts cooperative governor checkpoints visited,
    ``budget_stops`` counts joins that stopped on budget exhaustion and
    returned a partial result, ``degradations`` counts every graceful
    fallback (window backoffs, corrupted-block re-walks), and
    ``alloc_retries`` counts the subset of degradations that were
    allocation-failure retries of the adaptive window backoff.

    The counters are safe to increment from concurrent worker threads
    sharing one engine (the :class:`repro.service.QueryService` setup):
    each thread writes to a private shard via :meth:`add` /
    :meth:`record_block_bytes`, and attribute reads merge the shards
    (sum for counters, max for ``peak_block_bytes``) — so no increment
    is ever lost to a torn read-modify-write, and the merged totals
    equal what a serial run would have counted.  :meth:`local` reads one
    thread's own shard, which is how a per-query
    :class:`~repro.exec.governor.ExecutionGovernor` meters its step
    budget without being charged for other queries' walks.
    """

    __slots__ = ("_lock", "_local", "_shards")

    def __init__(self) -> None:
        object.__setattr__(self, "_lock", threading.Lock())
        object.__setattr__(self, "_local", threading.local())
        object.__setattr__(self, "_shards", [])

    def _shard(self) -> Dict[str, int]:
        """This thread's private shard (created and registered lazily)."""
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = {name: 0 for name in _STAT_FIELDS}
            with self._lock:
                self._shards.append(shard)
            self._local.shard = shard
        return shard

    def add(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (lock-free: thread shard)."""
        self._shard()[name] += amount

    def local(self, name: str) -> int:
        """This thread's own contribution to field ``name``."""
        shard = getattr(self._local, "shard", None)
        return 0 if shard is None else shard[name]

    def __getattr__(self, name: str) -> int:
        if name in STAT_COUNTERS:
            with self._lock:
                return sum(shard[name] for shard in self._shards)
        if name in STAT_PEAKS:
            with self._lock:
                return max(
                    (shard[name] for shard in self._shards), default=0
                )
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    def __setattr__(self, name: str, value) -> None:
        # Direct assignment keeps its single-threaded meaning (the
        # merged value becomes exactly ``value``): zero the field in
        # every shard, then store the value in this thread's shard.
        if name in _STAT_FIELDS:
            shard = self._shard()
            with self._lock:
                for other in self._shards:
                    other[name] = 0
                shard[name] = int(value)
            return
        object.__setattr__(self, name, value)

    def record_block_bytes(self, nbytes: int) -> None:
        """Raise the resumable-block high-water mark to ``nbytes``."""
        shard = self._shard()
        if nbytes > shard["peak_block_bytes"]:
            shard["peak_block_bytes"] = nbytes

    def snapshot(self) -> Dict[str, int]:
        """All merged counters as a plain dict (one consistent pass)."""
        with self._lock:
            merged = {
                name: sum(shard[name] for shard in self._shards)
                for name in STAT_COUNTERS
            }
            for name in STAT_PEAKS:
                merged[name] = max(
                    (shard[name] for shard in self._shards), default=0
                )
        return merged

    def reset(self) -> None:
        """Zero all counters (every thread's shard)."""
        with self._lock:
            for shard in self._shards:
                for name in _STAT_FIELDS:
                    shard[name] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"WalkEngineStats({fields})"


class WalkEngine:
    """Random-walk kernels bound to one graph.

    The engine caches the transition matrix ``T`` and its transpose; create
    one per graph and share it across joins.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._transition = graph.transition_matrix()
        self._transition_t = graph.transition_matrix_transpose()
        self._n = graph.num_nodes
        self._transition_csc = None
        self._in_degrees = None
        self._derived_lock = threading.Lock()
        self.stats = WalkEngineStats()
        # Governor slot, installed by repro.exec.ExecutionGovernor for
        # governed queries; None means every checkpoint() is a no-op.
        # Thread-local, so concurrent queries on one shared engine each
        # see only their own governor (service workers install one per
        # request without clobbering each other's budgets).
        self._governor_local = threading.local()
        # Tracer slot, same shape and same reasons: a
        # repro.obs.QueryTracer installed for one traced query on this
        # thread; None keeps every hook a single attribute read.
        self._tracer_local = threading.local()

    @property
    def governor(self):
        """This thread's installed governor, or ``None``."""
        return getattr(self._governor_local, "governor", None)

    @governor.setter
    def governor(self, value) -> None:
        self._governor_local.governor = value

    @property
    def tracer(self):
        """This thread's installed query tracer, or ``None``."""
        return getattr(self._tracer_local, "tracer", None)

    @tracer.setter
    def tracer(self, value) -> None:
        self._tracer_local.tracer = value

    def trace_span(self, kind: str, name: str = "", **attrs):
        """A trace span bound to this engine's stats (no-op when off).

        The returned context manager records this thread's
        propagation/cache counter deltas and checkpoint-site events for
        the enclosed work; with no tracer installed it is the shared
        :data:`NULL_SPAN` singleton.
        """
        tracer = self.tracer
        if tracer is None:
            return NULL_SPAN
        return tracer.span(kind, name, stats=self.stats, **attrs)

    @property
    def graph(self) -> Graph:
        """The graph this engine walks on."""
        return self._graph

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the bound graph."""
        return self._n

    def checkpoint(self, site: str, block=None, nbytes=None) -> None:
        """Cooperative budget/fault checkpoint (no-op without a governor).

        ``site`` names the unit-of-work boundary (see
        :mod:`repro.exec.governor`); ``block`` is an in-flight walk
        block the fault injector may poison; ``nbytes`` is a predicted
        allocation size checked against the byte budget before the
        buffers are committed.

        A traced query records the same sites as span events (the event
        lands before the governor runs, so a budget stop at this
        checkpoint is still visible in the trace).
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.event(site, nbytes=nbytes)
        if self.governor is not None:
            self.governor.checkpoint(site, block=block, nbytes=nbytes)

    # ------------------------------------------------------------------
    # Backward propagation (Eq. 5)
    # ------------------------------------------------------------------

    def backward_first_hit_series(self, target: int, steps: int) -> np.ndarray:
        """First-hit probabilities ``P_i(u, target)`` for all ``u``.

        Implements Eq. 5: initialise ``backProb = e_target``; the first
        step uses all edges; later steps zero the target entry first so a
        walk that has already hit the target is not extended (first-hit
        semantics).

        Parameters
        ----------
        target:
            The hit node ``q``.
        steps:
            Number of steps ``d >= 1``.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(steps, num_nodes)``; row ``i-1`` holds
            ``P_i(u, target)``.  The ``u == target`` column is the return
            probability and is ignored by all callers.
        """
        self._check_target(target)
        self._check_steps(steps)
        series = np.empty((steps, self._n), dtype=np.float64)
        back_prob = np.zeros(self._n, dtype=np.float64)
        back_prob[target] = 1.0
        for i in range(steps):
            self.checkpoint("step")
            if i > 0:
                # A walker must not pass *through* the target: zero the
                # mass that already arrived before propagating further.
                # In-place is safe: `series[i - 1] = back_prob` copied the
                # values out, and the dot below allocates a fresh vector.
                back_prob[target] = 0.0
            back_prob = self._transition.dot(back_prob)
            series[i] = back_prob
        self.stats.add("propagation_steps", steps)
        self.stats.add("sparse_products", steps)
        return series

    def backward_first_hit_block(
        self, targets: Sequence[int], steps: int
    ) -> np.ndarray:
        """Batched Eq. 5: first-hit series for a block of targets.

        Propagates an ``(n, B)`` column block — column ``j`` carrying the
        walk towards ``targets[j]`` — with one CSR sparse-dense product
        per step instead of ``B`` separate mat-vecs.  Each column follows
        the exact per-target recurrence of
        :meth:`backward_first_hit_series` (first step uses all edges,
        later steps zero that column's target entry), so the results are
        bit-identical to ``B`` independent walks.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(steps, num_nodes, B)``; ``[i - 1, :, j]``
            holds ``P_i(u, targets[j])``.
        """
        targets = self._check_target_block(targets)
        self._check_steps(steps)
        width = targets.shape[0]
        series = np.empty((steps, self._n, width), dtype=np.float64)
        mass = self.backward_onehot_step(targets)
        series[0] = mass
        for i in range(1, steps):
            mass = self.backward_block_step(mass, targets, first=False)
            series[i] = mass
        return series

    def backward_onehot_step(self, targets: np.ndarray) -> np.ndarray:
        """The first Eq. 5 step for a block of one-hot columns.

        ``T @ e_t`` is column ``t`` of ``T``, so step 1 is a per-target
        column gather — ``O(sum indeg(t))`` instead of a full
        ``O(|E_G| B)`` product, and bit-identical to it (the skipped
        products are exact zeros).  Returns the dense ``(n, B)`` block
        ``P_1``.
        """
        targets = self._check_target_block(targets)
        self.checkpoint("block")
        mass = self._gather_columns(self.transition_columns(), targets)
        self.stats.add("propagation_steps", int(targets.shape[0]))
        self.stats.add("sparse_products", 1)
        return mass

    def backward_block_step(
        self, mass: np.ndarray, targets: np.ndarray, first: bool
    ) -> np.ndarray:
        """One Eq. 5 step for an ``(n, B)`` backward block.

        Zeroes each column's target entry **in place** (unless ``first``)
        and returns the freshly allocated propagated block.  This is the
        shared primitive behind :meth:`backward_first_hit_block` and
        :class:`repro.walks.state.WalkState`.
        """
        width = mass.shape[1]
        # Checkpoint before any mutation: a budget stop or injected
        # allocation failure here leaves the caller's state consistent
        # (the step has neither zeroed targets nor been counted).
        self.checkpoint("block", block=mass)
        if not first:
            mass[targets, np.arange(width)] = 0.0
        out = self._transition.dot(mass)
        self.stats.add("propagation_steps", int(width))
        self.stats.add("sparse_products", 1)
        return out

    # ------------------------------------------------------------------
    # Forward propagation
    # ------------------------------------------------------------------

    def forward_first_hit_series(self, source: int, target: int, steps: int) -> np.ndarray:
        """First-hit probabilities ``P_i(source, target)`` for one pair.

        Propagates walker mass forward from ``source`` with ``target``
        absorbing: before each step the mass sitting on ``target`` is
        removed (those walkers stopped), and the mass flowing *into*
        ``target`` at step ``i`` is exactly ``P_i(source, target)``.

        Returns
        -------
        numpy.ndarray
            Vector of length ``steps``; entry ``i-1`` is
            ``P_i(source, target)``.
        """
        self._check_target(source)
        self._check_target(target)
        self._check_steps(steps)
        if source == target:
            raise GraphValidationError(
                f"first-hit from a node to itself is undefined (node {source})"
            )
        hits = np.empty(steps, dtype=np.float64)
        mass = np.zeros(self._n, dtype=np.float64)
        mass[source] = 1.0
        for i in range(steps):
            self.checkpoint("step")
            mass[target] = 0.0
            mass = self._transition_t.dot(mass)
            hits[i] = mass[target]
        self.stats.add("propagation_steps", steps)
        self.stats.add("sparse_products", steps)
        return hits

    # ------------------------------------------------------------------
    # Unrestricted reach mass (for the Y bound)
    # ------------------------------------------------------------------

    def reach_mass_series(self, sources: Sequence[int], steps: int) -> np.ndarray:
        """Aggregated reach probabilities ``sum_p S_i(p, v)``.

        ``S_i(p, v)`` is the probability that a walker from ``p`` is at
        ``v`` after ``i`` steps, *not necessarily for the first time*
        (Lemma 3).  The propagation has no absorbing node.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(steps, num_nodes)``; row ``i-1``, column
            ``v`` is ``sum_{p in sources} S_i(p, v)``.
        """
        self._check_steps(steps)
        mass = np.zeros(self._n, dtype=np.float64)
        for p in sources:
            self._check_target(int(p))
            mass[int(p)] += 1.0
        if not mass.any():
            raise GraphValidationError("reach_mass_series needs at least one source")
        series = np.empty((steps, self._n), dtype=np.float64)
        for i in range(steps):
            self.checkpoint("step")
            mass = self._transition_t.dot(mass)
            series[i] = mass
        self.stats.add("propagation_steps", steps)
        self.stats.add("sparse_products", steps)
        return series

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------

    def _check_target(self, node: int) -> None:
        if not (0 <= node < self._n):
            raise GraphValidationError(f"node {node} out of range [0, {self._n})")

    def transition_columns(self):
        """``T`` in CSC form (zero-copy view of the cached ``T^T`` CSR).

        Column ``t`` is the step-1 backward mass for target ``t``; the
        sparse warm-up phases slice it directly.
        """
        with self._derived_lock:
            if self._transition_csc is None:
                from scipy.sparse import csc_matrix

                transpose = self._transition_t
                self._transition_csc = csc_matrix(
                    (transpose.data, transpose.indices, transpose.indptr),
                    shape=self._transition.shape,
                )
            return self._transition_csc

    def in_degree_array(self) -> np.ndarray:
        """Per-node in-degree (nnz of each ``T`` column), cached.

        An entry ``(v, j)`` of a propagating block spreads to
        ``in_degree[v]`` rows in the next step, so
        ``sum_v counts[v] * in_degree[v]`` bounds the next block's nnz —
        the sparse-phase gate computes this in O(n) per step.
        """
        # Resolved before taking the lock: _derived_lock is not
        # re-entrant and transition_columns() acquires it too.
        columns = self.transition_columns()
        with self._derived_lock:
            if self._in_degrees is None:
                self._in_degrees = np.diff(columns.indptr)
            return self._in_degrees

    @staticmethod
    def _gather_columns(csc, targets: np.ndarray) -> np.ndarray:
        """Densify the requested CSC columns into an ``(n, B)`` block."""
        mass = np.zeros((csc.shape[0], targets.shape[0]), dtype=np.float64)
        for j, target in enumerate(targets):
            start, end = csc.indptr[target], csc.indptr[target + 1]
            mass[csc.indices[start:end], j] = csc.data[start:end]
        return mass

    def _check_target_block(self, targets: Sequence[int]) -> np.ndarray:
        """Validate and normalise a block of target ids to int64."""
        targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
        if targets.ndim != 1 or targets.shape[0] == 0:
            raise GraphValidationError(
                "target block must be a non-empty 1-d sequence of node ids"
            )
        if targets.min() < 0 or targets.max() >= self._n:
            raise GraphValidationError(
                f"target block contains ids outside [0, {self._n})"
            )
        return targets

    @staticmethod
    def _check_steps(steps: int) -> None:
        if steps < 1:
            raise GraphValidationError(f"steps must be >= 1, got {steps}")
