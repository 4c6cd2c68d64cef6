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

A block has two forms.  Early steps touch the 1-, 2-, 4-hop
in-neighbourhood of the targets, so a walk starts as a **frontier
block**: a ``(B, n)`` CSR matrix, one sparse row per target
(:meth:`WalkEngine.backward_onehot_step`), stepped by a sparse x sparse
product whose cost follows the frontier instead of ``nnz(T) * B``.
:meth:`WalkEngine.frontier_pays` is the gate both walkers ask before
each step (``WalkState`` and ``B-BJ``'s lean scorer): the exact product
bound of the next step, from the in-degree profile, against the dense
step's work.  When it says no, :func:`dense_block` commits the
C-contiguous ``(n, B)`` array once and
:meth:`WalkEngine.backward_block_step` — which takes either form and
returns the same one — runs the CSR x dense product from there on
(:func:`~repro.walks.kernels.dense_step`, into a buffer the walk owns,
its rows split across idle cores when the product is large).  The
two steps add the same products in the same ascending-``k`` order and
differ only in the exact zeros one of them skips, so every entry is
bit-identical whichever form computed it.

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
from scipy.sparse import issparse

from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError
from repro.walks.kernels import dense_step

#: Additive counter fields of :class:`WalkEngineStats` (reads sum the
#: per-thread shards).
STAT_COUNTERS = (
    "propagation_steps",
    "frontier_steps",
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

# The frontier phase's gate: a step runs sparse x sparse while its exact
# product bound, times this factor, is at most the dense step's
# ``nnz(T) * B`` multiply-adds (a sparse product pays branchy per-entry
# work, a sort and a merge into the prefix; the SpMM streams).  Set from
# isolated timings of whole steps (product + prefix update) on the three
# bench graphs, same data through both forms, ms as sparse / dense with
# the ``nnz(T) * B / bound`` ratio the gate sees:
#
#   nway_cold, ER n=8000 deg 4, B=32    twoway_cold, PA n=20000, B=64
#   step 2  0.36 /  2.73  (1622)        step 2   1.0 / 20.4  (884)
#   step 3  0.42 /  2.02   (386)        step 3   6.8 / 16.6   (46)
#   step 4  0.66 /  1.42    (96)        step 4  62   / 13.8    (4.4)
#   step 5  1.77 /  1.37    (25)        service graph, PA n=8000, B=32
#   step 6  5.87 /  1.34     (7)        step 2  0.70 /  2.37  (380)
#                                       step 3  2.34 /  1.93   (23)
#                                       step 4  13.0 /  1.91    (2.8)
#
# Sparse wins down to a ratio of 46 and loses from 25 on; 32 picks the
# cheaper side at every step above.  (8, the lean scorer's former
# private factor, takes the ratio-25 and ratio-23 steps sparse at a
# loss.)  One constant for every caller; re-measure before moving it.
FRONTIER_GATE = 32


def _entry_rows(block, of_row: np.ndarray) -> np.ndarray:
    """``of_row[j]`` repeated once per stored entry of row ``j`` of a
    frontier block — aligned with ``block.indices`` / ``block.data``."""
    return np.repeat(of_row, np.diff(block.indptr))


def dense_block(block) -> np.ndarray:
    """A frontier block as the C-contiguous ``(n, B)`` array it stands
    for (a block that already is one comes back as it is).

    A ``(B, n)`` array in Fortran order is the ``(n, B)`` array in C
    order, so ``toarray(order="F").T`` lands in the layout the dense
    step and the row reads want with scipy's C loops only — no Python
    scatter, no copy of a transposed view later.  A frontier block
    holds each entry once, so the sums ``toarray`` forms are the
    entries themselves.
    """
    if not issparse(block):
        return block
    return block.toarray(order="F").T


def block_rows(block, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of a walk block of either form as a fresh
    ``(|rows|, B)`` array — the joins' read, equal entry for entry to
    ``dense_block(block)[rows]``."""
    if issparse(block):
        return dense_block(block[:, rows])
    return block[rows]


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
    strictly less work.  ``frontier_steps`` is the subset of those
    column-steps, from step 2 on, that ran as a sparse x sparse product
    on a frontier block (the step-1 column gather is not counted): how
    much of the walking cost followed the frontier instead of
    ``nnz(T) * B``.  ``sparse_products`` counts CSR mat-vec / mat-mat
    calls — one per step of a block in either form — and therefore
    *does* drop under batching.

    The bound-layer counters mirror the same philosophy for the pruning
    machinery: ``bound_builds`` counts ``Y_l^+`` reach-mass constructions
    (one ``O(d |E_G|)`` propagation each, incremented by
    :class:`repro.core.bounds.YBound` itself so every build is counted
    regardless of the code path), ``bound_cache_hits`` counts Y bounds
    served from a :class:`repro.bounds_cache.BoundPlanCache` without
    building, and ``plan_builds`` / ``plan_cache_hits`` do the same for
    restricted-tail propagation plans.  ``peak_block_bytes`` is the
    high-water mark of any single resumable walk block's buffers
    (walker mass + score prefix: 16 bytes per node per column once
    dense, what the sparse arrays hold — never more — while a block is
    still a frontier block) — the number a ``QueryBudget.max_bytes``
    ceiling on the block operators is checked against.

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
        # nnz of each ``T`` column is the length of the matching ``T^T``
        # row.  Eager (O(n)) so the frontier gate reads it lock-free.
        self._in_degrees = np.diff(self._transition_t.indptr)
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

    def checkpoint(self, site: str, block=None, nbytes=None, count: int = 1) -> None:
        """Cooperative budget/fault checkpoint.

        Every api query installs a governor; a join driven directly,
        with none installed, makes this a no-op (tracer events aside).

        ``site`` names the unit-of-work boundary (see
        :mod:`repro.exec.governor`); ``block`` is an in-flight walk
        block the fault injector may poison; ``nbytes`` is a predicted
        allocation size checked against the byte budget before the
        buffers are committed.  ``count`` back-to-back visits of one
        site (a triage pass over ``count`` cached targets) cost one
        governor call and are charged as ``count`` visits (see
        :meth:`~repro.exec.governor.ExecutionGovernor.checkpoint`).

        A traced query records the same sites as span events, ``count``
        of them (the events land before the governor runs, so a budget
        stop at this checkpoint is still visible in the trace).
        """
        if count < 1:
            return
        tracer = getattr(self._tracer_local, "tracer", None)
        if tracer is not None:
            tracer.event(site, nbytes=nbytes, count=count)
        governor = getattr(self._governor_local, "governor", None)
        if governor is not None:
            governor.checkpoint(site, block=block, nbytes=nbytes, count=count)

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
        mass = dense_block(self.backward_onehot_step(targets))
        series[0] = mass
        for i in range(1, steps):
            mass = self.backward_block_step(mass, targets, first=False)
            series[i] = mass
        return series

    def backward_onehot_step(self, targets: np.ndarray):
        """The first Eq. 5 step for a block of one-hot columns.

        ``T @ e_t`` is column ``t`` of ``T``, so step 1 is a per-target
        gather — ``O(sum indeg(t))`` instead of a full ``O(|E_G| B)``
        product, and bit-identical to it (the skipped products are exact
        zeros).  Returns ``P_1`` as a frontier block: a ``(B, n)`` CSR
        matrix whose row ``j`` is column ``targets[j]`` of ``T`` (a row
        of the cached ``T^T``), indices ascending.
        """
        targets = self._check_target_block(targets)
        self.checkpoint("block")
        mass = self._transition_t[targets]
        self.stats.add("propagation_steps", int(targets.shape[0]))
        self.stats.add("sparse_products", 1)
        return mass

    def frontier_pays(self, mass) -> bool:
        """Whether the next Eq. 5 step of frontier block ``mass`` is
        cheaper as a sparse x sparse product than as the dense SpMM.

        An entry at node ``v`` spreads to ``in_degree[v]`` rows, so the
        sum of in-degrees over the block's entries is the step's exact
        multiply-add count (and bounds the next block's nnz), read in
        ``O(nnz(mass))``; the dense step costs ``nnz(T) * B`` whatever
        the block holds.  See :data:`FRONTIER_GATE`.
        """
        bound = int(self._in_degrees[mass.indices].sum())
        return bound * FRONTIER_GATE <= self._transition.nnz * mass.shape[0]

    def backward_block_step(
        self, mass, targets: np.ndarray, first: bool, out=None, fold=None
    ):
        """One Eq. 5 step for a backward block, in the form it came in.

        Zeroes each column's target entry **in place** (unless ``first``)
        and returns the propagated block: ``mass @ T^T``, freshly
        allocated, for a ``(B, n)`` frontier block (whose row indices
        come back unsorted; the next frontier step sorts them on entry,
        so the last and largest one — about to be densified — is never
        sorted); ``T @ mass`` for a dense ``(n, B)`` array, written by
        :func:`~repro.walks.kernels.dense_step` into ``out`` — a buffer
        the caller owns, typically the block it propagated from one step
        earlier (``None`` claims a fresh one).  ``fold = (weight, acc)``
        runs the prefix update ``acc += weight * result`` inside the same
        step, over the same row ranges; the dense form only.
        Entry ``(i, j)`` is ``sum_k T[i, k] * mass[k, j]`` added in
        ascending ``k`` in both forms, exact zeros skipped in the sparse
        one: the results are bit-identical.  This is the shared
        primitive behind :meth:`backward_first_hit_block`,
        :class:`repro.walks.state.WalkState` and ``B-BJ``'s lean scorer.
        """
        if issparse(mass):
            return self._frontier_step(mass, targets, first)
        width = mass.shape[1]
        # Checkpoint, and claim the output, before any mutation: a budget
        # stop or an allocation failure (injected or real) leaves the
        # caller's state as it was (targets not zeroed, step not counted).
        self.checkpoint("block", block=mass)
        if out is None:
            out = np.empty((self._n, width), dtype=np.float64)
        if not first:
            mass[targets, np.arange(width)] = 0.0
        dense_step(self._transition, mass, out, fold)
        self.stats.add("propagation_steps", int(width))
        self.stats.add("sparse_products", 1)
        return out

    def _frontier_step(self, mass, targets: np.ndarray, first: bool):
        """:meth:`backward_block_step` for a ``(B, n)`` frontier block."""
        width = mass.shape[0]
        # The fault injector pokes a 2-d block: offer the entries as a
        # column (a block whose targets have no in-edges has none).
        self.checkpoint("block", block=mass.data[:, None] if mass.nnz else None)
        # Row j is added up in the order of its indices; ascending is
        # the order of T's rows, which the dense product follows.
        mass.sort_indices()
        if not first:
            mass.data[mass.indices == _entry_rows(mass, targets)] = 0.0
        out = mass @ self._transition_t
        self.stats.add("propagation_steps", int(width))
        self.stats.add("frontier_steps", int(width))
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
        """Per-node in-degree (nnz of each ``T`` column).

        An entry ``(v, j)`` of a propagating block spreads to
        ``in_degree[v]`` rows in the next step, which is what
        :meth:`frontier_pays` sums.
        """
        return self._in_degrees

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
