"""Block kernels: the per-step algebra batched walks are generic over.

:class:`repro.walks.state.WalkState` propagates an ``(n, B)`` column
block one step at a time and folds each step's mass into a score
prefix.  Everything measure-specific about that loop is captured here as
a *block kernel*:

* ``absorbing`` — whether each column's target entry is zeroed between
  steps.  DHT counts **first** hits (Eq. 5: a walker must not pass
  through the target), so its kernel is absorbing; Personalized PageRank
  counts *every* visit (Jeh & Widom), so its kernel propagates plainly.
* ``weight(i)`` — the coefficient on the step-``i`` mass in the score
  prefix (``lambda^i`` for DHT, ``(1-c) c^i`` for PPR).
* ``finalize(acc, targets)`` — turns the accumulated prefix into scores
  (DHT's affine ``alpha * acc + beta``; PPR adds the ``i = 0``
  self-visit term to each column's target entry).
  ``finalize_rows(acc_rows, rows, targets)`` is the same fold on a row
  gather of the prefix — what the joins read, since they only ever look
  at the left set's rows — and ``finalize_column`` the same fold on one
  full column, which only walk-cache donation still needs.

Kernels are small frozen dataclasses, so they double as the *cache
identity* of a measure: a :class:`~repro.walks.cache.WalkCache` or
:class:`~repro.bounds_cache.BoundPlanCache` built for one kernel
compares unequal to any other kernel (and to any other measure family),
which is what keeps DHT and PPR entries from ever colliding on the same
graph — see :func:`as_block_kernel` and the context validation in
:class:`repro.core.two_way.base.TwoWayContext`.

The module also holds the step those kernels fold: :func:`dense_step`,
the one CSR x dense product of the walk layer.  It writes into a
buffer its caller owns, splits the output rows across idle cores when
the product is large enough, and adds the same products in the same
order as ``T.dot`` whatever the split — see "The dense step" in
``docs/ALGORITHMS.md``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from queue import Empty, SimpleQueue
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.graph.validation import GraphValidationError

try:  # scipy's own CSR x dense loops (what ``T.dot`` runs), private API
    from scipy.sparse._sparsetools import csr_matvec, csr_matvecs
except ImportError:  # pragma: no cover - depends on the scipy build
    csr_matvec = csr_matvecs = None

# The dense step's split gate: a product is cut into row ranges for the
# helper threads only when ``nnz * B`` (its multiply-adds) reaches this.
# Below it, the hand-off (one pool round trip per step) costs more than
# the second core saves.  Set from isolated timings of whole steps (SpMM
# + prefix fold, ``WalkState``'s step) on the three bench graphs, ms as
# one range / two ranges on two threads (2-vCPU VM, median of three runs
# of 50-150 alternating steps), with the ``nnz * B`` the gate sees:
#
#   nway_cold, ER n=8000 deg 4          twoway_cold, PA n=20000
#   B=8   0.52 / 0.57   (257k)          B=4   1.39 /  1.18   (640k)
#   B=16  0.78 / 0.80   (513k)          B=8   2.14 /  1.71  (1.28M)
#   B=32  1.40 / 1.33  (1.03M)          B=16  4.13 /  3.28  (2.56M)
#   B=64  3.41 / 2.50  (2.05M)          B=64 16.45 / 10.49  (10.2M)
#   service graph, PA n=8000
#   B=8   0.77 / 0.72   (512k)
#   B=16  1.24 / 1.23  (1.02M)
#   B=32  2.55 / 2.13  (2.05M)
#
# Splitting loses below half a million multiply-adds and breaks even
# around a million (the ER and PA-8k rows at 1.02-1.03M gain 0-5 %;
# the product alone, without the fold, does not gain there at all), so
# the gate sits just above them: ``nway_cold``'s B = 32 steps stay on
# one thread.  From 1.28M on it wins, 1.2-1.6x from two million.  One
# constant for every caller; re-measure before moving it.
SPLIT_GATE = 1_200_000

# Prefix-fold chunk (entries): each thread stages ``weight * out`` in a
# buffer this small, cache-resident, never a fresh ``(n, B)`` one.
_FOLD_CHUNK = 32768

# A split step cuts its rows into this many ranges per thread, and each
# thread takes the next range when it finishes one: a thread that
# started late, or shares its core with another process, then holds the
# step up by one small range, not by half of it.
_RANGES_PER_THREAD = 4

#: Usable cores, read once: the ceiling on threads one step may use.
try:
    _CORES = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - platforms without affinity
    _CORES = os.cpu_count() or 1

# The ledger: live QueryService worker threads, each of which owns a
# core.  The extra threads one step may borrow are the usable cores
# minus those workers — or minus the one query thread when no service
# runs.
_ledger_lock = threading.Lock()
_service_workers = 0

# The helper: a lazily built, process-wide pool, claimed per step by a
# non-blocking acquire (a step that finds it busy runs every range on
# its own thread).  It only ever runs :func:`_drain` — no governor,
# tracer or stats hook — so checkpoints and counters stay on the
# caller's thread.
_helper_lock = threading.Lock()
_helper_pool: Optional[ThreadPoolExecutor] = None
_helper_submissions = 0  # threads' worth of work handed to the pool


def register_service_workers(count: int) -> None:
    """Add ``count`` live service worker threads to the ledger (a
    negative count removes them when the service closes)."""
    global _service_workers
    with _ledger_lock:
        _service_workers += count


def _threads(matrix, width: int) -> int:
    """How many threads the next product runs on (1: no split)."""
    extra = _CORES - max(1, _service_workers)
    if extra < 1 or matrix.nnz * width < SPLIT_GATE:
        return 1
    return min(1 + extra, matrix.shape[0])


def _row_ranges(indptr: np.ndarray, parts: int) -> List[Tuple[int, int]]:
    """``parts`` consecutive row ranges holding about equal nnz each
    (a range may be empty when one row holds more than its share)."""
    nnz = int(indptr[-1])
    cuts = np.searchsorted(indptr, np.arange(1, parts) * (nnz / parts))
    bounds = [0, *(int(c) for c in cuts), indptr.shape[0] - 1]
    return list(zip(bounds[:-1], bounds[1:]))


def _step_rows(matrix, mass, out, fold, staged, lo: int, hi: int) -> None:
    """Rows ``lo:hi`` of one step: zero them and run scipy's loop over
    them — what ``T.dot`` runs after its own ``np.zeros``
    (``csr_matvec`` for one column, as ``T.dot`` picks) — then fold
    them into the prefix, ``weight * out`` staged chunk by chunk in
    ``staged``.  Reads every row of ``mass``, writes only rows
    ``lo:hi`` of ``out`` and ``acc``: ranges never conflict."""
    if hi <= lo:
        return
    rows = out[lo:hi]
    rows.fill(0.0)
    indptr = matrix.indptr[lo : hi + 1]
    width = mass.shape[1]
    if width == 1:
        csr_matvec(hi - lo, matrix.shape[1], indptr, matrix.indices,
                   matrix.data, mass.ravel(), rows.ravel())
    else:
        csr_matvecs(hi - lo, matrix.shape[1], width, indptr, matrix.indices,
                    matrix.data, mass.ravel(), rows.ravel())
    if fold is None:
        return
    weight, acc = fold
    step = staged.shape[0]
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        chunk = staged[: stop - start]
        np.multiply(out[start:stop], weight, out=chunk)
        acc[start:stop] += chunk


def _owned(array: np.ndarray) -> bool:
    return array.dtype == np.float64 and array.flags.c_contiguous


def _drain(pending: SimpleQueue, matrix, mass, out, fold, staged) -> None:
    """:func:`_step_rows` on ranges taken from ``pending`` until none is
    left."""
    while True:
        try:
            lo, hi = pending.get_nowait()
        except Empty:
            return
        _step_rows(matrix, mass, out, fold, staged, lo, hi)


def _split(threads: int, matrix, mass, out, fold, staged) -> None:
    """Every row range of the step, drained by this thread and
    ``threads - 1`` helpers (``staged[t]`` is thread ``t``'s); returns
    once all of them have finished."""
    global _helper_pool, _helper_submissions
    if _helper_pool is None:
        _helper_pool = ThreadPoolExecutor(
            max_workers=max(1, _CORES - 1), thread_name_prefix="repro-dense-step"
        )
    pending: SimpleQueue = SimpleQueue()
    for rows in _row_ranges(matrix.indptr, _RANGES_PER_THREAD * threads):
        pending.put(rows)
    args = (pending, matrix, mass, out, fold)
    futures = [
        _helper_pool.submit(_drain, *args, staged[t]) for t in range(1, threads)
    ]
    _helper_submissions += len(futures)
    try:
        _drain(*args, staged[0])
    finally:
        # Wait for every helper, even when this thread failed: none may
        # still be writing once the caller sees the step end.
        errors = [future.exception() for future in futures]
    for error in errors:
        if error is not None:
            raise error


def dense_step(
    matrix,
    mass: np.ndarray,
    out: Optional[np.ndarray] = None,
    fold: Optional[Tuple[float, np.ndarray]] = None,
) -> np.ndarray:
    """``matrix @ mass`` written into ``out``; the walk layer's only
    CSR x dense product.

    ``out`` is a C-contiguous float64 buffer the caller owns (a walk
    passes the block it propagated from one step earlier; ``None``
    allocates one); its old contents are overwritten.  With ``fold =
    (weight, acc)`` the step also runs the prefix update ``acc +=
    weight * out``.  Returns ``out``.

    Every entry is bit-identical to ``matrix.dot(mass)`` (and the fold
    to ``acc += weight * out``): each output row is zeroed and summed by
    scipy's own loop, the same products in the same ascending order, on
    exactly one thread, and the fold is elementwise.  When the ledger
    leaves a core free and the product clears :data:`SPLIT_GATE`, rows
    are cut into nnz-balanced ranges that this thread and the helper
    take one at a time; each thread folds the rows it computed.  Every
    buffer is claimed before the first row is written, so an allocation
    failure leaves ``acc`` as it was.  A block scipy's loop cannot take
    as is (no ``csr_matvecs`` in this scipy build, a non-float64 or
    non-C-contiguous array) goes through ``matrix.dot`` instead.
    """
    num_rows, width = matrix.shape[0], mass.shape[1]
    if out is None:
        out = np.empty((num_rows, width), dtype=np.float64)
    if csr_matvecs is None or not (
        _owned(mass) and _owned(out) and matrix.dtype == np.float64
    ):
        np.copyto(out, matrix.dot(mass))
        if fold is not None:
            weight, acc = fold
            acc += out * weight
        return out
    threads = _threads(matrix, width)
    split = threads > 1 and _helper_lock.acquire(blocking=False)
    try:
        chunk_rows = min(num_rows, max(1, _FOLD_CHUNK // width))
        staged = np.empty(
            (threads if split else 1, chunk_rows if fold else 0, width)
        )
        if split:
            _split(threads, matrix, mass, out, fold, staged)
        else:
            _step_rows(matrix, mass, out, fold, staged[0], 0, num_rows)
    finally:
        if split:
            _helper_lock.release()
    return out


@runtime_checkable
class BlockKernel(Protocol):
    """Per-step algebra of one decayed-series measure.

    Implementations must be hashable value objects (frozen dataclasses):
    two kernels compare equal exactly when every score they would ever
    produce is identical, because kernel equality is what the walk and
    bound caches validate against.
    """

    absorbing: bool

    def weight(self, i: int) -> float:
        """Coefficient on the step-``i`` mass in the score prefix."""
        ...

    def finalize(self, acc: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Scores from an accumulated ``(n, B)`` prefix (fresh array)."""
        ...

    def finalize_column(self, acc_column: np.ndarray, target: int) -> np.ndarray:
        """Scores of one column from its length-``n`` prefix (fresh array)."""
        ...

    def finalize_rows(
        self, acc_rows: np.ndarray, rows: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Scores at node ids ``rows`` from the ``(|rows|, B)`` gather
        ``acc[rows]`` of the prefix (fresh array) — entry for entry the
        arithmetic of :meth:`finalize`, so the two agree bit for bit."""
        ...

    def empty_scores(self, num_nodes: int, targets: np.ndarray) -> np.ndarray:
        """Level-0 scores (the empty-sum floor) as an ``(n, B)`` array."""
        ...


@dataclass(frozen=True)
class DHTBlockKernel:
    """First-hit propagation folded with ``alpha * sum lambda^i P_i + beta``.

    The kernel :class:`~repro.core.dht.DHTParams` maps to; reflexive
    entries carry the return-walk artefact and are ignored by all
    callers, exactly as in the per-target Eq. 5 kernel.
    """

    alpha: float
    beta: float
    decay: float

    absorbing: ClassVar[bool] = True

    @classmethod
    def from_params(cls, params) -> "DHTBlockKernel":
        """Adapt a :class:`~repro.core.dht.DHTParams` (duck-typed to
        avoid a runtime import cycle: ``core.dht`` imports ``walks``)."""
        return cls(alpha=params.alpha, beta=params.beta, decay=params.decay)

    def weight(self, i: int) -> float:
        return self.decay ** i

    def finalize(self, acc: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return self.alpha * acc + self.beta

    def finalize_column(self, acc_column: np.ndarray, target: int) -> np.ndarray:
        return self.alpha * acc_column + self.beta

    def finalize_rows(
        self, acc_rows: np.ndarray, rows: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        return self.alpha * acc_rows + self.beta

    def empty_scores(self, num_nodes: int, targets: np.ndarray) -> np.ndarray:
        return np.full((num_nodes, targets.shape[0]), self.beta, dtype=np.float64)


@dataclass(frozen=True)
class PPRBlockKernel:
    """Plain (every-visit) propagation folded with ``(1-c) sum c^i S_i``.

    The kernel of :class:`repro.extensions.measures.TruncatedPPR`.  Not
    absorbing — a PPR walker may revisit the target — and ``finalize``
    adds the ``i = 0`` self-visit term ``(1-c)`` to each column's target
    entry, so a finalized column equals the measure's per-target
    ``backward_scores`` vector at *every* node, target included.
    """

    damping: float

    absorbing: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if not (0.0 < self.damping < 1.0):
            raise GraphValidationError(
                f"damping must be in (0, 1), got {self.damping}"
            )

    def weight(self, i: int) -> float:
        return (1.0 - self.damping) * self.damping ** i

    def finalize(self, acc: np.ndarray, targets: np.ndarray) -> np.ndarray:
        scores = acc.copy()
        scores[targets, np.arange(targets.shape[0])] += 1.0 - self.damping
        return scores

    def finalize_column(self, acc_column: np.ndarray, target: int) -> np.ndarray:
        scores = acc_column.copy()
        scores[target] += 1.0 - self.damping
        return scores

    def finalize_rows(
        self, acc_rows: np.ndarray, rows: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        scores = acc_rows.copy()
        scores[rows[:, None] == targets[None, :]] += 1.0 - self.damping
        return scores

    def empty_scores(self, num_nodes: int, targets: np.ndarray) -> np.ndarray:
        scores = np.zeros((num_nodes, targets.shape[0]), dtype=np.float64)
        scores[targets, np.arange(targets.shape[0])] = 1.0 - self.damping
        return scores


def as_block_kernel(params) -> BlockKernel:
    """Normalise ``params`` to a :class:`BlockKernel`.

    Accepts a kernel (returned as-is) or a
    :class:`~repro.core.dht.DHTParams`-shaped object (wrapped in a
    :class:`DHTBlockKernel`, preserving the pre-measure-generic
    behaviour of every DHT call site).  Anything else is rejected, so a
    resumable walk can never silently run under the wrong algebra.
    """
    if (
        hasattr(params, "absorbing")
        and hasattr(params, "weight")
        and hasattr(params, "finalize")
    ):
        return params
    if hasattr(params, "alpha") and hasattr(params, "beta") and hasattr(params, "decay"):
        return DHTBlockKernel.from_params(params)
    raise GraphValidationError(
        f"{params!r} defines no block propagation kernel; resumable walks "
        "need DHT params or a BlockKernel"
    )
