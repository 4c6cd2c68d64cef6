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

Measures with no single-propagation backward kernel (SimRank's
pairwise-recursive fixed point) have no block kernel; they implement the
:class:`repro.extensions.measures.SeriesMeasure` block contract directly
and use only the score-vector half of the walk cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Protocol, runtime_checkable

import numpy as np

from repro.graph.validation import GraphValidationError


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
    behaviour of every DHT call site).  Anything else — e.g. the cache
    identity of a matrix-backed measure like SimRank, which has no
    single-propagation kernel — is rejected, so a resumable walk can
    never silently run under the wrong algebra.
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
