"""Random-walk kernels: sparse production engine and test oracles.

Layered as: per-target Eq. 5 kernels (:class:`WalkEngine`, the
equivalence oracle), batched block propagation
(:meth:`WalkEngine.backward_first_hit_block`), resumable walk state
(:class:`WalkState`), the cross-join :class:`WalkCache`, and the
deepening-round machinery (:class:`DeepeningRounds`: bounded-memory
windows + walk-cache spill, for ``B-IDJ`` under DHT or any kernel
measure; :class:`MatrixRounds` for a matrix-backed measure).
"""

from repro.walks.cache import WalkCache, WalkCacheStats
from repro.walks.engine import WalkEngine, WalkEngineStats
from repro.walks.kernels import (
    BlockKernel,
    DHTBlockKernel,
    PPRBlockKernel,
    as_block_kernel,
)
from repro.walks.rounds import DeepeningRounds, MatrixRounds
from repro.walks.state import WalkState

__all__ = [
    "BlockKernel",
    "DHTBlockKernel",
    "DeepeningRounds",
    "MatrixRounds",
    "PPRBlockKernel",
    "WalkCache",
    "WalkCacheStats",
    "WalkEngine",
    "WalkEngineStats",
    "WalkState",
    "as_block_kernel",
]
