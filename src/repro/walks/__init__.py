"""Random-walk kernels: the sparse walk engine and the layers above it.

Layered as: per-target Eq. 5 kernels (:class:`WalkEngine`), batched
block propagation
(:meth:`WalkEngine.backward_first_hit_block`), resumable walk state
(:class:`WalkState`), the cross-join :class:`WalkCache`, and the
deepening-round machinery (:class:`DeepeningRounds`: bounded-memory
windows + walk-cache spill, for ``B-BJ`` and ``B-IDJ`` under every
measure's kernel).
"""

from repro.walks.cache import WalkCache, WalkCacheStats
from repro.walks.engine import WalkEngine, WalkEngineStats
from repro.walks.kernels import (
    BlockKernel,
    DHTBlockKernel,
    PPRBlockKernel,
    as_block_kernel,
)
from repro.walks.rounds import DeepeningRounds
from repro.walks.state import WalkState

__all__ = [
    "BlockKernel",
    "DHTBlockKernel",
    "DeepeningRounds",
    "PPRBlockKernel",
    "WalkCache",
    "WalkCacheStats",
    "WalkEngine",
    "WalkEngineStats",
    "WalkState",
    "as_block_kernel",
]
