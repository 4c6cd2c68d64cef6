"""Pull-based sorted inputs for the rank-join driver.

A rank-join input is a stream of :class:`~repro.core.two_way.base.ScoredPair`
in non-increasing score order.  ``AP`` materialises the whole 2-way join
up front (a :class:`RankJoinInput` with no refill); ``PJ``/``PJ-i`` expose
a top-``m`` prefix plus a refill callback that produces the next pair on
demand (the paper's ``getNextNodePair``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.two_way.base import ScoredPair
from repro.graph.validation import GraphValidationError

# Tolerance for the monotonicity guard: refills are computed by different
# code paths (bounded refinement vs batch join) and may differ by float
# rounding noise even though they are mathematically ordered.
_MONOTONICITY_SLACK = 1e-9

RefillFn = Callable[[], Optional[ScoredPair]]


class RankJoinInput:
    """A sorted, pull-based stream with first/last score bookkeeping.

    The HRJN corner bound needs, per input, the *first* (maximum) score
    ever pulled and the *last* (most recent, hence minimum) score pulled.
    """

    def __init__(
        self,
        initial: Sequence[ScoredPair],
        refill: Optional[RefillFn] = None,
        name: str = "input",
    ) -> None:
        self._buffer: List[ScoredPair] = list(initial)
        self._refill = refill
        self._name = name
        self._position = 0
        self._first_score: Optional[float] = None
        self._last_score: Optional[float] = None
        self._exhausted = False
        self._pulled = 0
        self.refill_calls = 0
        for i in range(1, len(self._buffer)):
            if self._buffer[i].score > self._buffer[i - 1].score + _MONOTONICITY_SLACK:
                raise GraphValidationError(
                    f"{name}: initial list not sorted by descending score"
                )

    @property
    def name(self) -> str:
        """Display name (usually the query-graph edge)."""
        return self._name

    @property
    def first_score(self) -> Optional[float]:
        """Highest score pulled so far (``None`` before the first pull)."""
        return self._first_score

    @property
    def last_score(self) -> Optional[float]:
        """Most recent score pulled (``None`` before the first pull)."""
        return self._last_score

    @property
    def exhausted(self) -> bool:
        """Whether the stream has reported end-of-input."""
        return self._exhausted

    @property
    def pulled(self) -> int:
        """Number of pairs pulled so far."""
        return self._pulled

    def pull(self) -> Optional[ScoredPair]:
        """Next pair in descending-score order, or ``None`` at the end."""
        if self._exhausted:
            return None
        if self._position >= len(self._buffer):
            if self._refill is None:
                self._exhausted = True
                return None
            self.refill_calls += 1
            item = self._refill()
            if item is None:
                self._exhausted = True
                return None
            self._buffer.append(item)
        item = self._buffer[self._position]
        self._position += 1
        if self._last_score is not None and item.score > self._last_score + _MONOTONICITY_SLACK:
            raise GraphValidationError(
                f"{self._name}: stream not monotone "
                f"({item.score} after {self._last_score})"
            )
        if self._first_score is None:
            self._first_score = item.score
        self._last_score = item.score
        self._pulled += 1
        return item
