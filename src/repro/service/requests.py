"""Response value objects for the query service.

The service takes the :mod:`repro.query` request values
(:class:`~repro.query.TwoWayRequest`,
:class:`~repro.query.MultiWayRequest`,
:class:`~repro.query.ExplainRequest`) — frozen, so a seeded workload
generator can build a deterministic mix once and replay it
bit-identically — and answers each completed one — exact,
budget-flagged, or expired while queued — with a :class:`QueryResponse`
whose ``result`` is a :class:`~repro.exec.budget.PartialResult` (joins)
or an :class:`~repro.planner.plan.ExplainedPlan` (explains).  Admission
failures are *clean rejections*: ``status == "rejected"``, no result,
and the reason in ``error`` — never an exception out of the worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Response statuses: the request ran (``result`` holds its outcome),
#: was turned away at admission, or hit an unexpected execution error.
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_ERROR = "error"

RESPONSE_STATUSES = (STATUS_OK, STATUS_REJECTED, STATUS_ERROR)


@dataclass
class QueryResponse:
    """What the service hands back for one request.

    ``status``
        ``"ok"`` — the request ran; ``result`` is its outcome (for
        joins always a :class:`~repro.exec.budget.PartialResult`,
        ``exact`` or flagged).  ``"rejected"`` — admission control
        turned the request away (queue full / too many in flight);
        ``error`` says why and ``result`` is ``None``.  ``"error"`` —
        the request failed validation or execution; ``error`` carries
        the message.
    ``queued_ms`` / ``latency_ms``
        Time spent waiting for a worker, and total submit-to-answer
        wall time (``latency_ms`` includes ``queued_ms``).
    """

    request: object
    status: str
    result: Optional[object] = None
    error: Optional[str] = None
    queued_ms: float = 0.0
    latency_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise ValueError(
                f"status must be one of {RESPONSE_STATUSES}, got {self.status!r}"
            )

    @property
    def ok(self) -> bool:
        """True when the request ran (its result may still be partial)."""
        return self.status == STATUS_OK

    @property
    def rejected(self) -> bool:
        """True when admission control turned the request away."""
        return self.status == STATUS_REJECTED
