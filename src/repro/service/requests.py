"""Request and response value objects for the query service.

Requests are frozen dataclasses so a seeded workload generator can build
a deterministic mix once and replay it bit-identically — the concurrency
battery's oracle comparisons depend on requests being immutable values.
Node sets are stored as tuples for the same reason.

Every completed request — exact, budget-flagged, or expired while
queued — is answered with a :class:`QueryResponse` whose ``result`` is a
:class:`~repro.exec.budget.PartialResult` (joins) or an
:class:`~repro.planner.plan.ExplainedPlan` (explains).  Admission
failures are *clean rejections*: ``status == "rejected"``, no result,
and the reason in ``error`` — never an exception out of the worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exec.budget import QueryBudget

#: Response statuses: the request ran (``result`` holds its outcome),
#: was turned away at admission, or hit an unexpected execution error.
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_ERROR = "error"

RESPONSE_STATUSES = (STATUS_OK, STATUS_REJECTED, STATUS_ERROR)


@dataclass(frozen=True)
class TwoWayRequest:
    """One 2-way top-``k`` join (:func:`repro.api.two_way_join`).

    ``measure`` is a name (``None``/DHT names for the core DHT path,
    ``"ppr"`` / ``"simrank"`` otherwise) or a
    :class:`~repro.extensions.measures.SeriesMeasure` instance; the
    service resolves names to a fresh instance per execution, so request
    values stay immutable and measure-internal memos are never shared
    across worker threads.  ``budget`` overrides the service's default
    :class:`~repro.exec.budget.QueryBudget` for this request only.
    """

    left: Tuple[int, ...]
    right: Tuple[int, ...]
    k: int
    algorithm: str = "b-idj-y"
    measure: Optional[object] = None
    budget: Optional[QueryBudget] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", tuple(int(u) for u in self.left))
        object.__setattr__(self, "right", tuple(int(u) for u in self.right))


@dataclass(frozen=True)
class MultiWayRequest:
    """One n-way top-``k`` join (:func:`repro.api.multi_way_join`).

    ``query_edges`` are directed query-graph edges over
    ``len(node_sets)`` vertices; ``plan`` is ``"fixed"`` (the
    bit-identity oracle order) or ``"auto"`` (cost-based planner).
    """

    query_edges: Tuple[Tuple[int, int], ...]
    node_sets: Tuple[Tuple[int, ...], ...]
    k: int
    algorithm: str = "pj-i"
    m: int = 50
    measure: Optional[object] = None
    plan: str = "fixed"
    budget: Optional[QueryBudget] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "query_edges",
            tuple((int(i), int(j)) for i, j in self.query_edges),
        )
        object.__setattr__(
            self,
            "node_sets",
            tuple(tuple(int(u) for u in nodes) for nodes in self.node_sets),
        )


@dataclass(frozen=True)
class ExplainRequest:
    """Plan-only request (:func:`repro.api.explain_multi_way_plan`).

    Returns the :class:`~repro.planner.plan.ExplainedPlan` the matching
    :class:`MultiWayRequest` would execute, without walking.  Explains
    are never budget-governed (planning is walk-free) but still pass
    through admission control like any request.
    """

    query_edges: Tuple[Tuple[int, int], ...]
    node_sets: Tuple[Tuple[int, ...], ...]
    k: int
    algorithm: str = "pj-i"
    m: int = 50
    measure: Optional[object] = None
    plan: str = "auto"

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "query_edges",
            tuple((int(i), int(j)) for i, j in self.query_edges),
        )
        object.__setattr__(
            self,
            "node_sets",
            tuple(tuple(int(u) for u in nodes) for nodes in self.node_sets),
        )


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
