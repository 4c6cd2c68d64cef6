"""The concurrent serving layer: load a graph once, serve many users.

See :class:`QueryService` for the worker-pool front,
:mod:`repro.service.requests` for the request/response value objects,
and :class:`~repro.service.stats.ServiceStats` for the observability
snapshot.
"""

from repro.service.requests import (
    RESPONSE_STATUSES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    ExplainRequest,
    MultiWayRequest,
    QueryResponse,
    TwoWayRequest,
)
from repro.service.service import QueryService, Ticket
from repro.service.stats import ServiceStats

__all__ = [
    "ExplainRequest",
    "MultiWayRequest",
    "QueryResponse",
    "QueryService",
    "RESPONSE_STATUSES",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_REJECTED",
    "ServiceStats",
    "Ticket",
    "TwoWayRequest",
]
