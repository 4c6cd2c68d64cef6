"""The concurrent serving layer: load a graph once, serve many users.

See :class:`QueryService` for the worker-pool front, :mod:`repro.query`
for the request values it executes through :func:`repro.api.run` (re-
exported here), :mod:`repro.service.requests` for the response value
object, and :class:`~repro.service.stats.ServiceStats` for the
observability snapshot.
"""

from repro.query import ExplainRequest, MultiWayRequest, TwoWayRequest
from repro.service.requests import (
    RESPONSE_STATUSES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    QueryResponse,
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
