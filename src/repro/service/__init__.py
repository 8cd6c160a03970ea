"""``repro.service`` — archive-backed HTTP query service.

The asyncio serving layer over :mod:`repro.api`: ``repro serve`` binds a
:class:`QueryService`, which answers the same :class:`~repro.api.spec.QuerySpec`
queries as offline ``repro query`` with byte-identical canonical JSON.
Resilience (per-request deadlines, the circuit breaker, serve-stale
degraded mode) lives in :mod:`repro.service.resilience` and the server
module.  ``repro serve --follow`` additionally runs the live follow
engine (:mod:`repro.live`) on a background thread, publishing change
events at ``/v1/events`` and as an SSE stream.  See docs/service.md and
docs/live.md for the endpoint and schema reference.
"""

from .http import HttpError, HttpRequest, HttpResponse, read_request
from .resilience import (
    ADMIT_DENY,
    ADMIT_FRESH,
    ADMIT_PROBE,
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)
from .server import (
    DEFAULT_SSE_BUFFER,
    LAST_EVENT_ID_HEADER,
    QueryService,
    run_service,
)

__all__ = [
    "DEFAULT_SSE_BUFFER",
    "LAST_EVENT_ID_HEADER",
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "QueryService",
    "read_request",
    "run_service",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "ADMIT_FRESH",
    "ADMIT_PROBE",
    "ADMIT_DENY",
]
