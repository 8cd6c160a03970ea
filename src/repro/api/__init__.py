"""The unified, versioned analysis API.

One vocabulary for every consumer::

    from repro.api import QuerySpec

    result = context.api.query(QuerySpec("experiment", experiment="fig1"))
    print(result.to_json())

``context.api`` is the context's :class:`~repro.api.facade.AnalysisFacade`,
the one entry point: ``repro query`` (offline) and ``repro serve`` (HTTP)
both route through it, so the same spec produces byte-identical JSON on
either path.  A :class:`QueryResult` is only ever ``(kind, spec, data)``;
an experiment query carries its artefact's payload as ``data``.
"""

from .deadline import Deadline, check_deadline, current_deadline, deadline_scope
from .facade import AnalysisFacade
from .spec import (
    QUERY_FIELDS,
    QUERY_KINDS,
    SCHEMA_VERSION,
    SERIES_NAMES,
    QueryResult,
    QuerySpec,
)

__all__ = [
    "SCHEMA_VERSION",
    "QUERY_KINDS",
    "QUERY_FIELDS",
    "SERIES_NAMES",
    "QuerySpec",
    "QueryResult",
    "AnalysisFacade",
    "Deadline",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
]
