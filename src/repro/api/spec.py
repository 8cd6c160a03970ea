"""The unified query schema: :class:`QuerySpec` in, :class:`QueryResult` out.

Every consumer of the analysis layer — the CLI (``repro query``), the
HTTP service (``repro serve``), and library callers — speaks this one
vocabulary.  A spec names *what* to compute (an experiment, a series
slice, the headline numbers, a day-level record slice, or the catalog);
a result wraps the computed payload in a stable, versioned JSON
envelope.  Canonicalisation happens up front (dates to ISO, TLD filters
to lower-case A-labels), so two specs that mean the same thing share
one :meth:`QuerySpec.cache_key` — which is what the service's request
coalescing and result cache key on, and what makes the offline and
online paths byte-identical.
"""

from __future__ import annotations

import datetime as _dt
import json
import re
from typing import Dict, Optional

from ..dns.idna import encode_label
from ..errors import PunycodeError, QueryError
from ..timeline import as_date

__all__ = [
    "SCHEMA_VERSION",
    "QUERY_KINDS",
    "QUERY_FIELDS",
    "SERIES_NAMES",
    "MAX_RECORDS_LIMIT",
    "QuerySpec",
    "QueryResult",
    "jsonify",
]

#: Version of the JSON envelope; bump on any incompatible payload change.
#: v2: the ``scenario`` query dimension and the ``diff`` kind.
SCHEMA_VERSION = 2

#: Everything a query can ask for.  ``diff`` computes one experiment
#: under a counterfactual scenario minus the same experiment under
#: baseline (the scenario engine's result family).
QUERY_KINDS = ("experiment", "series", "headline", "records", "catalog", "diff")

#: Named longitudinal series the ``series`` kind can slice.
SERIES_NAMES = (
    "ns_composition",
    "hosting_composition",
    "tld_composition",
    "tld_shares",
    "asn_shares",
    "sanctioned_composition",
    "listed_counts",
)

#: Largest records page one query may ask for.  Every record on a page
#: is materialised and rendered in one response with no deadline check
#: between records, so the page size is what bounds that work.
MAX_RECORDS_LIMIT = 1000

#: Spec fields accepted from dicts/JSON/query strings, in canonical order.
QUERY_FIELDS = (
    "kind", "experiment", "series", "start", "end",
    "date", "tld", "offset", "limit", "scenario",
)

#: Canonical scenario ids (mirrors repro.scenario; kept local so the
#: spec layer stays import-light).
_SCENARIO_ID = re.compile(r"^[a-z0-9][a-z0-9-]{0,63}$")


def _iso(value: object, field: str) -> str:
    """Normalise one date-ish value to its ISO string."""
    try:
        return as_date(value).isoformat()
    except Exception as exc:
        raise QueryError(f"bad {field!r} date {value!r}: {exc}") from exc


def _alabel_tld(value: str) -> str:
    """Normalise a TLD filter to its lower-case A-label (``рф`` == ``xn--p1ai``)."""
    text = str(value).strip().lstrip(".").lower()
    if not text:
        raise QueryError("empty tld filter")
    try:
        return encode_label(text)
    except PunycodeError as exc:
        raise QueryError(f"bad tld filter {value!r}: {exc}") from exc


def jsonify(value: object) -> object:
    """Recursively coerce a payload to plain JSON-serialisable types.

    Handles dates, tuples/sets, numpy scalars (anything with ``item()``),
    and stringifies non-string dict keys.
    """
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonify(item) for item in value]
    if isinstance(value, (_dt.date, _dt.datetime)):
        return value.isoformat()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return jsonify(item())
    return str(value)


class QuerySpec:
    """One validated, canonicalised query against the analysis layer."""

    __slots__ = QUERY_FIELDS

    def __init__(
        self,
        kind: str,
        experiment: Optional[str] = None,
        series: Optional[str] = None,
        start: Optional[object] = None,
        end: Optional[object] = None,
        date: Optional[object] = None,
        tld: Optional[str] = None,
        offset: Optional[int] = None,
        limit: Optional[int] = None,
        scenario: Optional[str] = None,
    ) -> None:
        if kind not in QUERY_KINDS:
            raise QueryError(
                f"unknown query kind {kind!r}; known: {', '.join(QUERY_KINDS)}"
            )
        self.kind = kind
        self.experiment = str(experiment) if experiment is not None else None
        self.series = str(series) if series is not None else None
        self.start = _iso(start, "start") if start is not None else None
        self.end = _iso(end, "end") if end is not None else None
        self.date = _iso(date, "date") if date is not None else None
        self.tld = _alabel_tld(tld) if tld is not None else None
        self.offset = self._count(offset, "offset")
        self.limit = self._count(limit, "limit")
        if self.limit is not None and self.limit > MAX_RECORDS_LIMIT:
            raise QueryError(
                f"limit must be <= {MAX_RECORDS_LIMIT}: {self.limit}"
            )
        self.scenario = self._scenario(scenario)
        self._check_shape()

    @staticmethod
    def _scenario(value: Optional[str]) -> Optional[str]:
        """Canonicalise the scenario dimension.

        ``baseline`` (and absence) normalise to ``None`` so a v2 spec
        naming the baseline explicitly shares its :meth:`cache_key` —
        and therefore its cached results and coalesced requests — with
        every legacy v1 payload.
        """
        if value is None:
            return None
        text = str(value).strip().lower()
        if text in ("", "baseline"):
            return None
        if not _SCENARIO_ID.match(text):
            raise QueryError(
                f"bad scenario id {value!r} "
                "(canonical ids are kebab-case: [a-z0-9][a-z0-9-]*)"
            )
        return text

    @staticmethod
    def _count(value: Optional[object], field: str) -> Optional[int]:
        if value is None:
            return None
        try:
            number = int(value)
        except (TypeError, ValueError) as exc:
            raise QueryError(f"bad {field!r} value {value!r}") from exc
        if number < 0:
            raise QueryError(f"{field} must be >= 0: {number}")
        return number

    def _check_shape(self) -> None:
        """Per-kind required/forbidden field validation."""
        if self.kind == "experiment" and not self.experiment:
            raise QueryError("experiment queries need an 'experiment' id")
        if self.kind == "series":
            if self.series not in SERIES_NAMES:
                raise QueryError(
                    f"unknown series {self.series!r}; "
                    f"known: {', '.join(SERIES_NAMES)}"
                )
            if self.start and self.end and self.start > self.end:
                raise QueryError(
                    f"inverted series range: {self.start} > {self.end}"
                )
        if self.kind == "records" and not self.date:
            raise QueryError("records queries need a 'date'")
        if self.kind == "diff":
            if not self.experiment:
                raise QueryError("diff queries need an 'experiment' id")
            if self.scenario is None:
                raise QueryError(
                    "diff queries need a non-baseline 'scenario' "
                    "(the result is scenario minus baseline)"
                )

    @property
    def scenario_id(self) -> str:
        """The effective scenario this spec targets (``baseline`` when unset)."""
        return self.scenario or "baseline"

    # ------------------------------------------------------------------
    # Construction from loose input
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "QuerySpec":
        """Build a spec from a plain dict, rejecting unknown fields."""
        if not isinstance(payload, dict):
            raise QueryError(f"query spec must be an object, got {type(payload).__name__}")
        unknown = set(payload) - set(QUERY_FIELDS)
        if unknown:
            raise QueryError(f"unknown query field(s): {', '.join(sorted(unknown))}")
        if "kind" not in payload:
            raise QueryError("query spec needs a 'kind'")
        return cls(**{key: payload[key] for key in QUERY_FIELDS if key in payload})

    @classmethod
    def from_json(cls, text: str) -> "QuerySpec":
        """Parse a JSON object into a spec."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise QueryError(f"query spec is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Canonical dict: normalised values, None fields omitted."""
        return {
            field: getattr(self, field)
            for field in QUERY_FIELDS
            if getattr(self, field) is not None
        }

    def cache_key(self) -> str:
        """Stable identity two equivalent specs share (coalescing/cache key)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuerySpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def __repr__(self) -> str:
        return f"QuerySpec({self.cache_key()})"


class QueryResult:
    """The versioned envelope every query returns: ``(kind, spec, data)``.

    ``data`` is the computed payload; :meth:`to_json` stamps it with
    :data:`SCHEMA_VERSION` and the caller's canonical spec.
    """

    def __init__(
        self, kind: str, spec: Dict[str, object], data: Dict[str, object]
    ) -> None:
        self.kind = kind
        self.spec = spec
        self.data = data

    def to_dict(self) -> Dict[str, object]:
        """The full envelope as a plain dict."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "spec": jsonify(self.spec),
            "data": jsonify(self.data),
        }

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, compact, ASCII).

        The service and ``repro query`` both emit exactly these bytes,
        which is what the byte-identity equivalence suite asserts.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"),
            ensure_ascii=True,
        )

    def __repr__(self) -> str:
        return f"QueryResult({self.kind!r}, spec={self.spec})"
