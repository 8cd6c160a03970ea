"""Minimal asyncio HTTP/1.1 plumbing for the query service.

Just enough protocol for a JSON API on the stdlib: parse one request
(request line, headers, optional ``Content-Length`` body), write one
response, close the connection.  ``Connection: close`` semantics keep
the state machine trivial — every request gets a fresh connection,
which is also what the equivalence and smoke suites exercise.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from ..ioutil import canonical_json

__all__ = [
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "canonical_json",
    "error_text",
    "read_request",
    "split_path",
]

#: Upper bounds keeping a misbehaving client from ballooning memory.
MAX_REQUEST_LINE = 8192
MAX_HEADER_COUNT = 64
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def error_text(status: int, message: str) -> str:
    """The uniform JSON error envelope, as body text."""
    from ..api.spec import SCHEMA_VERSION

    return canonical_json(
        {
            "schema_version": SCHEMA_VERSION,
            "error": {"status": status, "message": message},
        }
    )


class HttpError(Exception):
    """A malformed or oversized request (maps to a 400 response)."""


class HttpRequest:
    """One parsed request."""

    __slots__ = ("method", "target", "path", "params", "headers", "body")

    def __init__(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.target = target
        parts = urlsplit(target)
        self.path = unquote(parts.path)
        #: Query-string parameters (last occurrence wins).
        self.params = dict(parse_qsl(parts.query, keep_blank_values=True))
        self.headers = headers
        self.body = body

    def json(self) -> object:
        """The request body decoded as JSON."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(f"request body is not valid JSON: {exc}") from exc

    def __repr__(self) -> str:
        return f"HttpRequest({self.method} {self.target!r})"


class HttpResponse:
    """One response, rendered to wire bytes."""

    __slots__ = ("status", "body", "content_type", "extra_headers")

    def __init__(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.extra_headers = dict(extra_headers or {})

    @classmethod
    def json(
        cls,
        status: int,
        text: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> "HttpResponse":
        """A JSON response from already-canonical text."""
        return cls(status, text.encode("utf-8"), extra_headers=extra_headers)

    @classmethod
    def error(
        cls,
        status: int,
        message: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> "HttpResponse":
        """The uniform JSON error envelope (see :func:`error_text`)."""
        return cls.json(
            status, error_text(status, message), extra_headers=extra_headers
        )

    def to_bytes(self) -> bytes:
        """The full HTTP/1.1 wire form (Connection: close)."""
        reason = _REASONS.get(self.status, "Unknown")
        headers = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}; charset=utf-8",
            f"Content-Length: {len(self.body)}",
            "Connection: close",
        ]
        headers.extend(
            f"{name}: {value}" for name, value in self.extra_headers.items()
        )
        head = "\r\n".join(headers) + "\r\n\r\n"
        return head.encode("ascii") + self.body


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[HttpRequest]:
    """Parse one request off the stream; None on a clean EOF."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError("connection closed mid request line") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError("request line too long") from exc
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError("request line too long")
    try:
        method, target, version = line.decode("ascii").split()
    except ValueError as exc:
        raise HttpError(f"malformed request line: {line!r}") from exc
    if not version.startswith("HTTP/1."):
        raise HttpError(f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    while True:
        try:
            raw = await reader.readuntil(b"\r\n")
        except asyncio.LimitOverrunError as exc:
            raise HttpError("header line too long") from exc
        except asyncio.IncompleteReadError as exc:
            raise HttpError("connection closed mid headers") from exc
        if raw in (b"\r\n", b"\n"):
            break
        if len(headers) >= MAX_HEADER_COUNT:
            raise HttpError("too many headers")
        try:
            name, _, value = raw.decode("latin-1").partition(":")
        except UnicodeDecodeError as exc:
            raise HttpError("undecodable header") from exc
        if not _:
            raise HttpError(f"malformed header line: {raw!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HttpError("bad Content-Length") from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpError(f"unacceptable Content-Length {length}")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise HttpError("connection closed mid body") from exc
    try:
        return HttpRequest(method.upper(), target, headers, body)
    except ValueError as exc:  # urlsplit rejects some malformed targets
        raise HttpError(f"unparsable request target {target!r}: {exc}") from exc


def split_path(path: str) -> Tuple[str, ...]:
    """Path segments without empty parts (``/v1/series/x`` -> v1, series, x)."""
    return tuple(segment for segment in path.split("/") if segment)
