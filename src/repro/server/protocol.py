"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

The server deliberately avoids third-party web frameworks: the subset of
HTTP it needs — request line, headers, ``Content-Length`` bodies, JSON/CSV
responses, ``Retry-After`` — is small enough to frame by hand, and doing so
keeps the serving stack importable anywhere the package itself is.

Connections are one-shot: every response carries ``Connection: close`` and
the server closes the stream after writing it.  Clients that want pipelining
open more sockets; on the loopback deployments this subsystem targets, the
accept cost is noise next to an anonymization run.

:func:`read_request` enforces the protocol limits (request-line/header sizes,
body cap) and raises :class:`HttpError` with the right status code; handlers
raise it too, so the connection loop has exactly one error path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

import asyncio

__all__ = [
    "HttpError",
    "Request",
    "read_request",
    "render_response",
    "json_response",
    "parse_json",
    "splice_header",
]

#: Hard cap on the request line and on any single header line, in bytes.
MAX_LINE_BYTES = 8 * 1024
#: Hard cap on the number of header lines.
MAX_HEADER_COUNT = 64
#: Default cap on request bodies (the server can lower/raise it).
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """An error that maps directly onto an HTTP response."""

    def __init__(
        self, status: int, message: str, headers: dict[str, str] | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str  # path component only, query stripped
    query: dict[str, str]
    headers: dict[str, str]  # keys lowercased
    body: bytes
    #: Submitting client identity: the ``X-Client-Id`` header when present,
    #: otherwise the peer address — the key the rate limiter buckets by.
    client: str = ""
    #: Named groups captured by the matched route pattern.
    path_params: dict[str, str] = field(default_factory=dict)
    #: Trace id: the ``X-Request-Id`` header when present, otherwise minted
    #: at ingress.  Echoed on the response and stamped on any job created.
    request_id: str = ""
    #: Route template (e.g. ``/v1/jobs/{id}``) filled in at dispatch — the
    #: low-cardinality label requests are metered under.
    route: str = ""

    def json(self) -> dict:
        """The body parsed as a JSON object (400 on anything else)."""
        payload = parse_json(self.body, "request body is not valid JSON")
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload


def parse_json(text: str | bytes, message: str):
    """Parse client JSON; any failure, nesting past the recursion limit
    included, is a 400 saying ``message``."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise HttpError(400, f"{message}: {error}") from None


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return b""  # clean EOF before a request
        raise HttpError(400, "truncated request") from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "header line too long") from None
    if len(line) > MAX_LINE_BYTES:
        raise HttpError(400, "header line too long")
    return line


async def read_request(
    reader: asyncio.StreamReader,
    peer: str,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> Request | None:
    """Read one request from the stream; ``None`` on EOF before a request."""
    request_line = await _read_line(reader)
    if not request_line.strip():
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, target, _version = parts
    try:
        split = urlsplit(target)
    except ValueError:
        raise HttpError(400, f"malformed request target {target!r}") from None

    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_COUNT + 1):
        line = await _read_line(reader)
        if not line.strip():
            break
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(400, "too many header lines")

    body = b""
    raw_length = headers.get("content-length", "0")
    # ASCII digits only: int() would also take "+3", "1_0" and Unicode digits.
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise HttpError(400, f"malformed Content-Length {raw_length!r}")
    # Sized as text first: int() refuses strings of over 4300 digits.
    digits = raw_length.lstrip("0") or "0"
    if len(digits) > len(str(max_body_bytes)) or int(digits) > max_body_bytes:
        raise HttpError(
            413, f"request body of {digits} bytes exceeds {max_body_bytes}"
        )
    content_length = int(digits)
    if content_length:
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "request body shorter than Content-Length") from None

    return Request(
        method=method.upper(),
        path=split.path,
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
        client=headers.get("x-client-id", peer),
        request_id=headers.get("x-request-id", ""),
    )


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    headers: dict[str, str] | None = None,
) -> bytes:
    """Frame one complete HTTP/1.1 response (always ``Connection: close``)."""
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def splice_header(response: bytes, name: str, value: str) -> bytes:
    """Insert one header into an already-rendered response.

    Handlers return fully framed bytes; the connection loop uses this to
    stamp ``X-Request-Id`` on every response without re-rendering bodies.
    """
    separator = response.find(b"\r\n\r\n")
    if separator < 0:
        return response
    line = f"\r\n{name}: {value}".encode("latin-1")
    return response[:separator] + line + response[separator:]


def json_response(
    status: int, payload: object, headers: dict[str, str] | None = None
) -> bytes:
    return render_response(
        status,
        json.dumps(payload, separators=(",", ":")).encode("utf-8"),
        headers=headers,
    )
