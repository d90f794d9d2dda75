"""Minimal HTTP/1.1 front-end for :class:`~repro.service.service.BoundService`.

A :class:`~socketserver.ThreadingTCPServer` (one thread per connection)
speaks the subset of HTTP/1.1 (RFC 9112) the service needs: persistent
connections carrying ``Content-Length`` bodies, one reply per request
in request order (so pipelined requests are answered in turn), and four
endpoints:

``POST /bound``
    :class:`~repro.service.protocol.BoundRequest` →
    :class:`~repro.service.protocol.BoundResponse`.
``POST /evaluate``
    :class:`~repro.service.protocol.EvaluateRequest` →
    :class:`~repro.service.protocol.EvaluateResponse`; budget verdicts
    come back as typed 422s, never a 500.
``GET /metrics``
    The service's counters, cache hit rates, and latency percentiles.
``GET /healthz``
    Liveness probe.

**The wire subset.**  The handler reads the request line and the header
block, keeps only ``Content-Length``, ``Transfer-Encoding`` and
``Connection``, and answers each request with one ``sendall``.  A
request outside the subset gets a typed ``bad-request`` 400 with
``Connection: close``, and the connection closes (the framing of
whatever follows is unknown): a malformed or oversized request line, a
malformed header line or oversized header block, any
``Transfer-Encoding`` (chunked bodies are not spoken), and a
``Content-Length`` that is non-numeric, negative, over 1 MiB, or
missing on a ``POST``.  ``HTTP/1.0`` and ``Connection: close`` close
the connection after the reply.  A client that hangs up mid-request is
a quiet close.

:func:`start_server` runs the server on a daemon thread (tests,
examples, benchmarks); the CLI's ``repro serve`` drives
:meth:`~socketserver.BaseServer.serve_forever` on the main thread.
:class:`BoundClient` is the matching client over one keep-alive socket.
"""

from __future__ import annotations

import json
import math
import re
import socket
import socketserver
import sys
import threading
from email.utils import formatdate
from http import HTTPStatus
from typing import Any

from .protocol import (
    BoundRequest,
    BoundResponse,
    EvaluateRequest,
    EvaluateResponse,
    ServiceError,
)
from .service import BoundService

__all__ = ["BoundServiceServer", "BoundClient", "start_server"]

#: Request bodies beyond this are refused (typed, before JSON parsing).
_MAX_BODY_BYTES = 1 << 20
#: The longest request line, and the largest header block, accepted.
_MAX_LINE_BYTES = 8192
_MAX_HEADER_BYTES = 1 << 16
_LINE_TOO_LONG = f"request line exceeds {_MAX_LINE_BYTES} bytes"
_HEADERS_TOO_LONG = f"header block exceeds {_MAX_HEADER_BYTES} bytes"

# RFC 9112 §3: method SP origin-form SP HTTP-version; the target is
# visible ASCII, the method an RFC 9110 token
_TOKEN = rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
_REQUEST_LINE = re.compile(rb"(%s) (/[!-~]*) HTTP/1\.([0-9])\r?\n" % _TOKEN)
_FIELD_NAME = re.compile(_TOKEN)
_REASONS = {status.value: status.phrase for status in HTTPStatus}

class _BadRequest(Exception):
    """A request outside the wire subset: answered 400, then closed."""


def _has_close(value: bytes) -> bool:
    return b"close" in (token.strip() for token in value.lower().split(b","))


def _read_line(rfile, room: int, too_long: str) -> bytes | None:
    """One CRLF- (or LF-) terminated line of at most ``room`` bytes;
    ``None`` when the peer hung up before its end."""
    line = rfile.readline(room + 1)
    if len(line) > room:
        raise _BadRequest(too_long)
    return line if line.endswith(b"\n") else None


class _Handler(socketserver.StreamRequestHandler):
    # a reply is one small write; Nagle + delayed ACK could hold it ~40 ms
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except OSError:
            # the client hung up or reset mid-request or mid-reply:
            # nobody is left to answer
            pass

    def _serve_one(self) -> bool:
        """Read and answer one request; whether the connection stays open."""
        try:
            request = self._read_request()
        except _BadRequest as exc:
            error = ServiceError("bad-request", str(exc))
            self._reply("-", "-", error.http_status, error.to_payload(), close=True)
            return False
        if request is None:
            return False
        method, path, body, close = request
        status, payload, retry_after = self._dispatch(method, path, body)
        self._reply(method, path, status, payload, close, retry_after)
        return not close

    def _read_request(self) -> tuple[str, str, bytes, bool] | None:
        """The next request's method, path, body and whether it asks to
        close; ``None`` at a clean end of the connection."""
        rfile = self.rfile
        line = _read_line(rfile, _MAX_LINE_BYTES, _LINE_TOO_LONG)
        if line in (b"\r\n", b"\n"):  # RFC 9112 §2.2: skip one empty line
            line = _read_line(rfile, _MAX_LINE_BYTES, _LINE_TOO_LONG)
        if line is None:
            return None
        match = _REQUEST_LINE.fullmatch(line)
        if match is None:
            raise _BadRequest(f"malformed request line {line[:80]!r}")
        method, target, minor = match.groups()
        close = minor == b"0"
        length = transfer_encoding = None
        room = _MAX_HEADER_BYTES
        while True:
            line = _read_line(rfile, room, _HEADERS_TOO_LONG)
            if line is None:
                return None
            room -= len(line)
            if line in (b"\r\n", b"\n"):
                break
            name, colon, value = line.partition(b":")
            if not colon or _FIELD_NAME.fullmatch(name) is None:
                raise _BadRequest(f"malformed header line {line[:80]!r}")
            name, value = name.lower(), value.strip()
            if name == b"content-length":
                if not value.isdigit() or length not in (None, value):
                    raise _BadRequest(f"invalid Content-Length {value[:40]!r}")
                length = value
            elif name == b"transfer-encoding":
                transfer_encoding = value
            elif name == b"connection":
                close = close or _has_close(value)
        if transfer_encoding is not None:
            raise _BadRequest(
                "Transfer-Encoding is not supported; send a Content-Length body"
            )
        if length is None and method == b"POST":
            raise _BadRequest("missing Content-Length")
        size = int(length or 0)
        if size > _MAX_BODY_BYTES:
            raise _BadRequest(f"request body exceeds {_MAX_BODY_BYTES} bytes")
        body = rfile.read(size) if size else b""
        if len(body) < size:
            return None
        return method.decode("ascii"), target.decode("ascii"), body, close

    def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any], int | None]:
        """The status, JSON payload and ``Retry-After`` seconds (or
        ``None``) answering one request."""
        service: BoundService = self.server.service
        try:
            if method == "GET" and path == "/healthz":
                return 200, {"status": "ok"}, None
            if method == "GET" and path == "/metrics":
                return 200, service.metrics(), None
            if method == "POST" and path in ("/bound", "/evaluate"):
                try:
                    payload = json.loads(body)
                except (ValueError, RecursionError) as exc:
                    raise ServiceError(
                        "bad-request", f"request body is not JSON: {exc}"
                    ) from exc
                if path == "/bound":
                    response = service.bound(BoundRequest.from_payload(payload))
                else:
                    response = service.evaluate(
                        EvaluateRequest.from_payload(payload)
                    )
                return 200, response.to_payload(), None
            raise ServiceError(
                "not-found", f"no such endpoint: {method} {path}"
            )
        except ServiceError as exc:
            error = exc
        except Exception as exc:  # a bug, but the process must keep serving
            error = ServiceError("internal", f"{type(exc).__name__}: {exc}")
        retry_after = None
        if error.code == "overloaded":
            # the standard header mirrors detail.retry_after_seconds so
            # off-the-shelf clients back off without parsing the body
            seconds = error.detail.get("retry_after_seconds", 1)
            retry_after = max(1, math.ceil(seconds))
        return error.http_status, error.to_payload(), retry_after

    def _reply(
        self,
        method: str,
        path: str,
        status: int,
        payload: dict[str, Any],
        close: bool,
        retry_after: int | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Server: repro-bound-service\r\nDate: {formatdate(usegmt=True)}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if retry_after is not None:
            head += f"Retry-After: {retry_after}\r\n"
        if close:
            head += "Connection: close\r\n"
        if self.server.log_requests:
            host, port = self.client_address[:2]
            sys.stderr.write(f'{host}:{port} "{method} {path}" {status}\n')
        self.connection.sendall(head.encode("ascii") + b"\r\n" + body)


class BoundServiceServer(socketserver.ThreadingTCPServer):
    """One service instance behind a threading HTTP/1.1 server.

    ``log_requests`` prints one access line per request on stderr:
    client address, method, path and status.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        service: BoundService,
        address: tuple[str, int] = ("127.0.0.1", 0),
        log_requests: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.log_requests = log_requests

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def start_server(
    service: BoundService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> BoundServiceServer:
    """Start the HTTP front-end on a daemon thread and return it.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.url``).  Call ``server.shutdown()`` to stop.
    """
    server = BoundServiceServer(service, (host, port))
    thread = threading.Thread(
        target=server.serve_forever,
        name="bound-service-http",
        daemon=True,
    )
    thread.start()
    server._serve_thread = thread
    return server


class BoundClient:
    """A minimal client for the service's JSON protocol.

    Keeps one keep-alive socket (``TCP_NODELAY``), writes each request
    as one message and reads the status line, the ``Content-Length`` and
    ``Connection`` headers and the body.  Raises
    :class:`~repro.service.protocol.ServiceError` for typed error
    responses, so callers handle budget verdicts by code.  Not
    thread-safe — use one client per thread.

    **Retry rule.**  A request is re-sent once, on a new connection,
    only when it went out on a *reused* keep-alive connection and failed
    before any byte of the reply arrived: a send error, a reset or a
    clean close — the server dropped an idle connection, so it never
    saw the request.  A timeout, a failure on a new connection, or one
    after reply bytes raise at once: the server may still be working
    on the request, and a re-sent ``/evaluate`` would run twice.
    """

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        if url.startswith("http://"):
            url = url[len("http://"):]
        self._host = url.rstrip("/")
        host, colon, port = self._host.rpartition(":")
        if not colon or "]" in port:  # no port: "host" or "[::1]"
            host, port = self._host, "80"
        self._address = (host.strip("[]"), int(port))
        self._timeout = timeout
        self._sock: socket.socket | None = None
        self._rfile = None
        self._replying = False

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def __enter__(self) -> "BoundClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _connect(self) -> None:
        sock = socket.create_connection(self._address, self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def _round_trip(self, message: bytes) -> tuple[int, bytes]:
        """Send one request and read its reply's status and body."""
        self._replying = False
        self._sock.sendall(message)
        rfile = self._rfile
        first = rfile.read(1)
        if not first:
            raise ConnectionError("the server closed the connection unanswered")
        self._replying = True
        status_line = first + rfile.readline(_MAX_LINE_BYTES)
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"malformed status line {status_line[:80]!r}")
        length = None
        close = False
        room = _MAX_HEADER_BYTES
        while (line := rfile.readline(room + 1)) not in (b"\r\n", b"\n"):
            room -= len(line)
            if room < 0 or not line.endswith(b"\n"):
                raise ConnectionError("truncated or oversized reply headers")
            name, _, value = line.partition(b":")
            name, value = name.strip().lower(), value.strip()
            if name == b"content-length" and value.isdigit():
                length = int(value)
            elif name == b"connection":
                close = _has_close(value)
        if length is None:
            raise ConnectionError("reply without a Content-Length")
        body = rfile.read(length)
        if len(body) < length:
            raise ConnectionError("truncated reply body")
        if close:
            self.close()
        return int(parts[1]), body

    def _request(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        head = f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n"
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        message = head.encode("ascii") + b"\r\n" + body
        while True:
            reused = self._sock is not None
            if not reused:
                self._connect()
            try:
                status, data = self._round_trip(message)
                break
            except OSError as exc:
                self.close()
                if (
                    not reused
                    or self._replying
                    or isinstance(exc, TimeoutError)
                ):
                    raise
            except BaseException:
                self.close()
                raise
        try:
            decoded = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                "internal", f"non-JSON response ({status}): {exc}"
            ) from exc
        if status >= 400 or "error" in decoded:
            error = decoded.get("error", {})
            raise ServiceError(
                error.get("code", "internal"),
                error.get("message", f"HTTP {status}"),
                detail=error.get("detail"),
            )
        return decoded

    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        return self._request("GET", "/metrics")

    def bound(self, request: BoundRequest | None = None, **fields) -> BoundResponse:
        """``bound(BoundRequest(...))`` or ``bound(query=..., ps=...)``."""
        if request is None:
            request = BoundRequest(**fields)
        payload = self._request("POST", "/bound", request.to_payload())
        return BoundResponse.from_payload(payload)

    def evaluate(
        self, request: EvaluateRequest | None = None, **fields
    ) -> EvaluateResponse:
        if request is None:
            request = EvaluateRequest(**fields)
        payload = self._request("POST", "/evaluate", request.to_payload())
        return EvaluateResponse.from_payload(payload)
