"""The HTTP/1.1 wire subset of the service front-end, and its client.

* every request outside the subset (chunked bodies, a bad
  ``Content-Length``, oversized or malformed request lines and header
  blocks) is a typed ``bad-request`` 400 followed by a close — and a
  hypothesis fuzz of raw request bytes never draws a 5xx, a malformed
  reply or a dead server;
* ``HTTP/1.0`` and ``Connection: close`` close after the reply;
  pipelined requests are answered in order;
* :class:`BoundClient` re-sends a request only when a reused keep-alive
  connection failed before any reply byte — never after a timeout;
* a client that hangs up is a quiet close, and ``--log-requests``
  prints one access line per request.
"""

import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.datasets import power_law_graph
from repro.service import (
    ERROR_CODES,
    BoundClient,
    BoundService,
    BoundServiceServer,
    ServiceError,
    start_server,
)

TRIANGLE = "Q(x,y,z) :- R(x,y), R(y,z), R(z,x)"
PS = (1.0, 2.0, math.inf)
BOUND_BODY = json.dumps({"query": TRIANGLE, "ps": [1.0, 2.0, "inf"]}).encode()
REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def db():
    return Database({"R": power_law_graph(80, 400, 0.8, seed=5)})


@pytest.fixture(scope="module")
def served(db):
    service = BoundService(db, ps=PS)
    service.precompute([TRIANGLE])
    server = start_server(service)
    yield server
    server.shutdown()
    server.server_close()


def _post(path: bytes, body: bytes, *headers: bytes) -> bytes:
    lines = [b"POST " + path + b" HTTP/1.1", b"Host: test",
             b"Content-Length: %d" % len(body), *headers]
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


def _read_reply(rfile):
    """One reply as ``(status, headers, payload)``, or ``None`` at EOF."""
    line = rfile.readline()
    if not line:
        return None
    match = re.fullmatch(rb"HTTP/1\.1 (\d{3}) [^\r\n]+\r\n", line)
    assert match, line
    headers = {}
    while (line := rfile.readline()) != b"\r\n":
        name, _, value = line.partition(b":")
        assert value.endswith(b"\r\n"), line
        headers[name.decode().lower()] = value.strip().decode()
    body = rfile.read(int(headers["content-length"]))
    assert headers["content-type"] == "application/json"
    return int(match.group(1)), headers, json.loads(body)


def _exchange(server, data: bytes, replies: int | None = None):
    """Send raw bytes; read ``replies`` replies, or (``None``) every
    reply until the server closes after the client's EOF."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(data)
        if replies is None:
            sock.shutdown(socket.SHUT_WR)
        rfile = sock.makefile("rb")
        out = []
        while replies is None or len(out) < replies:
            reply = _read_reply(rfile)
            if reply is None:
                break
            out.append(reply)
        return out


def _refused(server, data: bytes, needle: str) -> None:
    """The request is a typed 400 with ``Connection: close``, and the
    server closes even though this client keeps its side open."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(data)
        rfile = sock.makefile("rb")
        status, headers, payload = _read_reply(rfile)
        assert rfile.read() == b""  # closed by the server
    assert status == 400
    assert headers["connection"] == "close"
    assert payload["error"]["code"] == "bad-request"
    assert needle in payload["error"]["message"]


class TestRefusals:
    def test_chunked_body(self, served):
        data = (b"POST /bound HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                + b"%x\r\n" % len(BOUND_BODY) + BOUND_BODY + b"\r\n0\r\n\r\n")
        _refused(served, data, "Transfer-Encoding")

    @pytest.mark.parametrize(
        "header, needle",
        [
            (None, "missing Content-Length"),
            (b"-1", "invalid Content-Length"),
            (b"ten", "invalid Content-Length"),
            (b"12, 12", "invalid Content-Length"),
            (b"%d" % ((1 << 20) + 1), "exceeds 1048576 bytes"),
        ],
    )
    def test_content_length(self, served, header, needle):
        lines = [b"POST /bound HTTP/1.1"]
        if header is not None:
            lines.append(b"Content-Length: " + header)
        _refused(served, b"\r\n".join(lines) + b"\r\n\r\n" + BOUND_BODY, needle)

    def test_conflicting_content_lengths(self, served):
        data = _post(b"/bound", BOUND_BODY, b"Content-Length: 3")
        _refused(served, data, "invalid Content-Length")

    def test_oversized_request_line(self, served):
        data = b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n"
        _refused(served, data, "request line exceeds 8192 bytes")

    def test_oversized_header_block(self, served):
        filler = b"".join(b"X-Pad-%d: %s\r\n" % (i, b"p" * 1000) for i in range(70))
        data = b"GET /healthz HTTP/1.1\r\n" + filler + b"\r\n"
        _refused(served, data, "header block exceeds 65536 bytes")

    @pytest.mark.parametrize(
        "line",
        [
            b"GARBAGE",
            b"GET /healthz",
            b"GET healthz HTTP/1.1",
            b"GET /healthz HTTP/2.0",
            b"GET  /healthz HTTP/1.1",
            b"GET /health z HTTP/1.1",
            b"G(T /healthz HTTP/1.1",
        ],
    )
    def test_malformed_request_line(self, served, line):
        _refused(served, line + b"\r\n\r\n", "malformed request line")

    @pytest.mark.parametrize(
        "header", [b"NoColon", b"Bad Name: 1", b"Host : test", b" folded: 1"]
    )
    def test_malformed_header_line(self, served, header):
        data = b"GET /healthz HTTP/1.1\r\n" + header + b"\r\n\r\n"
        _refused(served, data, "malformed header line")


class TestConnectionHandling:
    def test_http10_closes_after_reply(self, served):
        (reply,) = _exchange(served, b"GET /healthz HTTP/1.0\r\n\r\n", None)
        status, headers, payload = reply
        assert (status, payload) == (200, {"status": "ok"})
        assert headers["connection"] == "close"

    def test_connection_close_closes_after_reply(self, served):
        host, port = served.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(_post(b"/bound", BOUND_BODY, b"Connection: keep-alive, close"))
            rfile = sock.makefile("rb")
            status, headers, payload = _read_reply(rfile)
            assert rfile.read() == b""  # closed without waiting for EOF
        assert status == 200 and payload["status"] == "optimal"
        assert headers["connection"] == "close"

    def test_keep_alive_serves_requests_in_order(self, served):
        replies = _exchange(
            served,
            _post(b"/bound", BOUND_BODY)
            + b"GET /healthz HTTP/1.1\r\n\r\n"
            + _post(b"/nope", b"{}")
            + b"GET /metrics HTTP/1.1\r\n\r\n",
            replies=4,
        )
        assert [status for status, _, _ in replies] == [200, 200, 404, 200]
        assert replies[0][2]["cached"] is True
        assert replies[1][2] == {"status": "ok"}
        assert replies[2][2]["error"]["code"] == "not-found"
        assert "requests" in replies[3][2]
        assert all("connection" not in headers for _, headers, _ in replies)

    def test_pipelined_requests_in_one_write(self, served):
        replies = _exchange(
            served,
            b"\r\n"  # RFC 9112 §2.2: one empty line before a request is skipped
            + _post(b"/bound", BOUND_BODY)
            + _post(b"/bound", b"{not json"),
            replies=None,
        )
        assert [status for status, _, _ in replies] == [200, 400]
        assert replies[0][2]["status"] == "optimal"
        assert "not JSON" in replies[1][2]["error"]["message"]

    def test_typed_error_keeps_the_connection(self, served):
        replies = _exchange(
            served,
            _post(b"/bound", b'{"query": 3}') + _post(b"/bound", BOUND_BODY),
            replies=2,
        )
        assert [status for status, _, _ in replies] == [400, 200]


def _valid_requests():
    return st.sampled_from([
        _post(b"/bound", BOUND_BODY),
        b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n",
        b"GET /metrics HTTP/1.0\r\n\r\n",
    ])


@st.composite
def _request_bytes(draw):
    """Raw bytes near and far from a valid request: valid ones with a
    few bytes replaced, inserted or cut, random binary, and
    header-shaped junk."""
    kind = draw(st.sampled_from(["mutated", "binary", "lines"]))
    if kind == "binary":
        return draw(st.binary(max_size=300))
    if kind == "lines":
        parts = draw(st.lists(
            st.sampled_from([
                b"POST /bound HTTP/1.1", b"GET /healthz HTTP/1.1",
                b"Content-Length: 5", b"Content-Length: -3",
                b"Transfer-Encoding: chunked", b"Connection: close",
                b"X: y", b"", b"{}", b"\x00\xff", b"GET / HTTP/1.1 x",
            ]),
            max_size=8,
        ))
        return b"\r\n".join(parts) + draw(st.sampled_from([b"", b"\r\n", b"\n"]))
    data = bytearray(draw(_valid_requests()))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(["replace", "insert", "cut"]))
        byte = draw(st.integers(0, 255))
        if action == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if action == "replace":
                data[at] = byte
            else:
                del data[at:]
    return bytes(data)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=_request_bytes())
def test_fuzzed_request_bytes_get_typed_replies(served, data):
    for status, headers, payload in _exchange(served, data, None):
        assert status < 500, payload
        if status >= 400:
            code = payload["error"]["code"]
            assert ERROR_CODES[code] == status
        else:
            assert "error" not in payload
    # the server still answers a well-formed request on a new connection
    with BoundClient(served.url, timeout=10) as client:
        assert client.healthz() == {"status": "ok"}


# ----------------------------------------------------------------------
# the client's retry rule


class _ScriptedServer:
    """A loopback peer replying to each request from a script.

    Each script step is the raw bytes to send back, then the connection
    is closed when the step says so.  Counts connections and requests.
    """

    OK = (b"HTTP/1.1 200 OK\r\nContent-Length: 15\r\n\r\n"
          b'{"status":"ok"}')

    def __init__(self, steps):
        self.steps = list(steps)
        self.connections = 0
        self.requests = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while self.steps:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            with conn, conn.makefile("rb") as rfile:
                while self.steps:
                    head = b""
                    while not head.endswith(b"\r\n\r\n"):
                        line = rfile.readline()
                        if not line:
                            break
                        head += line
                    if not head.endswith(b"\r\n\r\n"):
                        break
                    self.requests += 1
                    reply, close = self.steps.pop(0)
                    conn.sendall(reply)
                    if close:
                        break

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5)


class TestClientRetry:
    def test_reused_connection_closed_by_server_is_retried(self):
        # the server answers, then drops the idle connection: the next
        # request finds it dead before any reply byte and is re-sent
        peer = _ScriptedServer([(_ScriptedServer.OK, True),
                                (_ScriptedServer.OK, False)])
        try:
            with BoundClient(peer.url, timeout=5) as client:
                assert client.healthz() == {"status": "ok"}
                assert client.healthz() == {"status": "ok"}
        finally:
            peer.close()
        assert (peer.connections, peer.requests) == (2, 2)

    def test_new_connection_closed_unanswered_raises(self):
        peer = _ScriptedServer([(b"", True), (_ScriptedServer.OK, False)])
        try:
            with BoundClient(peer.url, timeout=5) as client:
                with pytest.raises(ConnectionError):
                    client.healthz()
        finally:
            peer.close()
        assert (peer.connections, peer.requests) == (1, 1)

    def test_failure_after_reply_bytes_is_not_retried(self):
        peer = _ScriptedServer([(_ScriptedServer.OK, False),
                                (b"HTTP/1.1 200", True),
                                (_ScriptedServer.OK, False)])
        try:
            with BoundClient(peer.url, timeout=5) as client:
                assert client.healthz() == {"status": "ok"}
                with pytest.raises(ConnectionError):
                    client.healthz()
        finally:
            peer.close()
        assert (peer.connections, peer.requests) == (1, 2)


class _Run:
    count = 7
    nodes_visited = 13


@pytest.fixture
def slow_server(db, monkeypatch):
    """A server whose evaluations block until released; counts them."""
    started = []
    release = threading.Event()

    def blocked_join(query, database, **kwargs):
        started.append(time.monotonic())
        release.wait(timeout=10.0)
        return _Run()

    monkeypatch.setattr("repro.service.service.generic_join", blocked_join)
    service = BoundService(db, ps=PS, max_concurrent_evaluations=2)
    server = start_server(service)
    yield server, service, started, release
    release.set()
    server.shutdown()
    server.server_close()


class TestTimeouts:
    def test_timed_out_post_is_not_resent(self, slow_server):
        server, _, started, _ = slow_server
        timeout = 0.5
        with BoundClient(server.url, timeout=timeout) as client:
            client.healthz()  # the evaluation goes out on a reused connection
            begin = time.monotonic()
            with pytest.raises(TimeoutError):
                client.evaluate(query=TRIANGLE)
            elapsed = time.monotonic() - begin
        time.sleep(0.3)  # a re-sent request would have started by now
        assert len(started) == 1
        assert timeout * 0.9 <= elapsed < timeout * 1.6

    def test_client_hang_up_is_a_quiet_close(self, slow_server, capfd):
        server, service, started, release = slow_server
        with BoundClient(server.url, timeout=0.2) as client:
            with pytest.raises(TimeoutError):
                client.evaluate(query=TRIANGLE)
        # a client gone mid-headers and one gone mid-body
        host, port = server.server_address[:2]
        for partial in (b"POST /bound HTTP/1.1\r\nContent-Le",
                        _post(b"/bound", BOUND_BODY)[:-5]):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(partial)
        release.set()  # the reply now goes to a closed socket
        deadline = time.monotonic() + 5
        while service.metrics()["requests"].get("evaluate") != 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.2)
        with BoundClient(server.url, timeout=5) as client:
            assert client.healthz() == {"status": "ok"}
        assert len(started) == 1
        assert "Traceback" not in capfd.readouterr().err


# ----------------------------------------------------------------------
# access log


class TestLogRequests:
    def test_one_access_line_per_request(self, db, capfd):
        service = BoundService(db, ps=PS)
        server = BoundServiceServer(service, log_requests=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with BoundClient(server.url) as client:
                client.healthz()
                client.bound(query=TRIANGLE, ps=PS)
                with pytest.raises(ServiceError):
                    client._request("GET", "/nope")
            _exchange(server, b"BROKEN\r\n\r\n", None)
        finally:
            server.shutdown()
            server.server_close()
        lines = capfd.readouterr().err.splitlines()
        pattern = r'127\.0\.0\.1:\d+ "(\S+) (\S+)" (\d{3})'
        logged = [re.fullmatch(pattern, line).groups() for line in lines]
        assert logged == [
            ("GET", "/healthz", "200"),
            ("POST", "/bound", "200"),
            ("GET", "/nope", "404"),
            ("-", "-", "400"),
        ]

    def test_cli_serve_logs_requests(self, db, tmp_path):
        path = tmp_path / "R.csv"
        rows = ["x,y"] + [f"{x},{y}" for x, y in db["R"]]
        path.write_text("\n".join(rows) + "\n")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--table", f"R={path}", "--log-requests"],
            stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, text=True,
            env=env,
        )
        try:
            url = None
            for line in server.stderr:
                match = re.search(r"serving on (http://\S+)", line)
                if match:
                    url = match.group(1)
                    break
            assert url is not None
            with BoundClient(url, timeout=30) as client:
                assert client.bound(query=TRIANGLE, ps=PS).status == "optimal"
        finally:
            server.send_signal(signal.SIGINT)
            rest = server.communicate(timeout=30)[1]
        assert re.findall(r'^127\.0\.0\.1:\d+ "(.*)" (\d+)$', rest, re.M) == [
            ("POST /bound", "200")
        ]
