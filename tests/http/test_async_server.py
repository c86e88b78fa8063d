"""The asyncio edge: keep-alive pipelining, chunked streaming, limits.

Each test drives the server over a real socket — buffer carry-over,
framing, and connection lifetime are exactly what is under test, so no
client-library smarts are allowed to paper over them.
"""

import socket
import time

import pytest

from repro.cgi.request import CgiResponse
from repro.http.async_server import AsyncHttpServer
from repro.http.codec import ResponseReader, ServerConnection
from repro.http.message import HttpRequest, HttpResponse
from repro.http.persistent import PersistentHttpClient
from repro.http.router import Router
from repro.http.server import HttpServer
from repro.http.urls import Url
from repro.errors import BadRequestError
from repro.obs.metrics import MetricsRegistry

ROWS = 40


class StreamingReport:
    """A CGI program that streams rows like the report engine does."""

    def run(self, request):
        def rows():
            for i in range(ROWS):
                yield f"<P>row {i}</P>\n".encode()
        return CgiResponse(status=200,
                           headers=[("Content-Type", "text/html")],
                           body=b"<H1>Report</H1>\n", body_iter=rows())


def expected_stream_body() -> bytes:
    return b"<H1>Report</H1>\n" + b"".join(
        f"<P>row {i}</P>\n".encode() for i in range(ROWS))


def build_router(metrics=None) -> Router:
    router = Router(metrics=metrics)
    router.add_page("/hello", "<H1>Hello</H1>")
    router.gateway.install("stream", StreamingReport())
    return router


@pytest.fixture()
def metrics():
    return MetricsRegistry()


@pytest.fixture()
def server(metrics):
    with AsyncHttpServer(build_router(metrics), max_connections=3,
                         timeout=5.0) as srv:
        yield srv


def connect(server) -> socket.socket:
    sock = socket.create_connection((server.host, server.port),
                                    timeout=5.0)
    return sock


def read_until_closed(sock) -> bytes:
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


def read_n_responses(sock, count, deadline=5.0) -> bytes:
    """Read until ``count`` complete responses arrived."""
    data = b""
    reader = ResponseReader()
    got = 0
    end = time.monotonic() + deadline
    while got < count and time.monotonic() < end:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
        reader.receive(chunk)
        while got < count and isinstance(reader.next_event(),
                                         HttpResponse):
            got += 1
    return data


def content_length_of(head: bytes) -> int:
    """The body length the codec frames for a request head (its lines,
    without the blank line that ends it)."""
    connection = ServerConnection(keep_alive_max=1)
    connection.receive(head + b"\r\n" + b"x" * 64)
    return len(connection.next_event().body)


class TestKeepAlivePipelining:
    def test_pipelined_requests_share_one_connection(self, server):
        """Two whole requests in one write: the read buffer must carry
        request 2's bytes over from request 1's read."""
        with connect(server) as sock:
            sock.sendall(
                b"GET /hello HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
                b"GET /hello HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            data = read_n_responses(sock, 2)
        assert data.count(b"200 OK") == 2
        assert data.count(b"Hello") == 2

    def test_split_request_head_is_buffered(self, server):
        """A head arriving in two TCP segments parses once complete."""
        with connect(server) as sock:
            sock.sendall(b"GET /hel")
            time.sleep(0.05)
            sock.sendall(b"lo HTTP/1.0\r\n\r\n")
            data = read_until_closed(sock)
        assert b"200 OK" in data and b"Hello" in data

    def test_pipelining_carries_partial_next_request(self, server):
        """Request 2's first bytes ride the same segment as request 1's
        tail; the remainder arrives later."""
        with connect(server) as sock:
            sock.sendall(
                b"GET /hello HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
                b"GET /hel")
            first = read_n_responses(sock, 1)
            assert b"Hello" in first
            sock.sendall(b"lo HTTP/1.0\r\n\r\n")
            data = read_until_closed(sock)
        assert b"Hello" in data

    def test_http11_is_keep_alive_by_default(self, server):
        with connect(server) as sock:
            sock.sendall(b"GET /hello HTTP/1.1\r\nHost: t\r\n\r\n")
            data = read_n_responses(sock, 1)
            assert b"Keep-Alive" in data
            sock.sendall(b"GET /hello HTTP/1.1\r\nHost: t\r\n"
                         b"Connection: close\r\n\r\n")
            data = read_until_closed(sock)
        assert b"Connection: close" in data


class TestChunkedStreaming:
    def test_chunked_round_trip_and_connection_survives(self, server,
                                                        metrics):
        """HTTP/1.1 + streaming response = chunked framing, and the
        connection serves another request afterwards."""
        with PersistentHttpClient(http11=True) as client:
            url = Url.parse(f"{server.base_url}/cgi-bin/stream")
            first = client.fetch(url, HttpRequest(
                method="GET", target="/cgi-bin/stream"))
            assert first.status == 200
            assert first.body == expected_stream_body()
            # same socket still serves: the stream did not cost it
            again = client.fetch(
                Url.parse(f"{server.base_url}/hello"),
                HttpRequest(method="GET", target="/hello"))
            assert again.status == 200
        assert metrics.flat()["edge_responses_chunked_total"] == 1

    def test_chunked_wire_format(self, server):
        with connect(server) as sock:
            sock.sendall(b"GET /cgi-bin/stream HTTP/1.1\r\n"
                         b"Host: t\r\nConnection: close\r\n\r\n")
            data = read_until_closed(sock)
        head, _, body = data.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200" in head
        assert b"Transfer-Encoding: chunked" in head
        assert b"Content-Length" not in head
        assert body.endswith(b"0\r\n\r\n")  # terminal chunk

    def test_http10_client_still_gets_close_delimited(self, server):
        """Protocol downgrade: a 1996 client gets no chunks; the close
        ends the body."""
        with connect(server) as sock:
            sock.sendall(b"GET /cgi-bin/stream HTTP/1.0\r\n\r\n")
            data = read_until_closed(sock)
        head, _, body = data.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding" not in head
        assert b"Connection: close" in head
        assert body == expected_stream_body()


class TestLimitsAndShedding:
    def test_oversized_head_is_rejected(self, server):
        with connect(server) as sock:
            sock.sendall(b"GET /hello HTTP/1.0\r\nX-Pad: ")
            try:
                sock.sendall(b"x" * (70 * 1024) + b"\r\n\r\n")
            except OSError:
                pass  # server may slam the door mid-send
            try:
                data = read_until_closed(sock)
            except OSError:
                data = b""
        assert b"400" in data or data == b""

    def test_duplicate_content_length_is_400(self, server):
        with connect(server) as sock:
            sock.sendall(b"POST /cgi-bin/stream HTTP/1.0\r\n"
                         b"Content-Length: 3\r\nContent-Length: 4\r\n"
                         b"\r\nabc")
            data = read_until_closed(sock)
        assert b"400 Bad Request" in data

    def test_comma_joined_content_length_is_400(self, server):
        with connect(server) as sock:
            sock.sendall(b"POST /cgi-bin/stream HTTP/1.0\r\n"
                         b"Content-Length: 3, 3\r\n\r\nabc")
            data = read_until_closed(sock)
        assert b"400 Bad Request" in data

    def test_connection_budget_sheds_with_503(self, server, metrics):
        held = [connect(server) for _ in range(3)]
        try:
            for sock in held:
                sock.sendall(b"GET /hel")  # partial: pins the slot
            time.sleep(0.2)
            with connect(server) as extra:
                data = read_until_closed(extra)
            assert b"503" in data
            assert b"Retry-After" in data
        finally:
            for sock in held:
                sock.close()
        assert metrics.flat()["edge_shed_total"] >= 1

    def test_edge_metrics_are_on_statusz(self, server):
        with connect(server) as sock:
            sock.sendall(b"GET /statusz HTTP/1.0\r\n\r\n")
            data = read_until_closed(sock)
        assert b"edge_connections_active" in data
        assert b"edge_requests_total" in data


class TestHardenedContentLengthParser:
    """The codec's strict Content-Length rule, which both edges share
    (no silent first-wins on smuggling-shaped heads)."""

    def test_single_value_parses(self):
        assert content_length_of(
            b"POST / HTTP/1.0\r\nContent-Length: 42\r\n") == 42

    def test_absent_means_zero(self):
        assert content_length_of(b"GET / HTTP/1.0\r\n") == 0

    def test_duplicate_headers_rejected(self):
        with pytest.raises(BadRequestError, match="2 Content-Length"):
            content_length_of(b"POST / HTTP/1.0\r\n"
                              b"Content-Length: 3\r\n"
                              b"Content-Length: 3\r\n")

    def test_comma_joined_rejected_even_when_equal(self):
        with pytest.raises(BadRequestError, match="comma-joined"):
            content_length_of(
                b"POST / HTTP/1.0\r\nContent-Length: 3, 3\r\n")

    def test_negative_and_garbage_rejected(self):
        for value in (b"-1", b"0x10", b"3.5", b"\xb9"):
            with pytest.raises(BadRequestError, match="malformed"):
                content_length_of(
                    b"POST / HTTP/1.0\r\nContent-Length: " + value
                    + b"\r\n")

    def test_request_line_is_not_scanned(self):
        # a path containing the header name must not confuse the scan
        assert content_length_of(
            b"GET /content-length:9 HTTP/1.0\r\n") == 0


class TestThreadedEdgeSatellites:
    """The legacy edge gained the same 400 and a connection budget."""

    @pytest.fixture()
    def threaded(self):
        server = HttpServer(build_router(), max_connections=2,
                            timeout=5.0).start()
        yield server
        server.shutdown()

    def test_duplicate_content_length_is_400(self, threaded):
        with socket.create_connection(
                (threaded.host, threaded.port), timeout=5.0) as sock:
            sock.sendall(b"POST /cgi-bin/stream HTTP/1.0\r\n"
                         b"Content-Length: 3\r\nContent-Length: 4\r\n"
                         b"\r\nabc")
            data = read_until_closed(sock)
        assert b"400 Bad Request" in data

    def test_connection_budget_sheds_with_503(self, threaded):
        held = [socket.create_connection(
            (threaded.host, threaded.port), timeout=5.0)
            for _ in range(2)]
        try:
            for sock in held:
                sock.sendall(b"GET /hel")
            time.sleep(0.2)
            with socket.create_connection(
                    (threaded.host, threaded.port), timeout=5.0) as s:
                data = read_until_closed(s)
            assert b"503" in data
        finally:
            for sock in held:
                sock.close()
