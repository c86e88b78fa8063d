"""The sans-IO HTTP codec: framing rules once, then both edges on the wire.

The codec is fed bytes and asked for events, so most of its contract is
checked here without a socket.  The last class drives the same framing
cases through both edges over real TCP, because each edge's I/O loop
must act on what the codec decides: answer, refuse or close.
"""

import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgi.gateway import FunctionProgram
from repro.cgi.request import CgiResponse
from repro.errors import BadRequestError
from repro.http import codec
from repro.http.async_server import AsyncHttpServer
from repro.http.codec import (
    CLOSED,
    NEED_DATA,
    ResponseReader,
    ServerConnection,
)
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.http.persistent import PersistentHttpClient
from repro.http.router import Router
from repro.http.server import HttpServer
from repro.http.urls import Url
from repro.obs.trace import Tracer


def drive(reader, chunks) -> list:
    """Feed ``chunks`` then EOF; every event up to the end or an error.

    Messages become plain tuples so two runs compare by value.
    """
    events = []
    for chunk in list(chunks) + [b""]:
        reader.receive(chunk)
        while True:
            try:
                event = reader.next_event()
            except BadRequestError as exc:
                return events + [("error", str(exc))]
            if event is NEED_DATA:
                break
            if event is CLOSED:
                return events + ["closed"]
            events.append((getattr(event, "target", None) or
                           getattr(event, "status", None),
                           event.version, tuple(event.headers.items()),
                           event.body))
    return events


def split(data: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({cut % (len(data) + 1) for cut in cuts}
                    | {0, len(data)})
    return [data[a:b] for a, b in zip(points, points[1:])]


# -- generated streams ------------------------------------------------------

eol = st.sampled_from([b"\r\n", b"\n"])
body = st.binary(max_size=40)


@st.composite
def good_request(draw) -> bytes:
    method = draw(st.sampled_from([b"GET", b"POST"]))
    version = draw(st.sampled_from([b"HTTP/1.0", b"HTTP/1.1"]))
    payload = draw(body) if method == b"POST" else b""
    lines = [method + b" /t" + str(draw(st.integers(0, 99))).encode()
             + b" " + version]
    lines += [b"Content-Length: %d" % len(payload)] if payload else []
    lines += draw(st.lists(st.sampled_from(
        [b"Host: h", b"Connection: Keep-Alive", b"X-Fold: a",
         b"  folded", b"Content-Type: text/plain"]), max_size=3))
    return b"".join(line + draw(eol) for line in lines) + draw(eol) \
        + payload


bad_head = st.sampled_from([
    b"POST /x HTTP/1.0\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
    b"POST /x HTTP/1.0\r\nContent-Length: 3, 3\r\n\r\nabc",
    b"POST /x HTTP/1.0\r\nContent-Length: 0x3\r\n\r\nabc",
    b"POST /x HTTP/1.0\r\nContent-Length: -1\r\n\r\n",
    b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n"
    b"Transfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
    b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    b"POST /x HTTP/1.0\r\nContent-Length: 3\r\n 4\r\n\r\nabcd",
    b"GARBAGE\r\n\r\n",
])

request_stream = st.lists(st.one_of(good_request(), bad_head),
                          min_size=1, max_size=5).map(b"".join)
truncation = st.integers(min_value=0, max_value=30)


@st.composite
def good_response(draw, *, last: bool) -> tuple[bytes, bytes]:
    """A response on the wire, and the body it carries."""
    payload = draw(body)
    framing = draw(st.sampled_from(
        ["length", "chunked"] + (["close"] if last else [])))
    head = b"HTTP/1.1 200 OK\r\nX-N: 1\r\n"
    if framing == "length":
        wire = head + b"Content-Length: %d\r\n\r\n" % len(payload) \
            + payload
    elif framing == "close":
        wire = head + b"\r\n" + payload
    else:
        cuts = draw(st.lists(st.integers(0, len(payload)), max_size=4))
        wire = head + b"Transfer-Encoding: chunked\r\n\r\n" + b"".join(
            b"%x\r\n%s\r\n" % (len(piece), piece)
            for piece in split(payload, cuts)) + b"0\r\n\r\n"
    return wire, payload


@st.composite
def response_stream(draw) -> tuple[bytes, list[bytes]]:
    count = draw(st.integers(1, 4))
    drawn = [draw(good_response(last=index == count - 1))
             for index in range(count)]
    return b"".join(wire for wire, _ in drawn), [p for _, p in drawn]


class TestSplitInvariance:
    """However the bytes are cut into reads, the events are the same."""

    @settings(max_examples=300, deadline=None)
    @given(request_stream, st.lists(st.integers(0, 10_000), max_size=12),
           truncation)
    def test_request_stream(self, stream, cuts, cut_tail):
        stream = stream[:len(stream) - cut_tail] if cut_tail else stream
        whole = drive(ServerConnection(1000), [stream] if stream else [])
        pieces = drive(ServerConnection(1000), split(stream, cuts))
        assert pieces == whole

    @settings(max_examples=300, deadline=None)
    @given(response_stream(), st.lists(st.integers(0, 10_000),
                                       max_size=12), truncation)
    def test_response_stream(self, drawn, cuts, cut_tail):
        stream = drawn[0]
        stream = stream[:len(stream) - cut_tail] if cut_tail else stream
        whole = drive(ResponseReader(), [stream] if stream else [])
        pieces = drive(ResponseReader(), split(stream, cuts))
        assert pieces == whole

    @settings(max_examples=100, deadline=None)
    @given(response_stream())
    def test_generated_responses_decode_in_full(self, drawn):
        stream, payloads = drawn
        events = drive(ResponseReader(), [stream])
        assert [event[3] for event in events[:-1]] == payloads
        assert events[-1] == "closed"


# -- requests ---------------------------------------------------------------

def requests_of(stream: bytes) -> list:
    return drive(ServerConnection(1000), [stream])


class TestRequestFraming:
    def test_head_ends_at_the_earliest_blank_line(self):
        events = requests_of(b"GET /a HTTP/1.0\n\nGET /b HTTP/1.0\r\n\r\n")
        assert [event[0] for event in events[:2]] == ["/a", "/b"]
        assert events[2:] == ["closed"]

    @pytest.mark.parametrize("terminator", [
        b"\r\n\r\n", b"\n\n", b"\r\n\n", b"\n\r\n"])
    def test_mixed_line_endings(self, terminator):
        events = requests_of(b"GET /a HTTP/1.0\r\nHost: h" + terminator
                             + b"GET /b HTTP/1.0\n\n")
        assert events[0] == ("/a", "HTTP/1.0", (("Host", "h"),), b"")
        assert events[1][0] == "/b"

    def test_body_is_framed_by_content_length(self):
        events = requests_of(b"POST /a HTTP/1.0\r\nContent-Length: 3\r\n"
                             b"\r\nabcGET /b HTTP/1.0\r\n\r\n")
        assert events[0][3] == b"abc"
        assert events[1][0] == "/b"

    def test_obs_fold_joins_the_value(self):
        [request, _] = requests_of(b"GET /a HTTP/1.0\r\nX-A: one\r\n"
                                   b"\ttwo\r\n\r\n")
        assert request[2] == (("X-A", "one two"),)

    def test_obs_fold_cannot_smuggle_a_length(self):
        """A folded line is part of the Content-Length value, so the
        framing sees what the application would see."""
        events = requests_of(b"POST /a HTTP/1.0\r\nContent-Length: 3\r\n"
                             b" 4\r\n\r\nabcd")
        assert events == [("error", "malformed Content-Length: '3 4'")]

    @pytest.mark.parametrize("head", [
        b"Transfer-Encoding: chunked\r\n",
        b"transfer-encoding: chunked\r\nContent-Length: 3\r\n",
        b"Content-Length: 3\r\nTransfer-Encoding: identity\r\n",
    ])
    def test_transfer_encoding_is_refused(self, head):
        events = requests_of(b"POST /a HTTP/1.1\r\n" + head
                             + b"\r\n3\r\nabc\r\n0\r\n\r\n")
        assert len(events) == 1
        assert events[0][0] == "error"
        assert "Transfer-Encoding" in events[0][1]

    def test_declared_body_over_the_limit_is_refused(self):
        events = requests_of(b"POST /a HTTP/1.0\r\nContent-Length: %d"
                             b"\r\n\r\n" % (codec.MAX_BODY + 1))
        assert events[0][0] == "error"
        assert "exceeds" in events[0][1]

    def test_body_cut_short_by_eof_is_never_a_request(self):
        events = requests_of(b"POST /a HTTP/1.0\r\nContent-Length: 10"
                             b"\r\n\r\nabc")
        assert events == ["closed"]

    def test_head_over_the_limit_is_refused(self):
        head = b"GET / HTTP/1.0\r\nX-Pad: " + b"x" * codec.MAX_HEAD
        assert drive(ServerConnection(1), [head])[0][0] == "error"
        assert drive(ServerConnection(1),
                     [head + b"\r\n\r\n"])[0][0] == "error"

    def test_head_at_the_limit_is_accepted(self):
        line = b"GET / HTTP/1.0\r\nX-Pad: "
        head = line + b"x" * (codec.MAX_HEAD - len(line))
        # The last read ends one byte short of the terminator.
        chunks = [head + b"\r\n\r", b"\n"]
        assert drive(ServerConnection(1), chunks)[0][0] == "/"

    def test_idle_until_the_next_request_starts(self):
        connection = ServerConnection(10)
        assert connection.idle
        connection.receive(b"GET / HTTP/1.0\r\n\r\nGE")
        assert isinstance(connection.next_event(), HttpRequest)
        assert not connection.idle
        assert connection.next_event() is NEED_DATA


# -- responses ---------------------------------------------------------------

def responses_of(stream: bytes) -> list:
    return drive(ResponseReader(), [stream])


class TestResponseFraming:
    def test_chunked_body_is_decoded(self):
        events = responses_of(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: "
                              b"chunked\r\n\r\n3;x=1\r\nabc\r\n2\r\nde"
                              b"\r\n0\r\n\r\nHTTP/1.1 204 No\r\n"
                              b"Content-Length: 0\r\n\r\n")
        assert events[0][3] == b"abcde"
        assert events[1][0] == 204

    @pytest.mark.parametrize("stream", [
        b"3\r\nab",                 # inside a chunk
        b"3\r\nabc\r\n",            # before the last chunk
        b"3\r\nabc\r\n0\r\n",       # before the final CRLF
    ])
    def test_truncated_chunked_body_is_closed(self, stream):
        events = responses_of(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: "
                              b"chunked\r\n\r\n" + stream)
        assert events == ["closed"]

    @pytest.mark.parametrize("stream,detail", [
        (b"z\r\nabc\r\n0\r\n\r\n", "malformed chunk size"),
        (b"3\r\nabcd\r\n0\r\n\r\n", "not followed by CRLF"),
    ])
    def test_malformed_chunks_are_errors(self, stream, detail):
        events = responses_of(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: "
                              b"chunked\r\n\r\n" + stream)
        assert events[0][0] == "error" and detail in events[0][1]

    def test_response_without_length_runs_to_the_close(self):
        events = responses_of(b"HTTP/1.0 200 OK\r\n\r\nall of it")
        assert events == [(200, "HTTP/1.0", (), b"all of it"), "closed"]

    def test_duplicate_length_is_an_error(self):
        events = responses_of(b"HTTP/1.0 200 OK\r\nContent-Length: 1\r\n"
                              b"Content-Length: 2\r\n\r\nab")
        assert events[0][0] == "error"


# -- keep-alive and response framing ----------------------------------------

def request(version: str, connection: str = "") -> HttpRequest:
    headers = Headers([("Connection", connection)] if connection else [])
    return HttpRequest(target="/", headers=headers, version=version)


def streamed(body_iter=None) -> HttpResponse:
    return HttpResponse(body=b"<H1>", body_iter=iter(body_iter or []))


class TestKeepAlivePolicy:
    @pytest.mark.parametrize("version,connection,expected", [
        ("HTTP/1.0", "", False),
        ("HTTP/1.0", "Keep-Alive", True),
        ("HTTP/1.0", "keep-alive", True),
        ("HTTP/1.1", "", True),
        ("HTTP/1.1", "close", False),
        ("HTTP/1.1", "Close", False),
        ("HTTP/0.9", "", False),
    ])
    def test_keeps_alive(self, version, connection, expected):
        assert codec.keeps_alive(request(version, connection)) is expected

    def test_keep_alive_max_caps_both_versions(self):
        for version, connection in (("HTTP/1.0", "Keep-Alive"),
                                    ("HTTP/1.1", "")):
            conn = ServerConnection(keep_alive_max=2)
            conn.respond(request(version, connection), HttpResponse())
            assert conn.keep_alive
            second = conn.respond(request(version, connection),
                                  HttpResponse())
            assert not conn.keep_alive
            assert b"Connection: close" in second


class TestResponseFramingPolicy:
    def test_http10_buffered_bytes_are_serialize_plus_connection(self):
        response = HttpResponse(body=b"page")
        wire = ServerConnection(10).respond(
            request("HTTP/1.0", "Keep-Alive"), response)
        assert wire == (b"HTTP/1.0 200 OK\r\n"
                        b"Connection: Keep-Alive\r\n"
                        b"Content-Length: 4\r\n"
                        b"Content-Type: text/html\r\n\r\npage")

    def test_http10_stream_is_close_delimited(self):
        conn = ServerConnection(10)
        head = conn.respond(request("HTTP/1.0", "Keep-Alive"), streamed())
        assert head == (b"HTTP/1.0 200 OK\r\n"
                        b"Connection: close\r\n"
                        b"Content-Type: text/html\r\n\r\n")
        assert not conn.keep_alive and not conn.chunked
        assert conn.encode(b"row") == b"row" and conn.end == b""

    def test_http11_stream_is_chunked_and_keeps_alive(self):
        conn = ServerConnection(10)
        head = conn.respond(request("HTTP/1.1"), streamed())
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Transfer-Encoding: chunked\r\n" in head
        assert b"Content-Length" not in head
        assert conn.keep_alive and conn.chunked

    def test_chunk_coding_round_trips(self):
        pieces = [b"<H1>", b"row 1\n", b"", b"x" * 300]
        conn = ServerConnection(10)
        wire = conn.respond(request("HTTP/1.1"), streamed()) + b"".join(
            conn.encode(piece) for piece in pieces if piece) + conn.end
        [response, _] = responses_of(wire)
        assert response[3] == b"".join(pieces)


class TestPreRoutingPages:
    def test_bad_request_carries_a_trace_id_when_tracing(self):
        tracer = Tracer()
        tracer.enable()
        wire = codec.bad_request(BadRequestError("no"), tracer)
        [page, _] = responses_of(wire)
        headers = dict(page[2])
        assert page[0] == 400 and headers["Connection"] == "close"
        assert headers["X-Trace-Id"]
        assert b"<P>no</P>" in page[3]

    def test_shed_page_has_retry_after_and_no_trace_id_untraced(self):
        [page, _] = responses_of(codec.shed(Tracer(), None))
        headers = dict(page[2])
        assert page[0] == 503 and headers["Retry-After"] == "1"
        assert "X-Trace-Id" not in headers

    def test_gateway_timeout(self):
        page = codec.gateway_timeout(Tracer())
        assert page.status == 504
        assert b"deadline expired" in page.body


# -- both edges on the wire ---------------------------------------------------

@pytest.fixture(params=[HttpServer, AsyncHttpServer],
                ids=["threaded", "async"])
def edge(request):
    """Each edge in front of a router that counts CGI dispatches."""
    calls = []

    def echo(cgi_request):
        calls.append(cgi_request)
        return CgiResponse(body=b"ran")

    def stream(cgi_request):
        return CgiResponse(body=b"<H1>", body_iter=iter([b"a", b"b"]))

    router = Router()
    router.add_page("/a", "<P>page a</P>")
    router.add_page("/b", "<P>page b</P>")
    router.gateway.install("echo", FunctionProgram(echo))
    router.gateway.install("stream", FunctionProgram(stream))
    with request.param(router, timeout=5.0, idle_timeout=1.0) as server:
        server.calls = calls
        yield server


def exchange(server, data: bytes, *, half_close: bool = False) -> list:
    """Send ``data``; every response read until the server closes."""
    with socket.create_connection((server.host, server.port),
                                  timeout=5.0) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        reader = ResponseReader()
        responses = []
        while True:
            event = reader.next_event()
            if event is NEED_DATA:
                reader.receive(sock.recv(65536))
            elif event is CLOSED:
                return responses
            else:
                responses.append(event)


class TestBothEdges:
    def test_bare_lf_head_then_pipelined_crlf_request(self, edge):
        responses = exchange(edge, b"GET /a HTTP/1.0\nConnection: "
                                   b"Keep-Alive\n\nGET /b HTTP/1.0\r\n\r\n")
        assert [r.body for r in responses] == [b"<P>page a</P>",
                                               b"<P>page b</P>"]

    def test_request_transfer_encoding_is_400_and_close(self, edge):
        responses = exchange(edge, b"POST /cgi-bin/echo HTTP/1.1\r\n"
                                   b"Transfer-Encoding: chunked\r\n\r\n"
                                   b"3\r\nabc\r\n0\r\n\r\n")
        assert [r.status for r in responses] == [400]
        assert edge.calls == []

    def test_body_cut_short_by_eof_is_not_dispatched(self, edge):
        responses = exchange(edge, b"POST /cgi-bin/echo HTTP/1.0\r\n"
                                   b"Content-Length: 10\r\n\r\nabc",
                             half_close=True)
        assert responses == []
        assert edge.calls == []

    def test_declared_body_over_the_limit_is_400(self, edge):
        responses = exchange(edge, b"POST /cgi-bin/echo HTTP/1.0\r\n"
                                   b"Content-Length: %d\r\n\r\n"
                                   % (codec.MAX_BODY + 1))
        assert [r.status for r in responses] == [400]
        assert b"exceeds" in responses[0].body
        assert edge.calls == []

    def test_http11_stream_is_chunked_and_keeps_the_connection(self, edge):
        with PersistentHttpClient(http11=True) as client:
            streamed_response = client.fetch(
                Url.parse(f"{edge.base_url}/cgi-bin/stream"),
                HttpRequest(target="/cgi-bin/stream"))
            assert streamed_response.version == "HTTP/1.1"
            assert streamed_response.headers.get(
                "Transfer-Encoding") == "chunked"
            assert streamed_response.body == b"<H1>ab"
            again = client.fetch(Url.parse(f"{edge.base_url}/a"),
                                 HttpRequest(target="/a"))
            assert again.body == b"<P>page a</P>"
            assert len(client._sockets) == 1
