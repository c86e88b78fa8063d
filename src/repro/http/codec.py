"""The HTTP/1.1 wire codec: bytes in, events out, no I/O.

Modelled on h11: the caller owns the socket, feeds whatever it read
into a reader with :meth:`receive` (``b""`` for end of stream) and asks
:meth:`next_event` for the next complete message, :data:`NEED_DATA`
(read more, then ask again) or :data:`CLOSED` (the peer is gone and
nothing is left to answer).  Both edges — the threaded server and the
asyncio server — and the keep-alive client keep only their I/O loops;
every framing rule lives here and nowhere else:

* a message head ends at the *earliest* blank line, CRLF or bare LF,
  and may not exceed :data:`MAX_HEAD` bytes;
* a request body is framed by a strictly parsed ``Content-Length`` and
  capped at :data:`MAX_BODY`; a request ``Transfer-Encoding`` is refused,
  because two parsers that frame one request differently is how
  request smuggling works;
* a response body is chunked, ``Content-Length`` framed, or runs to the
  close of the connection;
* keep-alive: HTTP/1.0 opts in with ``Connection: Keep-Alive``, HTTP/1.1
  stays open unless it says ``close``; the server caps both at
  ``keep_alive_max`` requests per connection;
* a streamed response is chunked for HTTP/1.1 and close-delimited for
  HTTP/1.0, where the close of the connection ends the body;
* the pre-routing 400/503/504 pages, which carry an ``X-Trace-Id`` when
  tracing is on (no span exists yet, but the client gets an id it can
  quote) and, for the 503, a ``Retry-After``.

:meth:`HttpRequest.parse <repro.http.message.HttpRequest.parse>` and
:meth:`HttpResponse.serialize <repro.http.message.HttpResponse.serialize>`
remain the calls that turn a head into a message and a message into
bytes.
"""

from __future__ import annotations

import re

from repro.errors import BadRequestError
from repro.http import message
from repro.http.headers import Headers
from repro.http.status import reason_for
from repro.obs.trace import new_trace_id
from repro.overload.retryafter import retry_after_header

#: largest message head accepted, in bytes
MAX_HEAD = 64 * 1024
#: largest request body accepted, in bytes
MAX_BODY = 8 * 1024 * 1024

#: :meth:`next_event`: no complete message yet; receive more bytes
NEED_DATA = object()
#: :meth:`next_event`: end of stream before another complete message
CLOSED = object()

_HEX = re.compile(rb"[0-9A-Fa-f]+")
_CHUNKED = -1       # body framing: chunked transfer-coding
_UNTIL_CLOSE = -2   # body framing: the close of the connection ends it


def _blank_line(data, start: int = 0) -> tuple[int, int] | None:
    """Where the earliest blank line ends a head: ``(head_end,
    body_start)``, or ``None`` when ``data`` holds no blank line yet.

    A line ends in LF or CRLF, so the blank line is the first ``\\n\\n``
    or ``\\n\\r\\n``; a CR before it belongs to the last header line.
    """
    crlf = data.find(b"\n\r\n", start)
    # Only a bare-LF blank line before the CRLF one can come first.
    lf = data.find(b"\n\n", start, len(data) if crlf < 0 else crlf + 2)
    if lf >= 0:
        at, end = lf, lf + 2
    elif crlf >= 0:
        at, end = crlf, crlf + 3
    else:
        return None
    return (at - 1 if at and data[at - 1] == 13 else at), end


def split_message(raw: bytes) -> tuple[bytes, bytes]:
    """``(head, body)`` of a complete message; the head ends at the
    earliest blank line."""
    found = _blank_line(raw)
    if found is None:
        return raw, b""
    return raw[:found[0]], raw[found[1]:]


def _body_headers(headers: Headers) -> tuple[int | None, str | None]:
    """The ``Content-Length`` and ``Transfer-Encoding`` of a head, each
    ``None`` when absent.

    Anything two implementations could read differently is a
    :class:`BadRequestError`, never a guess: a repeated length, a
    comma-joined value list (even when the copies agree), or a value
    that is not a plain non-negative decimal integer.
    """
    values, coding = [], None
    for name, value in headers:
        folded = name.lower()
        if folded == "content-length":
            values.append(value)
        elif folded == "transfer-encoding":
            coding = value
    if not values:
        return None, coding
    if len(values) > 1:
        raise BadRequestError(
            f"message carries {len(values)} Content-Length headers")
    value = values[0]
    if "," in value:
        raise BadRequestError(
            f"comma-joined Content-Length values: {value!r}")
    if not (value.isascii() and value.isdigit()):
        raise BadRequestError(f"malformed Content-Length: {value!r}")
    return int(value), coding


def keeps_alive(msg: message.HttpRequest | message.HttpResponse) -> bool:
    """Whether the sender of ``msg`` wants the connection kept open."""
    tokens = msg.headers.get("Connection", "").lower()
    if msg.version == "HTTP/1.1":
        return "close" not in tokens
    return "keep-alive" in tokens


class _Reader:
    """Buffers received bytes and cuts them into messages."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._scan_from = 0
        #: the message whose head is parsed and whose body is pending
        self._message = None
        self._framing = 0
        self._body = bytearray()
        #: the peer has ended its side of the stream
        self.closed = False

    def receive(self, data: bytes) -> None:
        """Add bytes read off the connection; ``b""`` marks its end."""
        if data:
            self._buffer += data
        else:
            self.closed = True

    @property
    def idle(self) -> bool:
        """No byte of a next message has arrived yet."""
        return self._message is None and not self._buffer

    def next_event(self):
        """The next complete message, :data:`NEED_DATA` or :data:`CLOSED`.

        Raises :class:`BadRequestError` on framing no reader could
        trust; the connection cannot be resynchronised after one.
        """
        if self._message is None:
            head = self._next_head()
            if head is None:
                return CLOSED if self.closed else NEED_DATA
            self._message, self._framing = self._start(head)
        body = self._next_body()
        if body is None:
            return CLOSED if self.closed else NEED_DATA
        msg, self._message = self._message, None
        msg.body = body
        return msg

    def _next_head(self) -> bytes | None:
        buffer = self._buffer
        found = _blank_line(buffer, self._scan_from)
        if found is None:
            # At most 3 bytes of a terminator can be here already, so
            # the head runs at least to where the next scan starts.
            self._scan_from = max(0, len(buffer) - 3)
            if self._scan_from > MAX_HEAD:
                raise BadRequestError(f"head exceeds {MAX_HEAD} bytes")
            return None
        head_end, body_start = found
        # The terminator and the overflow can arrive in one read.
        if head_end > MAX_HEAD:
            raise BadRequestError(f"head exceeds {MAX_HEAD} bytes")
        head = bytes(buffer[:head_end])
        del buffer[:body_start]
        self._scan_from = 0
        return head

    def _next_body(self) -> bytes | None:
        buffer = self._buffer
        if self._framing >= 0:
            if len(buffer) < self._framing:
                return None
            body = bytes(buffer[:self._framing])
            del buffer[:self._framing]
            return body
        if self._framing == _UNTIL_CLOSE:
            if not self.closed:
                return None
            body = bytes(buffer)
            buffer.clear()
            return body
        if not self._decode_chunks():
            return None
        body = bytes(self._body)
        self._body.clear()
        return body

    def _decode_chunks(self) -> bool:
        """Move whole chunks from the buffer to the body; ``True`` once
        the last chunk and its closing CRLF are in."""
        buffer = self._buffer
        while True:
            line_end = buffer.find(b"\r\n")
            # Without a CRLF, at most its CR is here already.
            if (line_end if line_end >= 0 else len(buffer) - 1) > MAX_HEAD:
                raise BadRequestError("chunk-size line too long")
            if line_end < 0:
                return False
            size = bytes(buffer[:line_end]).split(b";", 1)[0].strip()
            if not _HEX.fullmatch(size):
                raise BadRequestError(f"malformed chunk size {size!r}")
            start = line_end + 2
            end = start + int(size, 16)
            if len(buffer) < end + 2:
                return False
            if buffer[end:end + 2] != b"\r\n":
                raise BadRequestError("chunk data not followed by CRLF")
            self._body += buffer[start:end]
            del buffer[:end + 2]
            if end == start:
                return True

    def _start(self, head: bytes):
        raise NotImplementedError


class ResponseReader(_Reader):
    """The client half: received bytes in, complete responses out."""

    def _start(self, head: bytes):
        response = message.HttpResponse.parse(head)
        length, coding = _body_headers(response.headers)
        if coding:
            last = coding.rpartition(",")[2].strip().lower()
            return response, _CHUNKED if last == "chunked" \
                else _UNTIL_CLOSE
        return response, _UNTIL_CLOSE if length is None else length


class ServerConnection(_Reader):
    """The server half of one connection: requests in, framed
    responses out."""

    def __init__(self, keep_alive_max: int):
        super().__init__()
        self.keep_alive_max = keep_alive_max
        self._served = 0
        #: the last response leaves the connection open
        self.keep_alive = False
        #: the last response streams its body as chunks
        self.chunked = False

    def _start(self, head: bytes):
        request = message.HttpRequest.parse(head)
        length, coding = _body_headers(request.headers)
        if coding is not None:
            raise BadRequestError("request carries Transfer-Encoding; "
                                  "only Content-Length bodies are accepted")
        length = length or 0
        if length > MAX_BODY:
            raise BadRequestError(
                f"declared body of {length} bytes exceeds the "
                f"{MAX_BODY}-byte limit")
        return request, length

    def respond(self, request: message.HttpRequest,
                response: message.HttpResponse) -> bytes:
        """Decide keep-alive and framing for ``response``, set its
        framing headers and serialize it: the whole message, or only
        the head when the body streams (send it through
        :meth:`encode`, then :attr:`end`)."""
        self._served += 1
        streaming = response.body_iter is not None
        http11 = request.version == "HTTP/1.1"
        if http11:
            # Clients gate pipelining and default keep-alive on the
            # version of the response.
            response.version = "HTTP/1.1"
        self.chunked = http11 and streaming
        self.keep_alive = (self._served < self.keep_alive_max
                           and keeps_alive(request)
                           and (self.chunked or not streaming))
        if self.chunked:
            response.headers.set("Transfer-Encoding", "chunked")
        response.headers.set("Connection",
                             "Keep-Alive" if self.keep_alive else "close")
        if streaming:
            return response.serialize_head()
        return response.serialize()

    def encode(self, data: bytes) -> bytes:
        """One piece of a streamed body, framed."""
        if self.chunked:
            return b"%x\r\n%s\r\n" % (len(data), data)
        return data

    @property
    def end(self) -> bytes:
        """What ends a streamed body (the close ends a plain one)."""
        return b"0\r\n\r\n" if self.chunked else b""


def bad_request(exc: BadRequestError, tracer) -> bytes:
    """The 400 that answers unframeable input, before the close."""
    return _closing(_page(400, str(exc), tracer))


def shed(tracer, overload) -> bytes:
    """The 503 that answers a connection over the edge's budget.

    An overload controller's queue-depth / service-rate estimate, when
    the router has one, sets ``Retry-After``; otherwise it is a flat 1.
    """
    response = _page(503, "connection budget exhausted; retry shortly",
                     tracer)
    hint = overload.retry_after_hint() if overload is not None else None
    response.headers.set("Retry-After", retry_after_header(hint))
    return _closing(response)


def gateway_timeout(tracer) -> message.HttpResponse:
    """The 504 for a request whose deadline expired before routing."""
    return _page(504, "request deadline expired before processing began",
                 tracer)


def _page(status: int, detail: str, tracer) -> message.HttpResponse:
    response = message.html_response(
        f"<H1>{status} {reason_for(status)}</H1><P>{detail}</P>",
        status=status)
    if tracer.enabled:
        response.headers.set("X-Trace-Id", new_trace_id())
    return response


def _closing(response: message.HttpResponse) -> bytes:
    response.headers.set("Connection", "close")
    return response.serialize()
