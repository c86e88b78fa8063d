"""HTTP request and response messages.

The Web of the paper speaks "the ubiquitous HTTP communication protocol"
(Section 1).  These are its messages and their text form: a start line,
headers and a body.  How messages are cut out of a byte stream and
framed on a connection is the business of :mod:`repro.http.codec`,
shared by both edges, the socket clients and — structurally — the
in-process transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import BadRequestError
from repro.http import codec
from repro.http.headers import Headers
from repro.http.status import reason_for

SUPPORTED_METHODS = frozenset({"GET", "POST", "HEAD"})
HTTP_VERSION = "HTTP/1.0"


@dataclass
class HttpRequest:
    """One HTTP request."""

    method: str = "GET"
    target: str = "/"          # path[?query], as on the request line
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    version: str = HTTP_VERSION

    @property
    def path(self) -> str:
        return self.target.partition("?")[0]

    @property
    def query(self) -> str:
        return self.target.partition("?")[2]

    def serialize(self) -> bytes:
        headers = Headers(self.headers.items())
        if self.body and "Content-Length" not in headers:
            headers.set("Content-Length", str(len(self.body)))
        head = (f"{self.method} {self.target} {self.version}\r\n"
                + headers.serialize() + "\r\n")
        return head.encode("latin-1") + self.body

    @classmethod
    def parse(cls, raw: bytes) -> "HttpRequest":
        """Parse a request: a head, or a complete message."""
        head, body = codec.split_message(raw)
        lines = head.decode("latin-1", "replace").split("\n")
        if not lines[0].strip():
            raise BadRequestError("empty request")
        parts = lines[0].split()
        if len(parts) == 2:  # HTTP/0.9 simple request
            method, target = parts
            version = "HTTP/0.9"
        elif len(parts) == 3:
            method, target, version = parts
        else:
            raise BadRequestError(f"malformed request line: {lines[0]!r}")
        return cls(method=method.upper(), target=target,
                   headers=Headers.parse_lines(lines[1:]), body=body,
                   version=version)


@dataclass
class HttpResponse:
    """One HTTP response."""

    status: int = 200
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    version: str = HTTP_VERSION
    #: Streaming body: when set, the body arrives as byte chunks and the
    #: response has no ``Content-Length``; the codec frames it.
    body_iter: Optional[Iterator[bytes]] = None

    @property
    def reason(self) -> str:
        return reason_for(self.status)

    @property
    def streaming(self) -> bool:
        return self.body_iter is not None

    def drain(self) -> None:
        """Materialise a streaming body into ``body`` (no-op otherwise)."""
        if self.body_iter is not None:
            chunks, self.body_iter = self.body_iter, None
            self.body = self.body + b"".join(chunks)

    @property
    def content_type(self) -> str:
        return self.headers.get("Content-Type", "text/html")

    @property
    def text(self) -> str:
        charset = "utf-8"
        for param in self.content_type.split(";")[1:]:
            key, _, value = param.strip().partition("=")
            if key.lower() == "charset" and value:
                charset = value.strip('"')
        return self.body.decode(charset, "replace")

    def serialize(self) -> bytes:
        self.drain()
        headers = Headers(self.headers.items())
        headers.set("Content-Length", str(len(self.body)))
        return self._head(headers) + self.body

    def serialize_head(self) -> bytes:
        """The status line and headers of a streamed response, without
        a ``Content-Length`` (the length is unknown until the stream
        ends)."""
        return self._head(Headers(self.headers.items()))

    def _head(self, headers: Headers) -> bytes:
        headers.setdefault("Content-Type", "text/html")
        head = (f"{self.version} {self.status} {self.reason}\r\n"
                + headers.serialize() + "\r\n")
        return head.encode("latin-1")

    @classmethod
    def parse(cls, raw: bytes) -> "HttpResponse":
        """Parse a response: a head, or a complete message."""
        head, body = codec.split_message(raw)
        lines = head.decode("latin-1", "replace").split("\n")
        if not lines[0].strip():
            raise BadRequestError("empty response")
        parts = lines[0].split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise BadRequestError(f"malformed status line: {lines[0]!r}")
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise BadRequestError(
                f"malformed status code: {parts[1]!r}") from exc
        return cls(status=status, headers=Headers.parse_lines(lines[1:]),
                   body=body, version=parts[0])


def html_response(html: str, *, status: int = 200,
                  charset: str = "utf-8") -> HttpResponse:
    """Build a text/html response from a page string."""
    headers = Headers()
    headers.set("Content-Type", f"text/html; charset={charset}")
    return HttpResponse(status=status, headers=headers,
                        body=html.encode(charset, "replace"))
