"""A keep-alive HTTP client: one TCP connection, many requests.

The plain :class:`repro.http.client.HttpClient` is the strict HTTP/1.0
one-connection-per-request client.  This one sends ``Connection:
Keep-Alive`` and reuses the socket while the server agrees — reading
responses by ``Content-Length`` instead of connection close — which is
how Netscape 1.x cut page-load latency and what the EXT-KEEPALIVE bench
measures.

With ``http11=True`` requests go out as HTTP/1.1, persistent by
default.  Responses are read by :class:`repro.http.codec.ResponseReader`,
which also decodes the ``Transfer-Encoding: chunked`` framing the edges
use for streamed reports to HTTP/1.1 clients.
"""

from __future__ import annotations

import socket

from repro.errors import HttpError
from repro.http.codec import CLOSED, NEED_DATA, ResponseReader, keeps_alive
from repro.http.inprocess import Transport
from repro.http.message import HttpRequest, HttpResponse
from repro.http.urls import Url

_RECV_CHUNK = 8192


class PersistentHttpClient(Transport):
    """Fetches URLs over reusable TCP connections (one per netloc)."""

    def __init__(self, *, timeout: float = 10.0, http11: bool = False):
        self.timeout = timeout
        #: speak HTTP/1.1 — persistent connections by default, chunked
        #: response bodies decoded.
        self.http11 = http11
        self._sockets: dict[str, socket.socket] = {}
        self._readers: dict[str, ResponseReader] = {}

    # -- transport interface ------------------------------------------------

    #: methods whose requests are safe to replay (RFC 1945 idempotence)
    _REPLAYABLE = frozenset({"GET", "HEAD"})

    def fetch(self, url: Url, request: HttpRequest) -> HttpResponse:
        request.headers.setdefault("Host", url.netloc)
        if self.http11:
            request.version = "HTTP/1.1"
        else:
            request.headers.set("Connection", "Keep-Alive")
        key = f"{url.host}:{url.port}"
        sent = [False]
        try:
            return self._fetch_on(key, url, request, sent)
        except (HttpError, OSError):
            # The server may have closed an idle connection between
            # requests; retry once on a fresh socket — but only when the
            # replay cannot repeat a side effect: an idempotent method,
            # or a request none of whose bytes ever left this client.  A
            # POST that failed after (partial) send may already have
            # reached the server; replaying it could double a write.
            self._drop(key)
            if request.method.upper() not in self._REPLAYABLE and sent[0]:
                raise
            return self._fetch_on(key, url, request, [False])

    def close(self) -> None:
        for key in list(self._sockets):
            self._drop(key)

    def __enter__(self) -> "PersistentHttpClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _fetch_on(self, key: str, url: Url, request: HttpRequest,
                  sent: list[bool]) -> HttpResponse:
        conn = self._sockets.get(key)
        if conn is None:
            conn = socket.create_connection((url.host, url.port),
                                            timeout=self.timeout)
            self._sockets[key] = conn
            self._readers[key] = ResponseReader()
        reader = self._readers[key]
        payload = request.serialize()
        sent[0] = True  # from here on, bytes may have hit the wire
        conn.sendall(payload)
        response = reader.next_event()
        while response is NEED_DATA:
            reader.receive(conn.recv(_RECV_CHUNK))
            response = reader.next_event()
        if response is CLOSED:
            raise HttpError("connection closed mid-response")
        if reader.closed or not keeps_alive(response):
            self._drop(key)
        return response

    def _drop(self, key: str) -> None:
        conn = self._sockets.pop(key, None)
        self._readers.pop(key, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
