"""A threaded HTTP socket server (the "Web server" of Figure 1).

One thread per connection — the NCSA-httpd model of 1996.  Framing and
keep-alive follow :mod:`repro.http.codec`, the policy the asyncio edge
shares: an HTTP/1.0 client gets one request per connection unless it
sends ``Connection: Keep-Alive``, an HTTP/1.1 client keeps the
connection by default, up to ``keep_alive_max`` requests either way.
Routing is delegated to :class:`repro.http.router.Router`, so everything
reachable in-process is also reachable over a real socket (the
live-server example and the socket-transport integration tests rely on
this).
"""

from __future__ import annotations

import socket
import threading

from repro.errors import BadRequestError
from repro.http import codec
from repro.http.codec import CLOSED, NEED_DATA
from repro.http.message import HttpResponse
from repro.http.router import Router
from repro.obs.trace import new_trace_id
from repro.resilience.deadline import Deadline

_RECV_CHUNK = 8192


class HttpServer:
    """Serve a router on a TCP port until :meth:`shutdown`.

    Usable as a context manager::

        with HttpServer(router) as server:
            url = f"http://127.0.0.1:{server.port}/"
    """

    def __init__(self, router: Router, *, host: str = "127.0.0.1",
                 port: int = 0, timeout: float = 10.0,
                 idle_timeout: float | None = None,
                 keep_alive_max: int = 100,
                 max_connections: int | None = None,
                 backlog: int = 128,
                 request_deadline: float | None = None):
        self.router = router
        self.timeout = timeout
        #: per-request wall-clock budget (seconds).  Minted as a
        #: :class:`Deadline` the moment a request is fully read and
        #: threaded through the router, admission queue and dispatcher
        #: — a request that outlives it answers 504.
        self.request_deadline = request_deadline
        #: concurrent-connection budget.  Each connection is a daemon
        #: thread, and threads are the scarce resource here: past the
        #: budget the server answers an immediate ``503`` and closes
        #: instead of spawning without bound.  ``None`` keeps the
        #: historical unbounded behaviour.
        self.max_connections = max_connections
        self._active = 0
        self._active_lock = threading.Lock()
        #: how long a kept-alive connection may sit idle (no bytes of a
        #: next request) before the server closes it; a stalled client
        #: must not pin a server thread forever.  Defaults to ``timeout``.
        self.idle_timeout = idle_timeout if idle_timeout is not None \
            else timeout
        #: maximum requests served on one kept-alive connection
        self.keep_alive_max = keep_alive_max
        #: pending-connection queue depth passed to ``listen``.  Deep
        #: enough by default that a burst of concurrent clients (the
        #: concurrency bench aims hundreds at a pre-forked gateway)
        #: queues instead of getting connection-refused; the kernel caps
        #: it at SOMAXCONN.
        self.backlog = backlog
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self.host, self.port = self._listener.getsockname()
        router.server_name = self.host
        router.server_port = self.port
        self._shutdown = threading.Event()
        self._thread = threading.Thread(
            target=self._accept_loop, name="repro-httpd", daemon=True)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "HttpServer":
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._shutdown.set()
        try:
            # Wake the accept loop with a throwaway connection.
            with socket.create_connection((self.host, self.port),
                                          timeout=1.0):
                pass
        except OSError:
            pass
        self._thread.join(timeout=5.0)
        self._listener.close()

    def __enter__(self) -> "HttpServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- internals -----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return
            if self._shutdown.is_set():
                conn.close()
                return
            if not self._try_admit():
                # A fresh socket's send buffer swallows the small 503
                # without blocking, so shedding stays in the accept
                # loop — no thread is spawned for an over-budget peer.
                self._shed(conn)
                continue
            thread = threading.Thread(
                target=self._serve_connection, args=(conn, addr),
                daemon=True)
            thread.start()

    def _try_admit(self) -> bool:
        """Claim a connection slot; ``False`` means shed with a 503."""
        if self.max_connections is None:
            return True
        with self._active_lock:
            if self._active >= self.max_connections:
                return False
            self._active += 1
            return True

    def _release(self) -> None:
        if self.max_connections is None:
            return
        with self._active_lock:
            self._active -= 1

    def _shed(self, conn: socket.socket) -> None:
        """Answer an over-budget connection with an immediate 503."""
        try:
            conn.settimeout(1.0)
            conn.sendall(codec.shed(self.router.tracer,
                                    self.router.overload))
        except OSError:
            pass
        finally:
            _close(conn)

    def _serve_connection(self, conn: socket.socket,
                          addr: tuple[str, int]) -> None:
        connection = codec.ServerConnection(self.keep_alive_max)
        try:
            while True:
                try:
                    request = connection.next_event()
                except BadRequestError as exc:
                    # Unframeable input poisons any pipelined bytes
                    # behind it: answer 400 and drop the connection.
                    conn.sendall(codec.bad_request(exc, self.router.tracer))
                    return
                if request is NEED_DATA:
                    # Idle between requests, the stricter per-read
                    # timeout once a request has started to arrive;
                    # either one closes without an answer.
                    conn.settimeout(self.idle_timeout if connection.idle
                                    else self.timeout)
                    connection.receive(conn.recv(_RECV_CHUNK))
                    continue
                if request is CLOSED:
                    return
                # The trace id is minted where the request enters the
                # system; the router threads it everywhere else.  The
                # deadline starts once the request is fully read: queue
                # time in the admission queue and pool-checkout waits
                # all burn the same budget.
                response = self.router.handle(
                    request, remote_addr=addr[0],
                    trace_id=new_trace_id()
                    if self.router.tracer.enabled else "",
                    deadline=Deadline.after(self.request_deadline)
                    if self.request_deadline else None)
                conn.settimeout(self.timeout)
                conn.sendall(connection.respond(request, response))
                if response.streaming:
                    _send_stream(conn, response, connection)
                if not connection.keep_alive:
                    return
        except OSError:
            pass
        finally:
            _close(conn)
            self._release()


def _send_stream(conn: socket.socket, response: HttpResponse,
                 connection: codec.ServerConnection) -> None:
    """Emit any buffered prefix, then the chunk stream.

    The body iterator is closed whatever happens, so abandoned
    generators (client gone mid-page) still run their ``finally``
    blocks — the streaming SQL session's transaction bracket depends
    on that.
    """
    body_iter = response.body_iter
    try:
        if response.body:
            conn.sendall(connection.encode(response.body))
        for chunk in body_iter:
            if chunk:
                conn.sendall(connection.encode(chunk))
        conn.sendall(connection.end)
    finally:
        close = getattr(body_iter, "close", None)
        if close is not None:
            close()


def _close(conn: socket.socket) -> None:
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    conn.close()
