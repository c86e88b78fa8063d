"""The asyncio HTTP edge: keep-alive, pipelining, chunked streaming.

The threaded server (:mod:`repro.http.server`) is the paper's 1996
front end: a thread per connection, close-delimited streams.  This is
the same edge rebuilt for the ROADMAP's "millions of users" frontier —
one event loop multiplexing every connection, so concurrency costs a
coroutine instead of a thread:

* **Keep-alive and pipelining.**  Requests are read off a
  per-connection byte buffer; bytes beyond the current request (a
  pipelined client sends several at once) carry over to the next parse
  instead of being dropped, and responses go back in request order.
* **Streaming.**  Framing follows :mod:`repro.http.codec`, shared
  with the threaded edge: an HTTP/1.1 client gets ``Transfer-Encoding:
  chunked`` (each engine chunk framed as it is produced) and keeps the
  connection; an HTTP/1.0 client gets a close-delimited stream.
* **Write backpressure.**  Every write awaits ``drain()``; a slow
  reader suspends only its own coroutine, and the engine-side producer
  blocks on a bounded queue — a client that stops reading stops the
  query, it does not balloon server memory.
* **Bounded connection budget.**  Past ``max_connections`` the edge
  answers an immediate 503 and closes — shedding at the door instead
  of queueing into collapse.
* **Multi-acceptor.**  With ``reuse_port=True`` several server
  processes bind the same port via ``SO_REUSEPORT`` and the kernel
  load-balances accepts across them (``repro serve --acceptors N``).

Routing is the same :class:`~repro.http.router.Router` the threaded
edge uses, called in-loop for cheap static pages and pushed to a small
thread pool for ``/cgi-bin/`` work (the router is synchronous and a
macro request blocks on the worker pool).  Streaming generators are
driven inside **one** executor thread per response — the engine's
sqlite handles have thread affinity — with chunks handed to the event
loop over a bounded queue.

Edge health is exported through the obs registry (``edge_*`` gauges
and counters) and therefore shows up on ``/statusz`` and ``/metrics``.
"""

from __future__ import annotations

import asyncio
import functools
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.errors import BadRequestError
from repro.http import codec
from repro.http.codec import CLOSED, NEED_DATA
from repro.http.message import HttpResponse
from repro.http.router import CGI_PREFIX, Router
from repro.obs.trace import new_trace_id
from repro.resilience.deadline import Deadline

_READ_CHUNK = 65536
#: threads running ``/cgi-bin/`` requests and stream producers
_EXECUTOR_THREADS = 8
#: writes buffered beyond this before ``drain()`` count as backpressure
_HIGH_WATER = 64 * 1024
#: engine chunks in flight between producer thread and event loop
_STREAM_BUFFER = 8

_DONE = object()   # stream pump: generator exhausted cleanly
_FAIL = object()   # stream pump: generator raised mid-stream


class _NullMetric:
    """Stands in for every edge metric when no registry is attached."""

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass


_NULL = _NullMetric()


class AsyncHttpServer:
    """Serve a router from an asyncio event loop in a background thread.

    API-compatible with :class:`repro.http.server.HttpServer` — same
    constructor shape, ``start``/``shutdown``, context manager,
    ``base_url`` — so tests, benchmarks and the CLI swap edges with one
    flag.
    """

    def __init__(self, router: Router, *, host: str = "127.0.0.1",
                 port: int = 0, timeout: float = 10.0,
                 idle_timeout: float | None = None,
                 keep_alive_max: int = 1000,
                 max_connections: int = 1024,
                 backlog: int = 512,
                 reuse_port: bool = False,
                 request_deadline: float | None = None):
        self.router = router
        self.timeout = timeout
        #: per-request wall-clock budget (seconds), minted when the
        #: request is fully parsed.  The budget covers the executor
        #: hand-off too: a request whose deadline expires while queued
        #: for an executor thread answers 504 *without* ever touching
        #: the router or the gateway behind it.
        self.request_deadline = request_deadline
        self.idle_timeout = idle_timeout if idle_timeout is not None \
            else timeout
        self.keep_alive_max = keep_alive_max
        self.max_connections = max_connections
        self.backlog = backlog
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            # Several acceptor processes share the port; the kernel
            # spreads incoming connections across their accept queues.
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEPORT, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()
        router.server_name = self.host
        router.server_port = self.port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        self._active = 0
        self._bind_metrics()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "AsyncHttpServer":
        self._thread = threading.Thread(target=self._run_loop,
                                        name="repro-async-httpd",
                                        daemon=True)
        self._thread.start()
        self._started.wait(timeout=10.0)
        return self

    def shutdown(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._listener.close()

    def __enter__(self) -> "AsyncHttpServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def active_connections(self) -> int:
        return self._active

    # -- event loop --------------------------------------------------------

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=_EXECUTOR_THREADS,
            thread_name_prefix="repro-edge")
        server = await asyncio.start_server(self._serve_connection,
                                            sock=self._listener)
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)
            self._executor.shutdown(wait=False)

    # -- connection handling -----------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._m_conns_total.inc()
        if self._active >= self.max_connections:
            self._m_shed.inc()
            await self._shed(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            return
        self._active += 1
        self._m_conns_active.set(self._active)
        try:
            await self._connection_loop(reader, writer)
        except (asyncio.CancelledError, asyncio.TimeoutError,
                ConnectionError, OSError):
            pass
        finally:
            self._active -= 1
            self._m_conns_active.set(self._active)
            if task is not None:
                self._conn_tasks.discard(task)
            await _close_writer(writer)

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername")
        remote_addr = peername[0] if peername else "127.0.0.1"
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Without this, pipelined sub-MSS responses sit in the
            # kernel behind Nagle waiting out the peer's delayed ACK —
            # a fixed ~40 ms stall per burst.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        loop = asyncio.get_running_loop()
        connection = codec.ServerConnection(self.keep_alive_max)
        while True:
            try:
                request = connection.next_event()
            except BadRequestError as exc:
                # Unframeable input poisons everything pipelined behind
                # it: answer 400 and drop the connection.
                await self._write(
                    writer, codec.bad_request(exc, self.router.tracer))
                return
            if request is NEED_DATA:
                timeout = self.idle_timeout if connection.idle \
                    else self.timeout
                try:
                    data = await asyncio.wait_for(
                        reader.read(_READ_CHUNK), timeout)
                except asyncio.TimeoutError:
                    return
                connection.receive(data)
                continue
            if request is CLOSED:
                return
            self._m_requests.inc()
            deadline = Deadline.after(self.request_deadline) \
                if self.request_deadline else None
            handle = functools.partial(
                self.router.handle, request, remote_addr=remote_addr,
                trace_id=new_trace_id()
                if self.router.tracer.enabled else "",
                deadline=deadline)
            if request.path.startswith(CGI_PREFIX):
                # Macro requests block on the worker pool; static pages
                # are cheap enough to serve in-loop.
                response = await loop.run_in_executor(
                    self._executor, self._guarded(handle, deadline))
            else:
                response = handle()
            await self._write(writer, connection.respond(request, response))
            if response.streaming:
                if connection.chunked:
                    self._m_chunked.inc()
                if not await self._pump(writer, response, connection):
                    return  # truncation is the only mid-body signal
            if not connection.keep_alive:
                return

    def _guarded(self, handle, deadline):
        """Wrap a router call with a deadline check run *in the
        executor thread*.

        Under load the executor's own queue is an invisible admission
        queue: a request can wait there longer than its whole budget.
        Checking at the moment a thread finally picks it up turns that
        wasted work into an immediate 504 — the router, admission queue
        and worker pool never see the corpse.
        """
        if deadline is None:
            return handle

        def run() -> HttpResponse:
            if deadline.expired:
                self._m_deadline_expired.inc()
                return codec.gateway_timeout(self.router.tracer)
            return handle()

        return run

    # -- response writing --------------------------------------------------

    async def _write(self, writer: asyncio.StreamWriter,
                     data: bytes) -> None:
        """Write then ``drain()`` — the per-connection backpressure.

        A slow reader fills the transport buffer; past the high-water
        mark ``drain()`` suspends this coroutine (and only this one)
        until the client catches up.
        """
        writer.write(data)
        transport = writer.transport
        if transport is not None and \
                transport.get_write_buffer_size() > _HIGH_WATER:
            self._m_backpressure.inc()
        await writer.drain()

    async def _shed(self, writer: asyncio.StreamWriter) -> None:
        try:
            await self._write(writer, codec.shed(self.router.tracer,
                                                 self.router.overload))
        except (ConnectionError, OSError):
            pass
        finally:
            await _close_writer(writer)

    async def _pump(self, writer: asyncio.StreamWriter,
                    response: HttpResponse,
                    connection: codec.ServerConnection) -> bool:
        """Write a streamed body, driving its synchronous generator from
        one executor thread; ``False`` means the stream died mid-body
        and the connection must close.

        The generator touches sqlite cursors with thread affinity, so
        every ``__next__`` must run in the same thread: one producer
        thread iterates it to completion, handing chunks to this
        coroutine over a bounded queue (the engine stalls when the
        client does).  The iterator's ``close`` runs in that thread no
        matter what — streamed transactions settle their brackets even
        when the client vanishes mid-page.
        """
        if response.body:
            # The buffered prefix (page header emitted before the first
            # row) goes first.
            await self._write(writer, connection.encode(response.body))
        body_iter = response.body_iter
        loop = asyncio.get_running_loop()
        handoff: "asyncio.Queue[object]" = asyncio.Queue(
            maxsize=_STREAM_BUFFER)
        abort = threading.Event()

        def produce() -> None:
            sentinel = _DONE
            try:
                for chunk in body_iter:
                    if abort.is_set():
                        break
                    if not chunk:
                        continue
                    asyncio.run_coroutine_threadsafe(
                        handoff.put(chunk), loop).result()
            except BaseException:
                sentinel = _FAIL
            finally:
                close = getattr(body_iter, "close", None)
                if close is not None:
                    close()
                try:
                    asyncio.run_coroutine_threadsafe(
                        handoff.put(sentinel), loop).result(timeout=5.0)
                except (RuntimeError, TimeoutError):
                    pass  # loop shut down under us; nothing to signal

        assert self._executor is not None
        producer = loop.run_in_executor(self._executor, produce)
        ok = True
        try:
            while True:
                item = await handoff.get()
                if item is _DONE:
                    break
                if item is _FAIL:
                    ok = False
                    break
                try:
                    await self._write(writer, connection.encode(item))
                except (ConnectionError, OSError):
                    ok = False
                    abort.set()
                    break
        finally:
            # Free a producer blocked on a full queue, then let it
            # finish closing the generator.
            abort.set()
            while not handoff.empty():
                handoff.get_nowait()
            try:
                await producer
            except asyncio.CancelledError:
                raise
            except Exception:
                ok = False
        if ok and connection.end:
            await self._write(writer, connection.end)
        return ok

    # -- metrics -----------------------------------------------------------

    def _bind_metrics(self) -> None:
        registry = self.router.metrics
        if registry is None:
            self._m_conns_active = _NULL
            self._m_conns_total = _NULL
            self._m_requests = _NULL
            self._m_shed = _NULL
            self._m_chunked = _NULL
            self._m_backpressure = _NULL
            self._m_deadline_expired = _NULL
            return
        self._m_conns_active = registry.gauge("edge_connections_active")
        self._m_conns_total = registry.counter("edge_connections_total")
        self._m_requests = registry.counter("edge_requests_total")
        self._m_shed = registry.counter("edge_shed_total")
        self._m_chunked = registry.counter("edge_responses_chunked_total")
        self._m_backpressure = registry.counter(
            "edge_backpressure_waits_total")
        self._m_deadline_expired = registry.counter(
            "edge_deadline_expired_total")


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, OSError, asyncio.CancelledError):
        pass
