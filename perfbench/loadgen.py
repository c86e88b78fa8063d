"""The load generator: keep-alive HTTP/1.0 over loopback TCP.

One process drives the server with two threads, each owning one
keep-alive connection.  A closed loop sends back to back and measures
capacity; an open loop sends on a seeded Poisson schedule and times each
request from its *intended* send time, so a stall also charges the
requests queued behind it.  Every response is judged by the oracle.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from perfbench.workloads import Request

#: Threads and keep-alive connections of the generator.
CONNECTIONS = 2
#: Socket timeout: a response slower than this counts as failed.
TIMEOUT_S = 10.0
#: An open-loop request not sent within this long after the phase's
#: scheduled end is abandoned (counted as failed, never sent).
ABANDON_AFTER_S = 2.0


class Connection:
    """One keep-alive client connection; reconnects when the server
    ends the connection (``Connection: close`` or keep-alive limit)."""

    def __init__(self, host: str, port: int):
        self.address = (host, port)
        self.sock: Optional[socket.socket] = None
        self.buffer = b""

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.buffer = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.buffer = b""
        return sock

    def exchange(self, raw: bytes) -> tuple[int, bytes]:
        """Send one request, read one Content-Length framed response."""
        sock = self.sock or self._connect()
        sock.sendall(raw)
        data = self.buffer
        while True:
            end = data.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed before a response")
            data += chunk
        head = data[:end].decode("latin-1")
        lines = head.split("\r\n")
        status = int(lines[0].split()[1])
        length = None
        keep = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection":
                keep = "keep-alive" in value.lower()
        if length is None:
            raise ConnectionError("response without Content-Length")
        body_start = end + 4
        while len(data) - body_start < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            data += chunk
        body = data[body_start:body_start + length]
        self.buffer = data[body_start + length:]
        if not keep:
            self.close()
        return status, body


Judge = Callable[[Request, int, bytes], bool]


@dataclass
class PhaseResult:
    """What one phase sent, what came back, and how late it ran."""

    name: str
    seconds: float
    #: ``time.perf_counter()`` when the phase began; the clock is
    #: system-wide monotonic, so server-side spans compare against it
    started: float = 0.0
    sent: int = 0
    ok: int = 0
    failed: int = 0
    refused: int = 0
    mismatched: int = 0
    abandoned: int = 0
    #: seconds from intended (open loop) or actual (closed loop) send
    #: to the last body byte, successful requests only
    latencies: list[float] = field(default_factory=list)
    #: intended send offsets of ``latencies`` (open loop only)
    scheduled: list[float] = field(default_factory=list)
    #: seconds from actual send to the last body byte, every response
    service_times: list[float] = field(default_factory=list)
    #: completion times of successful requests, relative to phase start
    completions: list[float] = field(default_factory=list)
    #: how late the generator itself sent (open loop only): actual send
    #: minus the later of intended send and the moment a connection
    #: became free
    lateness: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.sent + self.abandoned

    @property
    def errors(self) -> int:
        return self.failed + self.refused + self.mismatched + self.abandoned

    def merge(self, other: "PhaseResult") -> None:
        for name in ("sent", "ok", "failed", "refused", "mismatched",
                     "abandoned"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies += other.latencies
        self.scheduled += other.scheduled
        self.service_times += other.service_times
        self.completions += other.completions
        self.lateness += other.lateness


def _send(conn: Connection, request: Request, judge: Judge,
          result: PhaseResult) -> tuple[bool, float]:
    """Send one request; returns (succeeded, completion time)."""
    start = time.perf_counter()
    result.sent += 1
    try:
        status, body = conn.exchange(request.raw)
    except ConnectionRefusedError:
        conn.close()
        result.refused += 1
        return False, time.perf_counter()
    except (OSError, ValueError, IndexError):
        conn.close()
        result.failed += 1
        return False, time.perf_counter()
    done = time.perf_counter()
    result.service_times.append(done - start)
    if not judge(request, status, body):
        result.mismatched += 1
        return False, done
    result.ok += 1
    return True, done


def _run_threads(target, args_per_thread) -> list[PhaseResult]:
    results = [PhaseResult("", 0.0) for _ in args_per_thread]
    threads = [threading.Thread(target=target, args=(*args, results[i]),
                                daemon=True)
               for i, args in enumerate(args_per_thread)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def closed_loop(host: str, port: int, requests: Sequence[Request],
                seconds: float, judge: Judge, name: str = "closed",
                first: int = 0) -> PhaseResult:
    """Two connections send back to back for ``seconds``, taking
    ``requests`` in turn from index ``first`` on."""
    counter = iter(range(first, 1 << 62))
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds

    def worker(result: PhaseResult) -> None:
        conn = Connection(host, port)
        try:
            while time.perf_counter() < stop_at:
                with lock:
                    index = next(counter)
                request = requests[index % len(requests)]
                sent = time.perf_counter()
                ok, done = _send(conn, request, judge, result)
                if ok and done <= stop_at:
                    result.latencies.append(done - sent)
                    result.completions.append(done - start)
        finally:
            conn.close()

    total = PhaseResult(name, seconds, started=start)
    for part in _run_threads(worker, [()] * CONNECTIONS):
        total.merge(part)
    return total


def poisson_schedule(rate: float, seconds: float,
                     seed: int) -> list[float]:
    """Seeded Poisson arrival offsets (seconds) within ``seconds``."""
    rng = random.Random(seed)
    offsets = []
    t = rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def open_loop(host: str, port: int, requests: Sequence[Request],
              schedule: Sequence[float], seconds: float, judge: Judge,
              name: str = "open", first: int = 0) -> PhaseResult:
    """Send request ``first + i`` at ``schedule[i]``; latency from
    intended send.

    The two connections take scheduled requests in order.  When both are
    busy a due request waits for one, and that wait counts in its
    latency (it is the server's backlog, not the generator's).
    """
    counter = iter(range(len(schedule)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    give_up = start + seconds + ABANDON_AFTER_S

    def worker(result: PhaseResult) -> None:
        conn = Connection(host, port)
        try:
            while True:
                with lock:
                    index = next(counter, None)
                if index is None:
                    return
                free = time.perf_counter()
                due = start + schedule[index]
                if free > give_up:
                    result.abandoned += 1
                    continue
                if due > free:
                    time.sleep(due - free)
                sent = time.perf_counter()
                result.lateness.append(sent - max(due, free))
                ok, done = _send(conn,
                                 requests[(first + index) % len(requests)],
                                 judge, result)
                if ok:
                    result.latencies.append(done - due)
                    result.scheduled.append(schedule[index])
                    result.completions.append(done - start)
        finally:
            conn.close()

    total = PhaseResult(name, seconds, started=start)
    for part in _run_threads(worker, [()] * CONNECTIONS):
        total.merge(part)
    return total


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by nearest rank (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))
    return ordered[rank]




def in_send_order(phase: PhaseResult) -> list[float]:
    """An open-loop phase's latencies ordered by intended send time."""
    return [lat for _, lat in sorted(zip(phase.scheduled,
                                         phase.latencies))]
