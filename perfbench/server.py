"""Start, probe, measure and stop the real ``repro serve`` process."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from perfbench.loadgen import Connection
from perfbench.workloads import Request

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Budget for spawn -> first 200 and for an orderly stop.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
#: Longest Unix socket path the kernel accepts, with room for the
#: dispatcher's ``repro-appserver-XXXXXXXX/dispatch.sock`` suffix.
_SUN_PATH_ROOM = 107 - len("/repro-appserver-xxxxxxxx/dispatch.sock")


def server_env(run_dir: Path) -> dict[str, str]:
    """The server's environment: this checkout's sources, no stray
    ``REPRO_*`` settings, and temporary files kept in the run directory
    when the app server's socket path still fits there."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    tmp = run_dir / "tmp"
    if len(str(tmp)) <= _SUN_PATH_ROOM:
        tmp.mkdir(exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def split_cpus() -> tuple[set[int], set[int]]:
    """(generator CPUs, server CPUs): the generator keeps the lowest CPU
    and the server tree (its workers inherit) gets the rest, so where
    the scheduler happens to put the two cannot differ between runs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


class Server:
    """One server process, started and probed until its first 200."""

    def __init__(self, argv: list[str], run_dir: Path, probe: Request, *,
                 stop_signal: int = signal.SIGINT):
        server_cpus = split_cpus()[1]
        self.stop_signal = stop_signal
        self.log_path = run_dir / "server.log"
        self._log = open(self.log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=run_dir, env=server_env(run_dir),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._log, bufsize=0,
            preexec_fn=lambda: os.sched_setaffinity(0, server_cpus))
        try:
            self.port = self._read_port(started + START_TIMEOUT_S)
            self._await_first_200(probe, started + START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        #: seconds from spawn until the first 200 (includes the app
        #: server's worker spawn, which happens before the banner)
        self.setup_s = time.perf_counter() - started
        self.children = child_pids(self.proc.pid)

    def _read_port(self, deadline: float) -> int:
        """The port from the banner's first line."""
        banner = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in banner:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(
                    f"server did not start; see {self.log_path}")
            if select.select([fd], [], [], remaining)[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(
                        f"server exited at start; see {self.log_path}")
                banner += chunk
        # "serving macros from ... on http://127.0.0.1:PORT (...)"
        first = banner.split(b"\n", 1)[0].decode()
        url = next(word for word in first.split()
                   if word.startswith("http://"))
        return int(url.rsplit(":", 1)[1])

    def _await_first_200(self, probe: Request, deadline: float) -> None:
        while True:
            conn = Connection("127.0.0.1", self.port)
            try:
                sent = time.perf_counter()
                status, _ = conn.exchange(probe.raw)
                if status == 200:
                    #: client time of the probe that got the first 200
                    self.probe_service_s = time.perf_counter() - sent
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError(
                    f"server never answered 200; see {self.log_path}")
            time.sleep(0.005)

    def get(self, target: str) -> bytes:
        conn = Connection("127.0.0.1", self.port)
        try:
            status, body = conn.exchange(
                f"GET {target} HTTP/1.0\r\n\r\n".encode())
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET {target} answered {status}")
        return body

    def peak_rss_mb(self) -> float:
        """Peak RSS (VmHWM) of the server plus its worker children."""
        total_kb = 0
        for pid in [self.proc.pid, *child_pids(self.proc.pid)]:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """Signal an orderly stop, wait, and reap any worker left over."""
        children = child_pids(self.proc.pid) if self.proc.poll() is None \
            else []
        if self.proc.poll() is None:
            self.proc.send_signal(self.stop_signal)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pid in children + getattr(self, "children", []):
            _reap(pid)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class ReferenceServer:
    """``refserver.py`` on the server's CPUs (see that file)."""

    def __init__(self, run_dir: Path):
        server_cpus = split_cpus()[1]
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("refserver.py"))],
            cwd=run_dir, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            preexec_fn=lambda: os.sched_setaffinity(0, server_cpus))
        try:
            ready = select.select([self.proc.stdout], [], [],
                                  START_TIMEOUT_S)[0]
            line = self.proc.stdout.readline() if ready else b""
            if not line.strip().isdigit():
                raise RuntimeError("reference server did not start")
            self.port = int(line)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (the app server's workers)."""
    kids = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return kids
    for task in tasks:
        try:
            kids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return kids


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _reap(pid: int) -> None:
    """Kill a worker that outlived its server and wait until it is gone."""
    deadline = time.perf_counter() + STOP_TIMEOUT_S
    while _alive(pid) and time.perf_counter() < deadline:
        time.sleep(0.02)
    if not _alive(pid):
        return
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        return
    while _alive(pid):
        time.sleep(0.02)


def serve_argv(serve_args: list[str], *, bootstrap: Optional[Path] = None,
               spans_out: Optional[Path] = None) -> list[str]:
    """``-m repro serve ...``, or the tracing bootstrap around it."""
    if bootstrap is None:
        return ["-m", "repro", *serve_args]
    return [str(bootstrap), str(spans_out), *serve_args]
