"""Checks of the benchmark's own machinery.

    python3 perfbench/test_oracle.py

The oracle must catch a single corrupted byte, the load generator must
count a mismatched response as an error, and the tracing bootstrap must
refuse to start when a wrapped function no longer exists.
"""

from __future__ import annotations

import os
import shutil
import socket
import sys
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from perfbench import traceboot  # noqa: E402
from perfbench.loadgen import closed_loop  # noqa: E402
from perfbench.workloads import WORKLOADS, Oracle  # noqa: E402


def _flip(body: bytes, index: int) -> bytes:
    return body[:index] + bytes([body[index] ^ 0x01]) + body[index + 1:]


class OracleTest(unittest.TestCase):

    def setUp(self) -> None:
        self.run_dir = HERE / "_run" / f"test-{os.getpid()}"
        self.run_dir.mkdir(parents=True)

    def tearDown(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def _oracle(self, name: str, count: int = 60):
        workload = WORKLOADS[name]
        workload.prepare(self.run_dir)
        requests = workload.requests(seed=7, count=count)
        return workload, requests, Oracle.build(workload, self.run_dir,
                                                requests)

    def test_one_corrupted_byte_is_caught(self) -> None:
        _, requests, oracle = self._oracle("appendix-a-report")
        request = next(r for r in requests if b"/report" in r.key)
        body = oracle.expected[request.key]
        self.assertTrue(oracle.check(request, 200, body))
        for index in (0, len(body) // 2, len(body) - 1):
            self.assertFalse(oracle.check(request, 200, _flip(body, index)))
        self.assertFalse(oracle.check(request, 500, body))

    def test_mismatched_response_counts_as_an_error(self) -> None:
        _, requests, oracle = self._oracle("form-appserver", count=4)
        body = _flip(oracle.expected[requests[0].key], 10)
        response = (b"HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n"
                    b"Connection: Keep-Alive\r\nContent-Length: "
                    + str(len(body)).encode() + b"\r\n\r\n" + body)
        listener = socket.create_server(("127.0.0.1", 0))
        stop = threading.Event()

        def serve() -> None:
            listener.settimeout(0.2)
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    continue
                threading.Thread(target=answer, args=(conn,),
                                 daemon=True).start()

        def answer(conn: socket.socket) -> None:
            with conn:
                data = b""
                while not stop.is_set():
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    data += chunk
                    while b"\r\n\r\n" in data:
                        _, _, data = data.partition(b"\r\n\r\n")
                        conn.sendall(response)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            phase = closed_loop("127.0.0.1", listener.getsockname()[1],
                                requests, 0.3, oracle.check)
        finally:
            stop.set()
            thread.join(timeout=5)
            listener.close()
        self.assertFalse(thread.is_alive())
        self.assertGreater(phase.sent, 0)
        self.assertEqual(phase.ok, 0)
        self.assertEqual(phase.mismatched, phase.sent)
        self.assertEqual(phase.errors, phase.sent)


class TraceLayersTest(unittest.TestCase):

    def test_every_layer_resolves(self) -> None:
        traceboot.check_layers()

    def test_missing_layer_fails_loudly(self) -> None:
        saved = traceboot.LAYERS
        traceboot.LAYERS = saved + [
            ("core.gone", "repro.core.engine", "MacroEngine.renamed",
             "timed")]
        try:
            with self.assertRaises(SystemExit) as caught:
                traceboot.check_layers()
        finally:
            traceboot.LAYERS = saved
        self.assertIn("MacroEngine.renamed", str(caught.exception))


if __name__ == "__main__":
    unittest.main()
