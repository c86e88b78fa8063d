"""The repository benchmark: two served workloads over real TCP.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts the real server (``python -m repro serve``) as a subprocess on a
fresh SQLite file, drives it over loopback from this one process (two
threads, two keep-alive connections), checks every response against the
oracle in ``workloads.py``, and prints one line per phase and, last, one
JSON object with the metrics.

``--trace 0`` measures what a user sees (``BENCHMARK.json``
``end_to_end``):

* set-up: the server is started five times, each timed from spawn to
  its first 200 (app-server workers included); the median is reported
  and the last server is measured;
* then (a) a closed loop, half of ``--seconds``: both connections send
  back to back, which gives capacity; and (b) an open loop, the other
  half: seeded Poisson arrivals at the workload's fixed rate, each
  request timed from its intended send time.  Both are cut into slices
  that take turns with bursts against the reference server
  (``refserver.py``), which gauge how fast the shared host runs at that
  moment; throughput and latency are scaled to the reference host.  See
  :func:`measure`.

``--trace 1`` gives the per-layer numbers (``per_layer``) from the same
``serve`` command run under ``traceboot.py``; see :func:`trace`.

The database file, macros and logs live in ``perfbench/_run/`` inside
the checkout and are removed afterwards.  SQLite keeps its default
flush policy (rollback journal, ``synchronous=FULL``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, refserver  # noqa: E402
from perfbench.loadgen import (  # noqa: E402
    PhaseResult, closed_loop, in_send_order, open_loop, poisson_schedule,
    quantile)
from perfbench.server import (  # noqa: E402
    ReferenceServer, Server, serve_argv, split_cpus)
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, Oracle, Workload, http_request)

SETUP_REPEATS = 5
WARMUP_S = 1.0
#: The closed-loop block's share of a ``--trace 0`` run's ``--seconds``
#: (reference bursts included), and the length of one closed and one
#: open slice.
CLOSED_SHARE = 0.5
CLOSED_SLICE_S = 0.5
OPEN_SLICE_S = 2.0
#: Closed-loop rounds of a ``--trace 1`` run.
ROUNDS = 4
#: Length of one reference-server burst, and the reference server's
#: closed-loop throughput on the reference host (a 2-vCPU Xeon VM,
#: median of its bursts), which fixes the scale of the scaled figures.
REFERENCE_BURST_S = 0.15
REFERENCE_RPS = 3500.0
#: The one request the reference server is sent, and its answer.
REFERENCE_REQUEST = http_request(
    "POST", "/reference/report", (("SEARCH", "db2www"), ("MAX", "40")))
REFERENCE_BODY = refserver.page(refserver.database(), "POST",
                                "/reference/report",
                                b"SEARCH=db2www&MAX=40")
#: Open-loop requests per block whose 99th percentile is printed.
P99_BLOCK = 1000
#: The generator fell behind when its own send lateness (not counting
#: waits for a busy connection) exceeds these: a sustained mean, or a
#: tail beyond what a descheduled thread on a shared host explains.
LATENESS_MEAN_BUDGET_S = 0.001
LATENESS_P99_BUDGET_S = 0.010
#: Fewest samples an open-loop phase's p99 may rest on: ten beyond it.
MIN_OPEN_SAMPLES = 1000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_recorded_rate(spec: dict, workload: Workload) -> None:
    """The open-loop rate must be the one BENCHMARK.json records."""
    why = next(w["why"] for w in spec["workloads"]
               if w["name"] == workload.name)
    if f"open loop {workload.open_rate:g} req/s" not in why:
        raise SystemExit(f"{workload.name}: BENCHMARK.json does not record "
                         f"the open-loop rate {workload.open_rate:g} req/s")


def report_phase(phase: PhaseResult) -> None:
    late = phase.lateness
    print(f"phase {phase.name}: {phase.seconds:.1f} s, sent {phase.sent}, "
          f"succeeded {phase.ok}, failed {phase.failed}, refused "
          f"{phase.refused}, mismatched {phase.mismatched}, abandoned "
          f"{phase.abandoned}"
          + (f"; latency p50 {quantile(phase.latencies, 0.5) * 1e3:.3f} ms"
             f" p99 {quantile(phase.latencies, 0.99) * 1e3:.3f} ms"
             if phase.latencies else "")
          + (f"; generator lateness mean {statistics.fmean(late) * 1e3:.3f}"
             f" ms p99 {quantile(late, 0.99) * 1e3:.3f} ms"
             if late else ""), flush=True)


def generator_behind(phase: PhaseResult) -> bool:
    return (statistics.fmean(phase.lateness) > LATENESS_MEAN_BUDGET_S
            or quantile(phase.lateness, 0.99) > LATENESS_P99_BUDGET_S)


class Run:
    """Shared state of one benchmark run."""

    def __init__(self, args):
        self.workload = WORKLOADS[args.workload]
        self.seed = args.seed
        self.seconds = args.seconds
        self.run_dir = HERE / "_run" / f"{self.workload.name}-{args.seed}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.workload.prepare(self.run_dir)
        self.requests = self.workload.requests(self.seed)
        self.oracle = Oracle.build(self.workload, self.run_dir,
                                   self.requests)
        self.warmup_problems = 0
        #: index of the next request to send: every phase continues
        #: where the last stopped, so a run cycles the whole stream
        self.next_request = 0

    def start(self, *, traced: bool = False) -> Server:
        args = self.workload.serve_args(self.run_dir)
        if traced:
            self.spans_path = self.run_dir / "spans.json"
            argv = serve_argv(args, bootstrap=HERE / "traceboot.py",
                              spans_out=self.spans_path)
            return Server(argv, self.run_dir, self.workload.probe(),
                          stop_signal=signal.SIGTERM)
        return Server(serve_argv(args), self.run_dir,
                      self.workload.probe())

    def closed(self, server: Server, seconds: float,
               name: str) -> PhaseResult:
        phase = closed_loop("127.0.0.1", server.port, self.requests,
                            seconds, self.oracle.check, name=name,
                            first=self.next_request)
        self.next_request += phase.sent
        return phase

    def warmup(self, server: Server) -> PhaseResult:
        """Fill the caches; responses are checked but not counted."""
        phase = self.closed(server, WARMUP_S, "warm-up")
        report_phase(phase)
        self.warmup_problems += phase.errors
        return phase

    def open(self, server: Server, seconds: float, round_no: int = 0,
             speed: float = 1.0) -> PhaseResult:
        """One open-loop phase; run it inside :func:`keep_awake`.

        On a host ``speed`` times as fast as the reference host the
        workload's arrivals come ``speed`` times as fast, so that the
        server is as busy as it would be there.
        """
        schedule = [offset / speed for offset in poisson_schedule(
            self.workload.open_rate, seconds * speed,
            self.seed * 1000 + round_no)]
        phase = open_loop("127.0.0.1", server.port, self.requests,
                          schedule, seconds, self.oracle.check,
                          name="b-open", first=self.next_request)
        self.next_request += len(schedule)
        if generator_behind(phase):
            report_phase(phase)
            raise SystemExit(
                "generator fell behind: send lateness mean "
                f"{statistics.fmean(phase.lateness) * 1e3:.2f} ms, p99 "
                f"{quantile(phase.lateness, 0.99) * 1e3:.2f} ms (budget "
                f"{LATENESS_MEAN_BUDGET_S * 1e3:g} / "
                f"{LATENESS_P99_BUDGET_S * 1e3:g} ms); these latencies "
                "are not a server number")
        return phase

    def cleanup(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


@contextlib.contextmanager
def keep_awake():
    """One idle-priority spinner per CPU (see ``awake.py``) while an
    open loop runs.  Closed loops keep the CPUs busy themselves, and a
    spinner sharing the host's core with the server would slow it."""
    generator, server = split_cpus()
    spinners = [subprocess.Popen([sys.executable, str(HERE / "awake.py"),
                                  str(cpu)], stdin=subprocess.DEVNULL)
                for cpu in sorted(generator | server)]
    try:
        time.sleep(0.2)  # let them start and drop to idle priority
        yield
    finally:
        for spinner in spinners:
            spinner.terminate()
        for spinner in spinners:
            spinner.wait()


def throughput(phase: PhaseResult) -> float:
    """Successful requests per second over the whole phase."""
    return len(phase.completions) / phase.seconds


def measure(run: Run) -> tuple[dict, int, int, bool]:
    """The ``--trace 0`` run: end-to-end metrics.

    A closed-loop block (:data:`CLOSED_SHARE` of ``--seconds``), then an
    open-loop block (the rest), each cut into slices that take turns
    with short bursts against the reference server (``refserver.py``).
    A slice's host speed is the reference throughput of the bursts on
    either side of it over :data:`REFERENCE_RPS`.  Throughput is the
    real server's successful requests over the closed slices' time,
    each second weighted by its speed.  Open-loop arrivals come as much
    faster as the host is (see :meth:`Run.open`), and p50 pools every
    open-loop latency multiplied by its slice's speed.  Both thus read
    as on a host where the reference server does :data:`REFERENCE_RPS`;
    the raw figures are printed beside them.

    The p99 is printed, not returned: per block of :data:`P99_BLOCK`
    open-loop requests (ten samples beyond each block's 99th percentile)
    and as their median.  It is bimodal across runs, so no bound can
    hold it (see README.md).
    """
    setups = []
    server = reference = None
    try:
        for attempt in range(SETUP_REPEATS):
            server = run.start()
            setups.append(server.setup_s)
            if attempt < SETUP_REPEATS - 1:
                server.stop()
        print("setup: " + ", ".join(f"{s:.3f}" for s in setups) + " s",
              flush=True)
        reference = ReferenceServer(run.run_dir)
        run.warmup(server)
        reference_rps(reference, WARMUP_S)
        closed, closed_speed = in_turns(
            reference, slices(CLOSED_SHARE * run.seconds, CLOSED_SLICE_S),
            lambda _, speed: run.closed(server, CLOSED_SLICE_S, "a-closed"))
        with keep_awake():
            opened, open_speed = in_turns(
                reference,
                slices((1 - CLOSED_SHARE) * run.seconds, OPEN_SLICE_S),
                lambda round_no, speed: run.open(server, OPEN_SLICE_S,
                                                 round_no, speed))
        rss = server.peak_rss_mb()
    finally:
        for process in (server, reference):
            if process is not None:
                process.stop()
    both = PhaseResult("both", 0.0)
    for name, block in (("a-closed", closed), ("b-open", opened)):
        merged = PhaseResult(f"{name} ({len(block)} slices)", 0.0)
        for phase in block:
            merged.merge(phase)
            merged.seconds += phase.seconds
        report_phase(merged)
        both.merge(merged)
    raw = [lat for phase in opened for lat in in_send_order(phase)]
    if len(raw) < MIN_OPEN_SAMPLES:
        raise SystemExit(f"open loop gave {len(raw)} samples, fewer "
                         f"than {MIN_OPEN_SAMPLES}")
    scaled = [lat * speed for phase, speed in zip(opened, open_speed)
              for lat in in_send_order(phase)]
    raw_rps = sum(len(p.completions) for p in closed) / sum(
        p.seconds for p in closed)
    scaled_rps = sum(len(p.completions) for p in closed) / sum(
        p.seconds * speed for p, speed in zip(closed, closed_speed))
    print("closed slices (host speed/raw req/s): " + ", ".join(
        f"{speed:.2f}/{throughput(p):.0f}"
        for p, speed in zip(closed, closed_speed)), flush=True)
    print("open slices (host speed/raw p50 ms): " + ", ".join(
        f"{speed:.2f}/{quantile(p.latencies, 0.5) * 1e3:.2f}"
        for p, speed in zip(opened, open_speed)), flush=True)
    print(f"raw: throughput {raw_rps:.1f} req/s, p50 "
          f"{quantile(raw, 0.5) * 1e3:.3f} ms; mean host speed "
          f"{statistics.fmean(closed_speed):.3f} (closed), "
          f"{statistics.fmean(open_speed):.3f} (open)", flush=True)
    blocks = [scaled[i:i + P99_BLOCK]
              for i in range(0, len(scaled) - P99_BLOCK + 1, P99_BLOCK)]
    block_p99 = [quantile(block, 0.99) * 1e3 for block in blocks]
    print(f"open loop: {len(scaled)} latency samples at "
          f"{run.workload.open_rate:g} req/s; latency_p99_ms "
          f"{statistics.median(block_p99):.3f} (median of blocks "
          + ", ".join(f"{p:.3f}" for p in block_p99) + "); error_rate "
          f"{both.errors / both.attempted:.6f}", flush=True)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": scaled_rps,
        "latency_p50_ms": quantile(scaled, 0.50) * 1e3,
        "success_rate": 1.0 - both.errors / both.attempted,
        "rss_mb": rss,
    }
    correct = both.mismatched == 0 and run.warmup_problems == 0
    return metrics, both.attempted, both.errors, correct


def in_turns(reference: ReferenceServer, count: int,
             phase) -> tuple[list[PhaseResult], list[float]]:
    """Run ``phase(i, speed)`` for i < ``count`` with a reference burst
    before each and after the last, ``speed`` being the host speed the
    burst before it gave; returns the phases and each one's host speed
    (mean of the bursts either side, over :data:`REFERENCE_RPS`).
    """
    bursts = [reference_rps(reference)]
    phases = []
    for round_no in range(count):
        phases.append(phase(round_no, bursts[-1] / REFERENCE_RPS))
        bursts.append(reference_rps(reference))
    speeds = [(before + after) / 2 / REFERENCE_RPS
              for before, after in zip(bursts, bursts[1:])]
    return phases, speeds


def reference_rps(reference: ReferenceServer,
                  seconds: float = REFERENCE_BURST_S) -> float:
    """The reference server's closed-loop throughput right now."""
    phase = closed_loop("127.0.0.1", reference.port, [REFERENCE_REQUEST],
                        seconds, check_reference, name="reference")
    if phase.errors:
        raise SystemExit(f"reference server: {phase.errors} of "
                         f"{phase.attempted} requests failed")
    return throughput(phase)


def check_reference(request, status: int, body: bytes) -> bool:
    return status == 200 and body == REFERENCE_BODY


def slices(seconds: float, slice_s: float) -> int:
    """How many slices of ``slice_s``, each with its reference burst,
    fill ``seconds`` (at least one)."""
    return max(1, round(seconds / (slice_s + REFERENCE_BURST_S)))


def trace(run: Run) -> tuple[dict, int, int, bool]:
    """The ``--trace 1`` run: per-layer metrics.

    An untraced and a traced server run side by side and take turns
    with closed-loop rounds (a quarter of ``--seconds`` each), so
    ``trace.overhead`` compares them under the same host conditions.
    The per-layer means come from the traced server's open loop (half
    of ``--seconds``), whose spans are told apart by the shared
    monotonic clock.
    """
    share = run.seconds / 4 / ROUNDS
    plain = traced = None
    plain_rounds, traced_rounds = [], []
    try:
        plain = run.start()
        traced = run.start(traced=True)
        run.warmup(plain)
        run.warmup(traced)
        for _ in range(ROUNDS):
            plain_rounds.append(run.closed(plain, share, "a-closed-untraced"))
            report_phase(plain_rounds[-1])
            traced_rounds.append(run.closed(traced, share, "a-closed-traced"))
            report_phase(traced_rounds[-1])
        plain.stop()
        plain = None
        before = layers.scrape_counters(traced.get("/metrics").decode())
        with keep_awake():
            opened = run.open(traced, run.seconds / 2)
        report_phase(opened)
        after = layers.scrape_counters(traced.get("/metrics").decode())
    finally:
        for server in (plain, traced):
            if server is not None:
                server.stop()
    metrics, warnings = layers.per_layer(
        run.workload.name, run.spans_path,
        layers.counter_delta(before, after), opened.started,
        sum(opened.service_times), len(opened.service_times),
        statistics.median(throughput(p) for p in traced_rounds),
        statistics.median(throughput(p) for p in plain_rounds))
    for warning in warnings:
        print(f"trace warning: {warning}", flush=True)
    both = PhaseResult("both", 0.0)
    for phase in plain_rounds + traced_rounds + [opened]:
        both.merge(phase)
    correct = both.mismatched == 0 and run.warmup_problems == 0
    return metrics, both.attempted, both.errors, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_recorded_rate(spec, WORKLOADS[args.workload])
    # A stop request still shuts the server and the spinners down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.sched_setaffinity(0, split_cpus()[0])
    # A sleeping sender must not wait long for the interpreter lock
    # while the other generator thread reads a response.
    sys.setswitchinterval(0.001)
    run = Run(args)
    try:
        metrics, attempted, failed, correct = (
            trace(run) if args.trace else measure(run))
    finally:
        run.cleanup()
    # BENCHMARK.json names the metrics; one this run lacks is a KeyError.
    listed = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
