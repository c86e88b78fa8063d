"""Tracing bootstrap for the benchmark's per-layer run.

    python perfbench/traceboot.py SPANS_OUT serve [repro serve options]

Replaces the public functions listed in :data:`LAYERS` with timing
wrappers, then runs ``repro.cli.main(["serve", ...])`` unchanged: same
topology, same options, nothing under ``src/`` edited.  Each thread keeps
a stack of open spans, so a span's self time is its duration minus the
time of the spans opened inside it.  Spans stay in memory; on SIGTERM
they are written to ``SPANS_OUT`` as JSON and the server then stops the
way Ctrl-C stops it.

Only requests under ``/cgi-bin/`` are traced.  Hot per-call layers
(substitution, per-row rendering) are timed on every
:data:`SAMPLE_EVERY`-th request only: the bootstrap instruments that
request's own ``Evaluator`` instance and report iterators, so the other
requests pay nothing for them.  A wrapper on every
``Evaluator.evaluate_name`` call (hundreds per report page) would cost
more than the layer it measures.

A name in :data:`LAYERS` that no longer exists stops the bootstrap with
an error before the server starts, so a rename can never turn a layer
silently to zero.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import signal
import sys
import threading
import time

CGI_PREFIX = "/cgi-bin/"
#: Every SAMPLE_EVERY-th traced request also times the hot layers.
SAMPLE_EVERY = 4
#: Attribute the router wrapper sets on a CGI response, so the edge's
#: serialize wrapper can tell CGI pages from the /metrics scrape.
_MARK = "_perfbench_cgi"

#: (span name, module, attribute path, kind).  Kinds: ``timed`` records a
#: span per call; ``root`` is the request span; the rest are the sampled
#: hot-layer hooks described in the module docstring.
LAYERS = [
    ("http.parse", "repro.http.message", "HttpRequest.parse", "edge"),
    ("http.serialize", "repro.http.message", "HttpResponse.serialize",
     "edge"),
    ("router.handle", "repro.http.router", "Router.handle", "root"),
    ("cgi.dispatch", "repro.cgi.gateway", "CgiGateway.dispatch", "timed"),
    ("cgi.program", "repro.cgi.gateway", "Db2WwwProgram.run", "timed"),
    ("cgi.input_pairs", "repro.cgi.request", "CgiRequest.input_pairs",
     "timed"),
    ("appserver.run", "repro.appserver.dispatcher",
     "AppServerDispatcher.run", "timed"),
    ("appserver.encode_request", "repro.appserver.dispatcher",
     "protocol.encode_request", "bytes_out"),
    ("appserver.decode_response", "repro.appserver.dispatcher",
     "protocol.decode_response", "bytes_in"),
    ("core.macro_load", "repro.core.macrofile", "MacroLibrary.load",
     "timed"),
    ("core.engine", "repro.core.engine", "MacroEngine.execute", "timed"),
    ("core.substitute", "repro.core.substitution", "Evaluator.__init__",
     "evaluator"),
    ("core.substitute", "repro.core.substitution", "Evaluator.evaluate",
     "checked"),
    ("core.substitute", "repro.core.substitution",
     "Evaluator.evaluate_name", "checked"),
    ("core.render", "repro.core.report", "ReportGenerator.render_iter",
     "render"),
    ("core.compiled_row", "repro.core.compiled",
     "CompiledRowTemplate.render", "compiled"),
    ("sql.connect", "repro.sql.gateway", "DatabaseRegistry.connect",
     "timed"),
    ("sql.execute", "repro.sql.gateway", "MacroSqlSession.execute",
     "timed"),
    ("sql.finish", "repro.sql.gateway", "MacroSqlSession.finish", "timed"),
    ("sql.sqlite", "repro.sql.connection", "Connection.execute", "timed"),
    ("sql.cache_get", "repro.sql.querycache", "QueryResultCache.get",
     "timed"),
]


class _ThreadState:
    __slots__ = ("stack", "req", "sampled", "depth", "compiled")

    def __init__(self) -> None:
        #: open frames: [span id, start, child time, accrued
        #: substitution time, accrued substitution calls]
        self.stack: list[list] = []
        #: request id; 0 outside a request (the edge), -1 inside an
        #: untraced (non-CGI) request
        self.req = 0
        self.sampled = False
        #: >0 while inside a timed substitution call
        self.depth = 0
        #: compiled row renders seen in the sampled request
        self.compiled = 0


class Recorder:
    """Spans of every traced request, held in memory until dumped."""

    def __init__(self) -> None:
        self.local = threading.local()
        #: (request, span id, parent id, name, start, end, self, count)
        self.spans: list[tuple] = []
        self.ids = itertools.count(1)
        self.requests = itertools.count(1)

    def state(self) -> _ThreadState:
        try:
            return self.local.state
        except AttributeError:
            state = self.local.state = _ThreadState()
            return state

    def close_frame(self, state: _ThreadState, frame: list, name: str,
                    parent, start: float, end: float, count: int) -> None:
        """Record a finished span and charge its time to the parent."""
        duration = end - start
        parent_id = 0
        if parent is not None:
            parent[2] += duration
            parent_id = parent[0]
        spans = self.spans
        spans.append((state.req, frame[0], parent_id, name, start, end,
                      duration - frame[2], count))
        if frame[4]:
            # Substitution accrued inside this span, as one span.
            spans.append((state.req, next(self.ids), frame[0],
                          "core.substitute", start, start + frame[3],
                          frame[3], frame[4]))

    def dump(self, path: str) -> None:
        spans = list(self.spans)
        payload = {"sample_every": SAMPLE_EVERY, "spans": spans}
        tmp = f"{path}.tmp"
        with open(tmp, "w") as out:
            json.dump(payload, out)
        os.replace(tmp, path)


def resolve(module_name: str, path: str):
    """(owner, attribute name, raw attribute) or a loud failure."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise SystemExit(f"traced layer {module_name}.{path}: module "
                         f"cannot be imported ({exc}); update "
                         "perfbench/traceboot.py LAYERS") from exc
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    raw = (inspect.getattr_static(owner, attr, None)
           if owner is not None else None)
    if raw is None or not callable(getattr(owner, attr, None)):
        raise SystemExit(f"traced layer {module_name}.{path} no longer "
                         "exists; update perfbench/traceboot.py LAYERS")
    return owner, attr, raw


def check_layers() -> None:
    """Resolve every entry of :data:`LAYERS` (raises on a missing one)."""
    for _name, module_name, path, _kind in LAYERS:
        resolve(module_name, path)


def install(recorder: Recorder) -> None:
    """Wrap every layer in :data:`LAYERS`."""
    for name, module_name, path, kind in LAYERS:
        owner, attr, raw = resolve(module_name, path)
        if kind == "checked":
            continue  # instrumented per sampled Evaluator instance
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        wrapper = _WRAPPERS[kind](recorder, name, func)
        setattr(owner, attr,
                classmethod(wrapper) if is_classmethod else wrapper)


def _timed(recorder: Recorder, name: str, func, *, count=None, keep=None):
    state_of = recorder.state
    ids = recorder.ids
    perf = time.perf_counter
    close = recorder.close_frame

    def wrapper(*args, **kwargs):
        state = state_of()
        if state.req < 0:
            return func(*args, **kwargs)
        stack = state.stack
        parent = stack[-1] if stack else None
        frame = [next(ids), 0.0, 0.0, 0.0, 0]
        stack.append(frame)
        start = perf()
        try:
            result = func(*args, **kwargs)
        finally:
            end = perf()
            stack.pop()
        if keep is None or keep(args, result):
            close(state, frame, name, parent, start, end,
                  count(args, result) if count is not None else 1)
        return result
    return wrapper


def _edge(recorder, name, func):
    if name == "http.parse":
        def keep(_args, request):
            return request.target.startswith(CGI_PREFIX)
    else:
        def keep(args, _body):
            return getattr(args[0], _MARK, False)
    return _timed(recorder, name, func, keep=keep)


def _root(recorder, name, func):
    state_of = recorder.state
    requests = recorder.requests
    timed = _timed(recorder, name, func)

    def handle(self, request, *args, **kwargs):
        state = state_of()
        if not request.path.startswith(CGI_PREFIX):
            state.req = -1
            try:
                return func(self, request, *args, **kwargs)
            finally:
                state.req = 0
        req = next(requests)
        state.req = req
        state.sampled = req % SAMPLE_EVERY == 0
        state.compiled = 0
        try:
            response = timed(self, request, *args, **kwargs)
        finally:
            state.req = 0
            state.sampled = False
        setattr(response, _MARK, True)
        return response
    return handle


def _evaluator(recorder, _name, func):
    state_of = recorder.state
    perf = time.perf_counter

    def init(self, *args, **kwargs):
        func(self, *args, **kwargs)
        state = state_of()
        if state.sampled and state.stack:
            self.evaluate = _timed_substitution(state, self.evaluate, perf)
            self.evaluate_name = _timed_substitution(
                state, self.evaluate_name, perf)
    return init


def _timed_substitution(state: _ThreadState, bound, perf):
    """Time outermost calls; accrue them onto the innermost open span."""
    def call(arg):
        if state.depth:
            return bound(arg)
        state.depth = 1
        start = perf()
        try:
            return bound(arg)
        finally:
            elapsed = perf() - start
            state.depth = 0
            frame = state.stack[-1]
            frame[2] += elapsed
            frame[3] += elapsed
            frame[4] += 1
    return call


def _render(recorder, name, func):
    state_of = recorder.state

    def render_iter(self, section, result):
        inner = func(self, section, result)
        state = state_of()
        if not state.sampled:
            return inner
        return _timed_chunks(recorder, state, inner)
    return render_iter


def _timed_chunks(recorder: Recorder, state: _ThreadState, inner):
    """Time each ``next`` of a report stream as one accrued span."""
    perf = time.perf_counter
    frame = [next(recorder.ids), 0.0, 0.0, 0.0, 0]
    parent = state.stack[-1] if state.stack else None
    compiled_before = state.compiled
    chunks = 0
    active = 0.0
    first = perf()
    try:
        while True:
            state.stack.append(frame)
            start = perf()
            try:
                chunk = next(inner)
            except StopIteration:
                return
            finally:
                elapsed = perf() - start
                state.stack.pop()
                active += elapsed
                if parent is not None:
                    parent[2] += elapsed
            chunks += 1
            yield chunk
    finally:
        inner.close()
        # Header and footer are one chunk each; the rest are rows.
        rows = max(0, chunks - 2)
        spans = recorder.spans
        parent_id = parent[0] if parent is not None else 0
        spans.append((state.req, frame[0], parent_id, "core.render",
                      first, first + active, active - frame[2], rows))
        if frame[4]:
            spans.append((state.req, next(recorder.ids), frame[0],
                          "core.substitute", first, first + frame[3],
                          frame[3], frame[4]))
        spans.append((state.req, next(recorder.ids), frame[0],
                      "core.compiled_row", first, first, 0.0,
                      state.compiled - compiled_before))


def _compiled(recorder, _name, func):
    state_of = recorder.state

    def render(self, row, row_num):
        state = state_of()
        if state.sampled:
            state.compiled += 1
        return func(self, row, row_num)
    return render


_WRAPPERS = {
    "timed": lambda r, n, f: _timed(r, n, f),
    "bytes_out": lambda r, n, f: _timed(
        r, n, f, count=lambda _args, payload: len(payload)),
    "bytes_in": lambda r, n, f: _timed(
        r, n, f, count=lambda args, _resp: len(args[0])),
    "edge": _edge,
    "root": _root,
    "evaluator": _evaluator,
    "render": _render,
    "compiled": _compiled,
}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        raise SystemExit(__doc__)
    spans_out = argv[0]
    recorder = Recorder()
    install(recorder)

    def on_term(_signum, _frame):
        recorder.dump(spans_out)
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, on_term)
    from repro.cli import main as cli_main
    return cli_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
