"""The benchmark's two served workloads and their output oracles.

Each workload fixes the server topology (edge, gateway, worker count),
seeds its SQLite file deterministically from a fixed data seed, and
turns the benchmark's workload seed into a list of ready-to-send HTTP
requests.  The server only ever sees those requests.

The oracle renders the expected page for every distinct request target
through an in-process reference stack (router -> CGI -> macro engine ->
SQLite) with the query cache off, before the server is measured.  A
served body must equal the reference byte for byte.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps import urlquery as urlquery_app
from repro.apps.datasets import seed_urldb
from repro.cgi.query_string import encode_component
from repro.workloads.generator import UrlQueryWorkload

#: Seed of the database contents: fixed, so every run serves the same
#: rows whatever the workload seed is.
DATA_SEED = 96
#: The seeded database file, in the run directory.
DB_FILE = "urldb.sqlite"

#: Requests generated per run; closed-loop phases cycle through them.
REQUESTS_PER_RUN = 6000


@dataclass(frozen=True)
class Request:
    """One generated HTTP request and what the oracle needs to judge it."""

    raw: bytes
    #: the oracle's key: method, target and body
    key: bytes


def http_request(method: str, target: str,
                 pairs: tuple[tuple[str, str], ...] = ()) -> Request:
    """A keep-alive HTTP/1.0 request; POST bodies are form-urlencoded."""
    body = "&".join(f"{encode_component(k)}={encode_component(v)}"
                    for k, v in pairs).encode("ascii")
    head = [f"{method} {target} HTTP/1.0", "Host: 127.0.0.1",
            "Connection: Keep-Alive"]
    if method == "POST":
        head.append("Content-Type: application/x-www-form-urlencoded")
        head.append(f"Content-Length: {len(body)}")
    raw = ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body
    return Request(raw=raw, key=f"{method} {target} ".encode() + body)


def _report(macro: str, pairs) -> Request:
    return http_request("POST", f"/cgi-bin/db2www/{macro}/report",
                        tuple(pairs))


def _form(macro: str) -> Request:
    return http_request("GET", f"/cgi-bin/db2www/{macro}/input")


@dataclass(frozen=True)
class Workload:
    """A traffic mix plus the server topology that serves it."""

    name: str
    #: Poisson arrival rate of the open-loop phase on the reference host
    #: (see ``refserver.py``), fixed at about a third of the capacity the
    #: seed commit measured; never derived from the program's speed.
    open_rate: float
    edge: str
    gateway: str

    def serve_args(self, run_dir: Path) -> list[str]:
        """``repro serve`` arguments; everything else stays at defaults."""
        args = ["serve", "--macros", str(run_dir / "macros"),
                "--database",
                f"{urlquery_app.DATABASE_NAME}={run_dir / DB_FILE}",
                "--host", "127.0.0.1", "--port", "0",
                "--edge", self.edge, "--gateway", self.gateway]
        if self.gateway == "appserver":
            args += ["--workers", "2"]
        return args

    def probe(self) -> Request:
        """The request whose first 200 ends set-up."""
        return _form(urlquery_app.MACRO_NAME)

    def prepare(self, run_dir: Path) -> None:
        """Write the macro directory and seed a fresh database file."""
        macros = run_dir / "macros"
        macros.mkdir(parents=True, exist_ok=True)
        (macros / urlquery_app.MACRO_NAME).write_text(
            urlquery_app.URLQUERY_MACRO)
        path = run_dir / DB_FILE
        for stale in (path, path.with_name(path.name + "-journal")):
            stale.unlink(missing_ok=True)
        # Default flush policy (rollback journal, synchronous=FULL):
        # nothing here or in the server changes it.
        conn = sqlite3.connect(path)
        try:
            seed_urldb(conn, 150, seed=DATA_SEED)
            conn.commit()
        finally:
            conn.close()

    def requests(self, seed: int,
                 count: int = REQUESTS_PER_RUN) -> list[Request]:
        if self.name == "appendix-a-report":
            mix = UrlQueryWorkload(seed=seed)
            return [_report(urlquery_app.MACRO_NAME, r.pairs)
                    if r.is_report else _form(urlquery_app.MACRO_NAME)
                    for r in mix.requests(count)]
        return [_form(urlquery_app.MACRO_NAME)] * count


WORKLOADS = {w.name: w for w in (
    Workload("appendix-a-report", open_rate=240.0, edge="threaded",
             gateway="inprocess"),
    Workload("form-appserver", open_rate=190.0, edge="async",
             gateway="appserver"),
)}


# -- oracle -----------------------------------------------------------------

@dataclass
class Oracle:
    """Expected bodies for every distinct target of one run."""

    workload: Workload
    expected: dict[bytes, bytes] = field(default_factory=dict)

    @classmethod
    def build(cls, workload: Workload, run_dir: Path,
              requests: list[Request]) -> "Oracle":
        """Render every distinct target through the reference stack,
        which reads the same seeded file."""
        from repro.apps.site import build_site
        from repro.core.engine import MacroEngine
        from repro.core.macrofile import MacroLibrary
        from repro.http.message import HttpRequest
        from repro.sql.gateway import DatabaseRegistry

        registry = DatabaseRegistry()
        registry.register_path(urlquery_app.DATABASE_NAME,
                               str(run_dir / DB_FILE))
        engine = MacroEngine(registry)      # no query cache
        site = build_site(engine, MacroLibrary(run_dir / "macros"))
        oracle = cls(workload)
        for request in requests + [workload.probe()]:
            if request.key in oracle.expected:
                continue
            response = site.router.handle(HttpRequest.parse(request.raw))
            if response.status != 200:
                raise RuntimeError(
                    f"reference stack answered {response.status} for "
                    f"{request.key[:80]!r}")
            oracle.expected[request.key] = response.body
        registry.close_all()
        return oracle

    def check(self, request: Request, status: int, body: bytes) -> bool:
        """True when the served response matches the reference page."""
        return status == 200 and body == self.expected.get(request.key)
