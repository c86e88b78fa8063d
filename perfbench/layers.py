"""Per-layer metrics from the traced run's spans and /metrics scrape.

Every time is a mean in microseconds per traced request; counts are per
request too.  Means add up to the request, percentiles would not.  Hot
layers timed only on sampled requests (see ``traceboot``) are averaged
over those requests.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

#: Layers each workload must reach; a zero here means the wrapped
#: function is no longer on the request path and is reported loudly.
EXPECTED = {
    "appendix-a-report": ["cgi.program", "core.engine", "core.macro_load",
                          "sql.connect", "sql.execute", "core.render"],
    "form-appserver": ["appserver.run", "appserver.encode_request",
                       "appserver.decode_response"],
}


def scrape_counters(text: str) -> dict[str, float]:
    """Unlabelled samples of a Prometheus text scrape."""
    counters = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        name, _, value = line.partition(" ")
        try:
            counters[name] = float(value.split()[0])
        except (ValueError, IndexError):
            continue
    return counters


def counter_delta(before: dict[str, float],
                  after: dict[str, float]) -> dict[str, float]:
    return {name: value - before.get(name, 0.0)
            for name, value in after.items()}


def per_layer(workload: str, spans_path: Path, counters: dict[str, float],
              since: float, client_seconds: float, client_requests: int,
              traced_rps: float, untraced_rps: float) -> tuple[dict, list]:
    """The per-layer metrics of the spans that began at or after
    ``since`` (the open-loop phase), and a list of warnings.

    ``counters`` are the phase's /metrics deltas; ``client_seconds`` and
    ``client_requests`` are the client-side send-to-last-byte total and
    request count of the same phase.
    """
    payload = json.loads(spans_path.read_text())
    sample_every = payload["sample_every"]
    total = defaultdict(float)      # name -> sum of durations
    self_time = defaultdict(float)  # name -> sum of self times
    count = defaultdict(float)      # name -> sum of counts
    calls = defaultdict(int)        # name -> number of spans
    sampled_total = defaultdict(float)
    sampled_self = defaultdict(float)
    sampled_count = defaultdict(float)
    requests = set()
    for req, _sid, _pid, name, start, end, own, n in payload["spans"]:
        if req < 0 or start < since:
            continue
        if name == "router.handle":
            requests.add(req)
        duration = end - start
        total[name] += duration
        self_time[name] += own
        count[name] += n
        calls[name] += 1
        if req > 0 and req % sample_every == 0:
            sampled_total[name] += duration
            sampled_self[name] += own
            sampled_count[name] += n
    n_req = len(requests)
    warnings = []
    if n_req != client_requests:
        warnings.append(f"server traced {n_req} CGI requests, the client "
                        f"sent {client_requests}")
    n_req = max(n_req, 1)
    n_sampled = max(1, sum(1 for r in requests if r % sample_every == 0))
    for name in EXPECTED.get(workload, []):
        if calls[name] == 0:
            warnings.append(f"layer {name} recorded no calls")

    def us(value: float, per: int = n_req) -> float:
        return value / per * 1e6

    client_mean = client_seconds / max(client_requests, 1)
    handle = total["router.handle"] / n_req
    hits = counters.get("query_cache_hits", 0.0)
    misses = counters.get("query_cache_misses", 0.0)
    failures = sum(counters.get(f"appserver_{k}", 0.0)
                   for k in ("crashes", "crash_retries", "busy_timeouts"))
    server_self = sum(self_time.values())
    rows = sampled_count["core.render"]
    metrics = {
        "http.edge_us": (client_mean - handle) * 1e6,
        "http.parse_us": us(total["http.parse"]),
        "http.serialize_us": us(total["http.serialize"]),
        "router.self_us": us(self_time["router.handle"]),
        "cgi.dispatch_self_us": us(self_time["cgi.dispatch"]
                                   + self_time["cgi.program"]),
        "cgi.input_pairs_us": us(total["cgi.input_pairs"]),
        "appserver.roundtrip_us": us(total["appserver.run"]),
        "appserver.frame_bytes": (count["appserver.encode_request"]
                                  + count["appserver.decode_response"])
        / n_req,
        "appserver.failures": failures / n_req,
        "core.macro_load_us": us(total["core.macro_load"]),
        "core.engine_self_us": us(sampled_self["core.engine"], n_sampled),
        "core.substitute_us": us(sampled_total["core.substitute"],
                                 n_sampled),
        "core.substitute_calls": sampled_count["core.substitute"]
        / n_sampled,
        "core.render_self_us": us(sampled_self["core.render"], n_sampled),
        "core.rows": rows / n_sampled,
        "core.compiled_row_share": (sampled_count["core.compiled_row"]
                                    / rows if rows else 0.0),
        "sql.connect_us": us(total["sql.connect"]),
        "sql.connect_calls": calls["sql.connect"] / n_req,
        "sql.execute_self_us": us(self_time["sql.execute"]),
        "sql.sqlite_us": us(total["sql.sqlite"]),
        "sql.finish_us": us(total["sql.finish"]),
        "sql.cache_get_us": us(total["sql.cache_get"]),
        "sql.cache_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "sql.cache_invalidations":
            counters.get("query_cache_invalidations", 0.0) / n_req,
        "sql.cache_evictions":
            counters.get("query_cache_evictions", 0.0) / n_req,
        "trace.unattributed_share":
            1.0 - server_self / n_req / client_mean if client_mean else 0.0,
        "trace.overhead": 1.0 - traced_rps / untraced_rps
        if untraced_rps else 0.0,
    }
    return metrics, warnings
