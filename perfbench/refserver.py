"""The reference server: ``python3 perfbench/refserver.py``.

A fixed keep-alive HTTP/1.0 server built from the standard library
alone, so that no change to the repository changes its speed.  Per
request it does work of the kinds the real server does: it parses the
head and the form body, runs a SELECT on an in-memory SQLite table and
renders the rows as an HTML table.

The benchmark runs it beside the real server, on the same CPUs, and
times short closed-loop bursts against it between its slices of load.
On a shared host the same code runs a fifth faster or slower from one
ten-second stretch to the next; the reference's throughput at that
moment tells how fast the host is, and the benchmark scales the real
server's figures by it (see ``run.py``).

Prints its port on the first line of standard output, then serves one
thread per connection until it is killed.
"""

from __future__ import annotations

import socket
import sqlite3
import threading
from urllib.parse import parse_qsl, unquote_plus

ROWS = [(i, f"Site {i}", f"http://host{i % 17}.example.org/page/{i}",
         f"topic{i % 11}", i * 7 % 13) for i in range(150)]


def database() -> sqlite3.Connection:
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE site (id INTEGER PRIMARY KEY, title TEXT, "
               "url TEXT, topic TEXT, rank INTEGER)")
    db.executemany("INSERT INTO site VALUES (?, ?, ?, ?, ?)", ROWS)
    return db


def page(db: sqlite3.Connection, method: str, target: str,
         body: bytes) -> bytes:
    """The response body for one request."""
    path, _, query = target.partition("?")
    fields = dict(parse_qsl(query))
    fields.update(parse_qsl(body.decode("latin-1")))
    rank = sum(len(value) for value in fields.values()) % 13
    rows = db.execute("SELECT id, title, url, topic FROM site "
                      "WHERE rank >= ? ORDER BY topic, id",
                      (rank,)).fetchall()
    cells = []
    for site_id, title, url, topic in rows:
        values = {"ID": str(site_id), "TITLE": title, "URL": url,
                  "TOPIC": topic.upper()}
        cells.append("<TR>" + "".join(
            f"<TD>{values[name]}</TD>" for name in ("ID", "TITLE", "TOPIC"))
            + f'<TD><A HREF="{values["URL"]}">{values["URL"]}</A></TD>'
            "</TR>\n")
    title = unquote_plus(path.rsplit("/", 1)[-1])
    return (f"<HTML><HEAD><TITLE>{method} {title}</TITLE></HEAD><BODY>"
            f"<TABLE>\n{''.join(cells)}</TABLE>{len(rows)} rows"
            "</BODY></HTML>\n").encode()


def serve_connection(conn: socket.socket) -> None:
    db = database()
    buffer = b""
    try:
        while True:
            while b"\r\n\r\n" not in buffer:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buffer += chunk
            head, _, rest = buffer.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            while len(rest) < length:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                rest += chunk
            body, buffer = rest[:length], rest[length:]
            method, target = lines[0].split()[:2]
            payload = page(db, method, target, body)
            conn.sendall(b"HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n"
                         b"Connection: Keep-Alive\r\nContent-Length: "
                         + str(len(payload)).encode() + b"\r\n\r\n"
                         + payload)
    finally:
        conn.close()
        db.close()


def main() -> None:
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)
    print(listener.getsockname()[1], flush=True)
    while True:
        conn, _ = listener.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        threading.Thread(target=serve_connection, args=(conn,),
                         daemon=True).start()


if __name__ == "__main__":
    main()
