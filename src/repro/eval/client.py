"""Stdlib HTTP client for the ``repro serve`` result service.

Tests, benchmarks, CI, and the example script all talk to the server
through this module.  It speaks HTTP/1.1 itself, over a plain socket
and a buffered reader, and reads the three body framings a reply can
have:

* ``Transfer-Encoding: chunked`` (the ``/sweep`` stream): each chunk is
  read whole — its size line (a ``;extension`` is skipped), exactly
  that many bytes, then CRLF — and trailer fields after the last chunk
  are skipped;
* ``Content-Length`` (``/healthz``, ``/stats``, error replies);
* neither (a reply to an HTTP/1.0 request): the body ends when the
  server closes the connection, which is then never pooled.

A ``/sweep`` body is NDJSON.  The complete lines of each chunk are
decoded with one ``json.loads`` of the lines joined into a JSON array
and yielded in order as soon as the chunk lands, so a cell evaluated
late still streams the moment it is done; a line split across chunks
waits for its end.  A body cut off before its end raises
:class:`ReproError`, so a stream never ends quietly without its
summary.  The tests keep ``http.client`` as a second, independent
client of the same wire contract (``tests/test_serve.py``).

Connections persist (HTTP/1.1 keep-alive).  A response read to its end
puts its connection in a small pool of idle connections per ``(host,
port)``, and the next request, from this thread or any other, takes it
from there: a closed-loop client pays for one TCP connect, not one per
request.  Each request has its connection to itself while it runs; a
stream abandoned before its end, a failed one, or a reply that says
``Connection: close`` closes its connection instead.  A pooled
connection the server has closed meanwhile (it restarted or stopped)
fails before a status line arrives; the request is then retried once
on a fresh connection, and never once a status line has arrived.
"""

from __future__ import annotations

import json
import socket
import threading

from repro.errors import ReproError

#: Idle connections kept per ``(host, port)``; more are closed.
POOL_SIZE = 4

#: Longest status, header, chunk-size or trailer line accepted.
_MAX_LINE = 1 << 16

_HEX_DIGITS = b"0123456789abcdefABCDEF"

_pool: dict[tuple[str, int], list[_Connection]] = {}
_pool_lock = threading.Lock()


class _NoReply(ConnectionError):
    """The connection failed before a status line arrived."""


class _Connection:
    """One socket to the server and a buffered reader over it; one
    request and its reply at a time."""

    def __init__(self, host: str, port: int,
                 timeout: "float | None") -> None:
        self.sock = socket.create_connection((host, port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # A warm /sweep reply fits the buffer: it arrives in one read.
        self.file = self.sock.makefile("rb", buffering=1 << 16)
        self.status = 0
        self.chunked = False
        self.length: "int | None" = None
        self.keep = False       # the server keeps the connection open
        self.reusable = False   # ... and the reply was read to its end

    def close(self) -> None:
        self.file.close()
        self.sock.close()

    def _line(self) -> bytes:
        line = self.file.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise ReproError("serve reply has a line over 64 KiB")
        return line

    def exchange(self, request: bytes, timeout: "float | None") -> None:
        """Send ``request`` and read the reply's status line and head.
        Raises :class:`_NoReply` if the connection fails before the
        status line; closes the connection on any failure."""
        self.reusable = False
        try:
            try:
                self.sock.settimeout(timeout)
                self.sock.sendall(request)
                line = self._line()
            except ConnectionError as error:
                raise _NoReply(str(error)) from error
            if not line:
                raise _NoReply("server closed the connection without a reply")
            self._read_head(line)
        except BaseException:
            self.close()
            raise

    def _read_head(self, status_line: bytes) -> None:
        version, _, rest = status_line.partition(b" ")
        status = rest[:3]
        if not (version.startswith(b"HTTP/") and status.isdigit()):
            raise ReproError(f"malformed serve status line: {status_line!r}")
        headers: dict[bytes, bytes] = {}
        while (line := self._line()) not in (b"\r\n", b"\n"):
            if not line:
                raise ReproError("serve reply cut off in its head")
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip().lower()
        self.status = int(status)
        tokens = headers.get(b"connection", b"").split(b",")
        self.keep = version == b"HTTP/1.1" and b"close" not in {
            token.strip() for token in tokens}
        coding = headers.get(b"transfer-encoding")
        length = headers.get(b"content-length")
        self.chunked = coding is not None
        self.length = None
        if coding is not None:
            if coding.rpartition(b",")[2].strip() != b"chunked":
                raise ReproError(f"unsupported transfer coding {coding!r}")
        elif length is not None:
            if not length.isdigit():
                raise ReproError(f"malformed content-length {length!r}")
            self.length = int(length)
        else:
            self.keep = False   # the body ends at the close

    def body(self):
        """Yield the reply's body in the pieces it arrives in: each chunk
        whole, a ``Content-Length`` body whole, or an unframed body one
        read at a time until EOF.  Raises :class:`ReproError` if the
        body is cut off; marks the connection reusable once it is read
        to its end."""
        file = self.file
        if self.chunked:
            while True:
                line = self._line()
                digits = line.partition(b";")[0].strip()
                if not digits or digits.strip(_HEX_DIGITS):
                    raise _cut_off(f"chunk size line {line!r}")
                size = int(digits, 16)
                if not size:
                    break
                data = file.read(size)
                if len(data) < size or file.read(2) != b"\r\n":
                    raise _cut_off("in a chunk")
                yield data
            while (line := self._line()) not in (b"\r\n", b"\n"):
                if not line:
                    raise _cut_off("in its trailer")
        elif self.length is not None:
            data = file.read(self.length)
            if len(data) < self.length:
                raise _cut_off(f"{len(data)} of {self.length} bytes")
            yield data
        else:
            while data := file.read1(1 << 16):
                yield data
        self.reusable = self.keep

    def read(self) -> bytes:
        return b"".join(self.body())


def _cut_off(where: str) -> ReproError:
    return ReproError(f"serve reply body cut off or malformed: {where}")


def _request(host: str, port: int, method: str, path: str,
             body: "bytes | None" = None,
             timeout: "float | None" = None) -> _Connection:
    """Send one request; its connection, once the reply's head is in.
    Hand it to :func:`_release` when done with the body."""
    authority = f"[{host}]" if ":" in host else host
    head = f"{method} {path} HTTP/1.1\r\nHost: {authority}:{port}\r\n"
    if body is not None:
        head += ("Content-Type: application/json\r\n"
                 f"Content-Length: {len(body)}\r\n")
    request = (head + "\r\n").encode("latin-1") + (body or b"")
    with _pool_lock:
        idle = _pool.get((host, port))
        connection = idle.pop() if idle else None
    if connection is not None:
        try:
            connection.exchange(request, timeout)
            return connection
        except _NoReply:
            pass        # the server closed it while it idled: retry fresh
    connection = _Connection(host, port, timeout)
    connection.exchange(request, timeout)
    return connection


def _release(host: str, port: int, connection: _Connection) -> None:
    """Pool ``connection`` if its reply was read to its end and the
    server keeps it open; close it otherwise."""
    if connection.reusable:
        with _pool_lock:
            idle = _pool.setdefault((host, port), [])
            if len(idle) < POOL_SIZE:
                idle.append(connection)
                return
    connection.close()


def _records(pieces):
    """The NDJSON records of a body arriving in ``pieces``: the complete
    lines of each piece decoded at once, a split line once it ends."""
    partial = b""
    for piece in pieces:
        lines, _, partial = (partial + piece).rpartition(b"\n")
        lines = [line for line in lines.split(b"\n") if line.strip()]
        if lines:
            yield from json.loads(b"[" + b",".join(lines) + b"]")
    if partial.strip():
        yield json.loads(partial)


def stream_sweep(host: str, port: int, *,
                 workloads: "list[str] | None" = None,
                 archs: "list[str] | None" = None,
                 mapper: "str | None" = None,
                 timeout: "float | None" = None):
    """POST a grid spec to ``/sweep``; yield records as they stream in.

    Yields one dict per cell (``SWEEP_HEADERS`` fields plus ``index``
    and ``source``) in completion order — a cell can arrive the moment
    it lands, long before slower cells finish — then the final
    ``{"summary": ...}`` record.  Raises :class:`ReproError` on non-200
    responses (e.g. a malformed grid spec).
    """
    spec: dict = {}
    if workloads is not None:
        spec["workloads"] = list(workloads)
    if archs is not None:
        spec["archs"] = list(archs)
    if mapper is not None:
        spec["mapper"] = mapper
    connection = _request(host, port, "POST", "/sweep",
                          body=json.dumps(spec).encode(), timeout=timeout)
    try:
        if connection.status != 200:
            detail = connection.read().decode("utf-8", "replace")
            raise ReproError(
                f"serve request failed ({connection.status}): {detail}")
        yield from _records(connection.body())
    finally:
        _release(host, port, connection)


def sweep(host: str, port: int, **kwargs) -> tuple[list[dict], "dict | None"]:
    """Submit a grid and collect ``(cells, summary)``.

    Cells come back sorted by grid ``index`` — the deterministic order
    ``repro sweep`` reports — whatever order they streamed in.
    """
    cells: list[dict] = []
    summary = None
    for record in stream_sweep(host, port, **kwargs):
        if "summary" in record:
            summary = record["summary"]
        else:
            cells.append(record)
    cells.sort(key=lambda record: record["index"])
    return cells, summary


def get_json(host: str, port: int, path: str,
             timeout: "float | None" = None) -> dict:
    """GET a JSON endpoint (``/healthz``, ``/stats``)."""
    connection = _request(host, port, "GET", path, timeout=timeout)
    try:
        payload = connection.read().decode("utf-8", "replace")
        if connection.status != 200:
            raise ReproError(
                f"GET {path} failed ({connection.status}): {payload}")
        return json.loads(payload)
    finally:
        _release(host, port, connection)
