"""Stdlib HTTP client for the ``repro serve`` result service.

Tests, benchmarks, CI, and the example script all talk to the server
through this module, so the wire format is exercised end to end with
nothing but ``http.client`` — which transparently decodes the server's
chunked transfer encoding, and whose response object is a buffered
reader, so NDJSON lines can be consumed as they arrive.

Connections persist (HTTP/1.1 keep-alive).  A response read to its end
puts its connection in a small pool of idle connections per ``(host,
port)``, and the next request, from this thread or any other, takes it
from there: a closed-loop client pays for one TCP connect, not one per
request.  Each request has its connection to itself while it runs; a
stream abandoned before its end, or a failed one, closes its connection
instead.  A pooled connection the server has closed meanwhile (it
restarted or stopped) fails before a status line arrives; the request
is then retried once on a fresh connection.
"""

from __future__ import annotations

import http.client
import json
import threading

from repro.errors import ReproError

#: Idle connections kept per ``(host, port)``; more are closed.
POOL_SIZE = 4

_pool: dict[tuple[str, int], list[http.client.HTTPConnection]] = {}
_pool_lock = threading.Lock()


def _send(connection: http.client.HTTPConnection, method: str, path: str,
          body: "str | None", headers: dict) -> http.client.HTTPResponse:
    try:
        connection.request(method, path, body=body, headers=headers)
        return connection.getresponse()
    except BaseException:
        connection.close()
        raise


def _request(host: str, port: int, method: str, path: str,
             body: "str | None" = None, timeout: "float | None" = None):
    """Send one request; ``(connection, response)`` once the status line
    is in.  Hand both to :func:`_release` when done with the response."""
    headers = {"Content-Type": "application/json"} if body else {}
    with _pool_lock:
        idle = _pool.get((host, port))
        connection = idle.pop() if idle else None
    if connection is not None:
        connection.timeout = timeout
        connection.sock.settimeout(timeout)
        try:
            return connection, _send(connection, method, path, body, headers)
        except ConnectionError:
            pass        # the server closed it while it idled: retry fresh
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    return connection, _send(connection, method, path, body, headers)


def _release(host: str, port: int, connection: http.client.HTTPConnection,
             response: http.client.HTTPResponse) -> None:
    """Pool ``connection`` if ``response`` was read to its end and the
    server keeps the connection open; close it otherwise."""
    if response.isclosed() and not response.will_close:
        with _pool_lock:
            idle = _pool.setdefault((host, port), [])
            if len(idle) < POOL_SIZE:
                idle.append(connection)
                return
    connection.close()


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
    connection, response = _request(
        host, port, "POST", "/sweep", body=json.dumps(spec),
        timeout=timeout)
    try:
        if response.status != 200:
            detail = response.read().decode("utf-8", "replace")
            raise ReproError(
                f"serve request failed ({response.status}): {detail}")
        while True:
            line = response.readline()
            if not line:
                break
            line = line.strip()
            if line:
                yield json.loads(line)
    finally:
        _release(host, port, connection, response)


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
    connection, response = _request(host, port, "GET", path,
                                    timeout=timeout)
    try:
        payload = response.read().decode("utf-8", "replace")
        if response.status != 200:
            raise ReproError(
                f"GET {path} failed ({response.status}): {payload}")
        return json.loads(payload)
    finally:
        _release(host, port, connection, response)
