"""The shared sweep/result service: bit-identity with local sweeps,
in-flight dedupe, admission control, and the HTTP surface.

The serve contract (:mod:`repro.eval.serve`): served results are
bit-identical to ``repro sweep`` on the same grid (same fingerprints,
same store bytes), N concurrent identical requests cost exactly one
evaluation per cell, a fully-warm request evaluates nothing, and
overload degrades to structured ``ServerBusy`` rows instead of
unbounded queueing.
"""

import asyncio
import dataclasses
import filecmp
import http.client
import json
import logging
import os
import select
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.eval import client, harness, parallel
from repro.eval.harness import clear_caches, configure_store
from repro.eval.reporting import SWEEP_HEADERS, cell_row, sweep_rows
from repro.eval.serve import (
    SERVER_BUSY, SweepServer, _parse_grid_spec,
)

#: Small grid spanning both cache-relevant axes (two fabrics, distinct
#: default mappers) without making every test pay for the full fleet.
WORKLOADS = ["dwconv", "conv2x2"]
ARCHS = ["st", "plaid"]


@pytest.fixture(autouse=True)
def _fresh_harness():
    clear_caches()
    configure_store(None)
    yield
    clear_caches()
    configure_store(None)


@pytest.fixture
def server(tmp_path):
    """An in-thread server (inline evaluation: deterministic, fast)."""
    srv = SweepServer(store=tmp_path / "served", jobs=2,
                      use_processes=False).start_background()
    yield srv
    srv.shutdown_background()


def _grid_kwargs():
    return dict(workloads=WORKLOADS, archs=ARCHS)


def _raw_sweep(srv, **spec) -> list[bytes]:
    """The NDJSON lines of one ``/sweep`` response body, as sent."""
    connection = http.client.HTTPConnection(srv.host, srv.port, timeout=120)
    try:
        connection.request("POST", "/sweep", body=json.dumps(spec))
        response = connection.getresponse()
        assert response.status == 200
        body = response.read()
    finally:
        connection.close()
    assert body.endswith(b"\n")
    return body.splitlines()


def _rendered(cell, index: int, source: str) -> bytes:
    """What the wire must carry for ``cell``: its ``cell_row`` record
    plus the request's fields, dumped with sorted keys."""
    outcome = parallel.answer_from_cache(cell, True)
    record = dict(zip(SWEEP_HEADERS, cell_row(outcome)))
    record.update(cached=source != "evaluated", index=index, source=source)
    return json.dumps(record, sort_keys=True).encode()


def _tallies(summary: dict) -> dict:
    return {key: value for key, value in summary.items() if key != "seconds"}


# ---------------------------------------------------------------------------
# Grid spec parsing
# ---------------------------------------------------------------------------
def test_grid_spec_matches_sweep_vocabulary():
    cells = _parse_grid_spec(
        json.dumps({"workloads": WORKLOADS, "archs": ARCHS}).encode())
    assert cells == parallel.build_grid(WORKLOADS, ARCHS)
    # Empty body: the full sweep default grid.
    assert _parse_grid_spec(b"") == parallel.build_grid()


@pytest.mark.parametrize("body", [
    b"not json",
    b"[1, 2]",
    b'{"workloads": []}',
    b'{"workloads": "dwconv"}',
    b'{"mapper": 3}',
    b'{"grid": ["dwconv"]}',
    b'{"mapper": "bogus"}',
    b'{"archs": ["nope"]}',
    b'{"archs": ["plaid", "nope"], "workloads": ["dwconv"]}',
    b'{"archs": ["st6x6"]}',            # `repro sweep --arch` rejects it too
])
def test_malformed_grid_specs_are_repro_errors(body):
    with pytest.raises(ReproError):
        _parse_grid_spec(body)


def test_bad_spec_answers_400(server):
    with pytest.raises(ReproError, match="400"):
        list(client.stream_sweep(server.host, server.port, workloads=[]))


def test_unknown_mapper_answers_400_and_stores_nothing(server):
    with pytest.raises(ReproError, match="400.*unknown mapper key 'bogus'"):
        list(client.stream_sweep(server.host, server.port,
                                 workloads=["dwconv"], mapper="bogus"))
    assert len(server.store) == 0
    assert server.counters.cells == 0


# ---------------------------------------------------------------------------
# Bit-identity with the local sweep engine
# ---------------------------------------------------------------------------
def test_served_store_is_byte_identical_to_local_sweep(tmp_path):
    """The acceptance criterion: same fingerprints, same store bytes."""
    configure_store(tmp_path / "local")
    grid = parallel.build_grid(WORKLOADS, ARCHS)
    parallel.run_sweep(grid, jobs=1)
    clear_caches()

    srv = SweepServer(store=tmp_path / "served", jobs=2,
                      use_processes=True).start_background()
    try:
        cells, summary = client.sweep(srv.host, srv.port, **_grid_kwargs())
    finally:
        srv.shutdown_background()
    assert summary["evaluated"] == len(grid) and summary["failed"] == 0

    local = sorted(p.name for p in (tmp_path / "local").iterdir())
    served = sorted(p.name for p in (tmp_path / "served").iterdir())
    assert served == local          # same fingerprints
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "local", tmp_path / "served", local, shallow=False)
    assert not mismatch and not errors
    assert len(match) == len(local)  # same bytes


def test_streamed_rows_match_sweep_rows(tmp_path, server):
    served, _summary = client.sweep(server.host, server.port,
                                    **_grid_kwargs())
    clear_caches()
    configure_store(tmp_path / "local")
    report = parallel.run_sweep(parallel.build_grid(WORKLOADS, ARCHS))
    expected = [dict(zip(SWEEP_HEADERS, row)) for row in sweep_rows(report)]
    assert [
        {key: row[key] for key in SWEEP_HEADERS} for row in served
    ] == expected
    assert [row["index"] for row in served] == list(range(len(expected)))


# ---------------------------------------------------------------------------
# Caching / dedupe
# ---------------------------------------------------------------------------
def test_warm_request_evaluates_nothing(server):
    _cells, cold = client.sweep(server.host, server.port, **_grid_kwargs())
    warm_cells, warm = client.sweep(server.host, server.port,
                                    **_grid_kwargs())
    assert cold["evaluated"] == len(warm_cells)
    assert warm["evaluated"] == 0
    assert warm["cached"] == len(warm_cells)
    assert all(row["cached"] for row in warm_cells)
    assert all(row["source"] == "cached" for row in warm_cells)


def test_warm_response_bytes_are_the_rendered_records(server):
    """Each warm line is ``json.dumps(record, sort_keys=True)`` of the
    cell's row, in grid order, and the summary comes last."""
    grid = parallel.build_grid(WORKLOADS, ARCHS)
    client.sweep(server.host, server.port, **_grid_kwargs())
    lines = _raw_sweep(server, **_grid_kwargs())
    assert lines[:-1] == [_rendered(cell, index, "cached")
                          for index, cell in enumerate(grid)]
    summary = json.loads(lines[-1])
    assert list(summary) == ["summary"]
    assert _tallies(summary["summary"]) == dict(
        total=len(grid), evaluated=0, cached=len(grid), coalesced=0,
        rejected=0, failed=0)


def test_fully_cached_request_is_one_write(server, monkeypatch):
    """A warm request creates no per-cell task: the head, every row, the
    summary and the chunked terminator leave in one write."""
    client.sweep(server.host, server.port, **_grid_kwargs())
    writes, tasks = [], []
    real_write, real_task = asyncio.StreamWriter.write, asyncio.create_task

    def write(self, data):
        writes.append(data)
        return real_write(self, data)

    def create_task(coro, **kwargs):
        tasks.append(coro)
        return real_task(coro, **kwargs)

    monkeypatch.setattr(asyncio.StreamWriter, "write", write)
    monkeypatch.setattr(asyncio, "create_task", create_task)
    lines = _raw_sweep(server, **_grid_kwargs())
    assert len(lines) == len(parallel.build_grid(WORKLOADS, ARCHS)) + 1
    assert len(writes) == 1 and not tasks
    assert writes[0].startswith(b"HTTP/1.1 200 OK\r\n")
    assert writes[0].endswith(b"\r\n0\r\n\r\n")


def test_mixed_request_answers_cached_cells_first(server):
    """Stored cells come first, in grid order; then the evaluated ones."""
    client.sweep(server.host, server.port,
                 workloads=["dwconv"], archs=["plaid"])
    client.sweep(server.host, server.port,
                 workloads=["conv2x2"], archs=["st"])
    records = list(client.stream_sweep(server.host, server.port,
                                       timeout=120, **_grid_kwargs()))
    rows, summary = records[:-1], records[-1]["summary"]
    assert [(row["index"], row["source"]) for row in rows[:2]] \
        == [(1, "cached"), (2, "cached")]
    assert sorted(row["index"] for row in rows[2:]) == [0, 3]
    assert {row["source"] for row in rows[2:]} == {"evaluated"}
    assert all(row["status"] == "ok" for row in rows)
    assert _tallies(summary) == dict(total=4, evaluated=2, cached=2,
                                     coalesced=0, rejected=0, failed=0)


def test_unexpected_lookup_error_is_one_error_row(server, monkeypatch):
    """A cell whose lookup raises a bug (not a ReproError) becomes one
    error row; the rest of the request still answers."""
    client.sweep(server.host, server.port, **_grid_kwargs())
    real = harness.lookup

    def broken(workload, arch_key, mapper_key=None, **kwargs):
        if (workload, arch_key) == ("conv2x2", "st"):
            raise RuntimeError("lookup exploded")
        return real(workload, arch_key, mapper_key, **kwargs)

    monkeypatch.setattr(harness, "lookup", broken)
    cells, summary = client.sweep(server.host, server.port,
                                  **_grid_kwargs())
    bad = cells.pop(2)
    assert (bad["workload"], bad["arch"]) == ("conv2x2", "st")
    assert bad["status"] == "error"
    assert bad["error"] == "RuntimeError: lookup exploded"
    assert bad["source"] == "evaluated" and bad["cached"] is False
    assert all(row["status"] == "ok" and row["source"] == "cached"
               for row in cells)
    assert _tallies(summary) == dict(total=4, evaluated=1, cached=3,
                                     coalesced=0, rejected=0, failed=1)
    assert (server.counters.cells, server.counters.evaluated,
            server.counters.cached, server.counters.failed) == (8, 5, 3, 1)


def test_rows_follow_the_memoized_result(server):
    """Dropping the memos re-reads the store and serves the same bytes;
    a replaced result object is rendered afresh."""
    grid = parallel.build_grid(WORKLOADS, ARCHS)
    client.sweep(server.host, server.port, **_grid_kwargs())
    before = _raw_sweep(server, **_grid_kwargs())[:-1]
    clear_caches()
    configure_store(server.store)
    assert _raw_sweep(server, **_grid_kwargs())[:-1] == before
    result = harness.lookup(*grid[0].key())
    harness.seed_memo(dataclasses.replace(result, cycles=result.cycles + 1))
    after = _raw_sweep(server, **_grid_kwargs())[:-1]
    assert json.loads(after[0])["cycles"] == result.cycles + 1
    assert after[0] == _rendered(grid[0], 0, "cached")
    assert after[1:] == before[1:]


def test_store_hits_are_served_without_evaluation(tmp_path):
    """A store another process filled answers without evaluating."""
    configure_store(tmp_path / "shared")
    parallel.run_sweep(parallel.build_grid(WORKLOADS, ARCHS))
    clear_caches()

    srv = SweepServer(store=tmp_path / "shared", jobs=1,
                      use_processes=False).start_background()
    try:
        cells, summary = client.sweep(srv.host, srv.port, **_grid_kwargs())
    finally:
        srv.shutdown_background()
    assert summary["evaluated"] == 0
    assert summary["cached"] == len(cells)
    assert all(row["status"] == "ok" for row in cells)


def test_duplicate_cells_in_one_request_cost_one_evaluation(server):
    cells, summary = client.sweep(
        server.host, server.port,
        workloads=["dwconv", "dwconv"], archs=["st"])
    assert len(cells) == 2
    assert summary["evaluated"] == 1
    assert {row["status"] for row in cells} == {"ok"}
    assert cells[0]["cycles"] == cells[1]["cycles"]


def test_concurrent_identical_requests_share_evaluations(server):
    """N clients, same grid, at once: exactly one evaluation per cell."""
    grid = parallel.build_grid(WORKLOADS, ARCHS)
    summaries, failures = [], []

    def request():
        try:
            _cells, summary = client.sweep(server.host, server.port,
                                           timeout=120, **_grid_kwargs())
            summaries.append(summary)
        except BaseException as error:  # noqa: BLE001 — surface in assert
            failures.append(error)

    threads = [threading.Thread(target=request) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not failures
    assert len(summaries) == 4
    # The dedupe criterion: across all concurrent requests the grid was
    # evaluated exactly once per cell — later requests were answered
    # from the in-flight table or the freshly warmed cache.
    assert sum(s["evaluated"] for s in summaries) == len(grid)
    assert all(s["failed"] == 0 and s["rejected"] == 0 for s in summaries)
    # And a fully-warm follow-up costs nothing at all.
    _cells, warm = client.sweep(server.host, server.port, **_grid_kwargs())
    assert warm["evaluated"] == 0


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
def test_admission_control_rejects_overflow(tmp_path, monkeypatch):
    """jobs=1 + queue_limit=1: one evaluating, one waiting, rest busy."""
    real = parallel._run_cell_local

    def slow(cell, use_cache):
        time.sleep(0.15)
        return real(cell, use_cache)

    monkeypatch.setattr(parallel, "_run_cell_local", slow)
    srv = SweepServer(store=tmp_path / "store", jobs=1, queue_limit=1,
                      use_processes=False).start_background()
    try:
        cells, summary = client.sweep(
            srv.host, srv.port,
            workloads=["dwconv", "conv2x2", "gesum_u2"], archs=["st"])
        assert summary["evaluated"] == 2        # slot + queue
        assert summary["rejected"] == 1
        busy = [row for row in cells if row["source"] == "rejected"]
        assert len(busy) == 1
        assert busy[0]["status"] == "error"
        assert SERVER_BUSY in busy[0]["error"]
        # Rejections are not failures of the cell: retrying when load
        # drops evaluates it normally (never memoized, never stored).
        retry, retry_summary = client.sweep(
            srv.host, srv.port,
            workloads=["dwconv", "conv2x2", "gesum_u2"], archs=["st"])
        assert retry_summary["evaluated"] == 1
        assert retry_summary["rejected"] == 0
        assert all(row["status"] == "ok" for row in retry)
    finally:
        srv.shutdown_background()


# ---------------------------------------------------------------------------
# Failure rows
# ---------------------------------------------------------------------------
def test_unknown_workload_is_a_per_cell_error(server):
    cells, summary = client.sweep(
        server.host, server.port,
        workloads=["dwconv", "no_such_kernel"], archs=["st"])
    by_workload = {row["workload"]: row for row in cells}
    assert by_workload["dwconv"]["status"] == "ok"
    bad = by_workload["no_such_kernel"]
    assert bad["status"] == "error"
    assert "no_such_kernel" in bad["error"]
    assert summary["failed"] == 1
    assert summary["total"] == 2


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------
def test_healthz_and_stats(server):
    assert client.get_json(server.host, server.port, "/healthz") \
        == {"status": "ok"}
    client.sweep(server.host, server.port, **_grid_kwargs())
    stats = client.get_json(server.host, server.port, "/stats")
    grid_size = len(parallel.build_grid(WORKLOADS, ARCHS))
    assert stats["serve"]["requests"] == 1
    assert stats["serve"]["evaluated"] == grid_size
    assert stats["jobs"] == server.jobs
    assert stats["inflight"] == 0 and stats["queued"] == 0
    inventory = stats["store"]
    assert inventory["results"] == grid_size
    assert inventory["reader_skipped"] == 0


def test_stats_reports_damaged_entries(tmp_path):
    srv = SweepServer(store=tmp_path / "store", jobs=1,
                      use_processes=False).start_background()
    try:
        client.sweep(srv.host, srv.port, workloads=["dwconv"], archs=["st"])
        entry = next(p for p in (tmp_path / "store").iterdir())
        entry.write_text("{ damaged")
        (tmp_path / "store" / ("d" * 64 + ".json")).mkdir()
        stats = client.get_json(srv.host, srv.port, "/stats")
        assert stats["store"]["corrupt"] == 1
        assert stats["store"]["reader_skipped"] == 1
        assert stats["store"]["blocked"] == 1
    finally:
        srv.shutdown_background()


def test_stats_answers_after_the_store_directory_vanishes(server):
    """A store directory removed under a running server is reported in
    the ``/stats`` reply, and the connection stays open for the next."""
    shutil.rmtree(server.store.root)
    before = server.counters.connections
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        for _ in range(2):
            conn.request("GET", "/stats")
            response = conn.getresponse()
            stats = json.loads(response.read())
            assert response.status == 200
            assert stats["serve"] == dataclasses.asdict(server.counters)
            assert "no store directory" in stats["store"]["error"]
    finally:
        conn.close()
    assert server.counters.connections == before + 1


def test_unknown_route_is_404(server):
    with pytest.raises(ReproError, match="404"):
        client.get_json(server.host, server.port, "/nope")


def _exchange(srv, data: bytes) -> bytes:
    """Send ``data`` on a raw socket, half-close, and read until EOF."""
    with socket.create_connection((srv.host, srv.port), timeout=60) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        received = []
        while chunk := sock.recv(1 << 16):
            received.append(chunk)
    return b"".join(received)


def _head(response: bytes) -> tuple[str, list[str]]:
    """(status line, lower-cased header lines) of a raw response."""
    head = response.partition(b"\r\n\r\n")[0].decode("latin-1")
    status, *lines = head.split("\r\n")
    return status, [line.lower() for line in lines]


def test_chunked_request_body_is_refused(server):
    """A chunked body is not read as an empty spec (the 90-cell default
    grid): the request is refused and the connection closed, so the
    chunk bytes are never parsed as a request."""
    spec = json.dumps({"workloads": ["dwconv"], "archs": ["st"]}).encode()
    response = _exchange(server, (
        b"POST /sweep HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        + f"{len(spec):x}\r\n".encode() + spec + b"\r\n0\r\n\r\n"))
    status, headers = _head(response)
    assert status.startswith("HTTP/1.1 501 ")
    assert "connection: close" in headers
    assert response.count(b"HTTP/1.1 ") == 1
    assert server.counters.cells == 0


@pytest.mark.parametrize("length", [b"-1", b"+5", b"1_0", b"5a", b"", b"\xb2"])
def test_content_length_must_be_ascii_digits(server, length):
    """``int()`` accepts signs, underscores and non-ASCII digits; a
    negative length used to be read as no body at all."""
    response = _exchange(server, b"GET /healthz HTTP/1.1\r\nContent-Length: "
                         + length + b"\r\n\r\n" + b"x" * 10)
    status, headers = _head(response)
    assert status.startswith("HTTP/1.1 400 ")
    assert "connection: close" in headers
    assert b"content-length" in response


def test_oversized_header_line_is_431(server, caplog):
    """A header line over the stream limit is answered, not dropped with
    a traceback in the server log."""
    response = _exchange(server, b"GET /healthz HTTP/1.1\r\nX-Big: "
                         + b"a" * (70 << 10) + b"\r\n\r\n")
    status, headers = _head(response)
    assert status.startswith("HTTP/1.1 431 ")
    assert "connection: close" in headers
    assert not [record for record in caplog.records
                if record.levelno >= logging.ERROR]


# ---------------------------------------------------------------------------
# Persistent connections
# ---------------------------------------------------------------------------
def _sweep_request(spec: dict, header: bytes = b"") -> bytes:
    body = json.dumps(spec).encode()
    return (b"POST /sweep HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n" + header + b"\r\n" + body)


def _dechunk(data: bytes) -> tuple[bytes, bytes]:
    """(decoded chunked body at the start of ``data``, what follows)."""
    body = b""
    while True:
        size, _, data = data.partition(b"\r\n")
        size = int(size, 16)
        if size == 0:
            assert data.startswith(b"\r\n")     # no trailer fields
            return body, data[2:]
        assert data[size:size + 2] == b"\r\n"
        body, data = body + data[:size], data[size + 2:]


def test_one_connection_answers_requests_in_turn(server):
    """A sweep and a health check sent at once on one socket get two
    complete responses, with unchanged bodies; the client's EOF after
    them ends the connection without a third (error) response."""
    grid = parallel.build_grid(WORKLOADS, ARCHS)
    client.sweep(server.host, server.port, **_grid_kwargs())
    before = server.counters.connections
    response = _exchange(server, _sweep_request(_grid_kwargs())
                         + b"GET /healthz HTTP/1.1\r\n\r\n")
    status, headers = _head(response)
    assert status == "HTTP/1.1 200 OK"
    assert headers == ["content-type: application/x-ndjson",
                       "transfer-encoding: chunked"]
    body, rest = _dechunk(response.partition(b"\r\n\r\n")[2])
    lines = body.splitlines()
    assert lines[:-1] == [_rendered(cell, index, "cached")
                          for index, cell in enumerate(grid)]
    assert json.loads(lines[-1])["summary"]["cached"] == len(grid)
    assert rest == (b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 16\r\n\r\n"
                    b'{"status": "ok"}')
    assert server.counters.connections == before + 1


@pytest.mark.parametrize("request_bytes", [
    b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    b"GET /healthz HTTP/1.0\r\n\r\n",
    _sweep_request({"workloads": ["dwconv"], "archs": ["st"]},
                   b"Connection: keep-alive, Close\r\n"),
], ids=["close", "http-1.0", "sweep-close"])
def test_closing_requests_get_one_response(server, request_bytes):
    """``Connection: close`` and HTTP/1.0 requests get one response that
    says it closes, then EOF: the request behind them is not answered."""
    response = _exchange(server,
                         request_bytes + b"GET /healthz HTTP/1.1\r\n\r\n")
    status, headers = _head(response)
    assert status == "HTTP/1.1 200 OK"
    assert "connection: close" in headers
    assert response.count(b"HTTP/1.1 ") == 1


def test_client_reuses_one_connection(server):
    """Sweeps, a failed sweep and a ``/stats`` call from one client ride
    one connection."""
    for _ in range(3):
        client.sweep(server.host, server.port, **_grid_kwargs())
    with pytest.raises(ReproError, match="400"):
        client.sweep(server.host, server.port, workloads=[])
    stats = client.get_json(server.host, server.port, "/stats")
    assert stats["serve"]["requests"] == 3
    assert stats["serve"]["connections"] == 1


def test_abandoned_stream_closes_its_connection(server):
    """A stream left before its end is not pooled: its unread rows must
    never be read as the next response."""
    client.sweep(server.host, server.port, **_grid_kwargs())
    stream = client.stream_sweep(server.host, server.port, **_grid_kwargs())
    assert next(stream)["index"] == 0
    stream.close()
    assert not client._pool.get((server.host, server.port))
    cells, summary = client.sweep(server.host, server.port,
                                  **_grid_kwargs())
    assert summary["cached"] == len(cells) == 4
    assert server.counters.connections == 2


def test_stale_pooled_connection_is_retried(tmp_path):
    """A pooled connection to a server that has since restarted fails
    before any status line; the request is retried on a fresh one."""
    first = SweepServer(store=tmp_path / "store", jobs=1,
                        use_processes=False).start_background()
    host, port = first.host, first.port
    try:
        client.sweep(host, port, workloads=["dwconv"], archs=["st"])
    finally:
        first.shutdown_background()
    assert client._pool[(host, port)]
    second = SweepServer(store=tmp_path / "store", port=port, jobs=1,
                         use_processes=False).start_background()
    try:
        cells, summary = client.sweep(host, port, workloads=["dwconv"],
                                      archs=["st"])
        assert summary["cached"] == 1 and cells[0]["status"] == "ok"
        assert second.counters.connections == 1
    finally:
        second.shutdown_background()


def test_concurrent_client_threads_get_their_own_connections(tmp_path,
                                                             monkeypatch):
    """Requests in flight at once from three threads use three
    connections; once back in the pool, later requests reuse them."""
    real = parallel._run_cell_local
    release = threading.Event()

    def gated(cell, use_cache):
        release.wait(timeout=60)
        return real(cell, use_cache)

    monkeypatch.setattr(parallel, "_run_cell_local", gated)
    srv = SweepServer(store=tmp_path / "store", jobs=1,
                      use_processes=False).start_background()
    results = []

    def request():
        results.append(client.sweep(srv.host, srv.port, timeout=60,
                                    workloads=["dwconv"], archs=["st"]))

    threads = [threading.Thread(target=request) for _ in range(3)]
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        while srv.counters.requests < len(threads):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        release.set()
        for thread in threads:
            thread.join(timeout=60)
        assert sorted(summary["evaluated"] for _cells, summary in results) \
            == [0, 0, 1]
        assert all(cells[0]["status"] == "ok" for cells, _summary in results)
        assert srv.counters.connections == len(threads)
        for _ in range(len(threads)):
            client.get_json(srv.host, srv.port, "/healthz")
        assert srv.counters.connections == len(threads)
    finally:
        release.set()
        srv.shutdown_background()


def test_shutdown_closes_an_idle_connection(server, caplog):
    """Stopping does not wait for an idle keep-alive client to hang up
    (``wait_closed`` waits for every connection since Python 3.12), and
    leaves no traceback."""
    client.sweep(server.host, server.port, workloads=["dwconv"],
                 archs=["st"])
    assert client._pool[(server.host, server.port)]
    start = time.monotonic()
    server.shutdown_background()
    assert time.monotonic() - start < 1
    assert not [record for record in caplog.records
                if record.levelno >= logging.ERROR]


def test_store_on_regular_file_is_a_repro_error(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("plain file")
    with pytest.raises(ReproError, match="not a directory"):
        SweepServer(store=target)


def test_cells_stream_before_the_request_finishes(tmp_path, monkeypatch):
    """NDJSON rows arrive as cells land, not after the whole grid."""
    real = parallel._run_cell_local
    release = threading.Event()

    def gated(cell, use_cache):
        if cell.workload == "conv2x2":
            release.wait(timeout=60)
        return real(cell, use_cache)

    monkeypatch.setattr(parallel, "_run_cell_local", gated)
    srv = SweepServer(store=tmp_path / "store", jobs=2,
                      use_processes=False).start_background()
    try:
        stream = client.stream_sweep(
            srv.host, srv.port, timeout=120,
            workloads=["dwconv", "conv2x2"], archs=["st"])
        first = next(stream)
        assert first["workload"] == "dwconv"    # landed while conv2x2 hangs
        release.set()
        rest = list(stream)
        assert {row.get("workload") for row in rest if "summary" not in row} \
            == {"conv2x2"}
    finally:
        release.set()
        srv.shutdown_background()


def test_hung_up_client_leaves_shared_evaluations_running(tmp_path,
                                                         monkeypatch):
    """A client that hangs up mid-stream cancels only its own waits: an
    evaluation another request joined still answers that request."""
    real = parallel._run_cell_local
    gates = {"conv2x2": threading.Event(), "dwconv": threading.Event()}

    def gated(cell, use_cache):
        gates[cell.workload].wait(timeout=60)
        return real(cell, use_cache)

    monkeypatch.setattr(parallel, "_run_cell_local", gated)
    srv = SweepServer(store=tmp_path / "store", jobs=2,
                      use_processes=False).start_background()
    answers = []
    joiner = threading.Thread(target=lambda: answers.append(client.sweep(
        srv.host, srv.port, timeout=60, workloads=["conv2x2"],
        archs=["st"])))
    try:
        joiner.start()
        deadline = time.monotonic() + 30
        while client.get_json(srv.host, srv.port, "/stats")["inflight"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # This request joins conv2x2's evaluation and starts dwconv's;
        # it hangs up (a reset) once the response head arrives.
        body = json.dumps({"workloads": ["conv2x2", "dwconv"],
                           "archs": ["st"]}).encode()
        with socket.create_connection((srv.host, srv.port),
                                      timeout=60) as sock:
            sock.sendall(b"POST /sweep HTTP/1.1\r\nContent-Length: "
                         + str(len(body)).encode() + b"\r\n\r\n" + body)
            assert sock.recv(1 << 16).startswith(b"HTTP/1.1 200 OK")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        time.sleep(0.2)
        gates["dwconv"].set()       # its row finds the connection gone
        while srv.counters.evaluated < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.2)
        gates["conv2x2"].set()
        joiner.join(timeout=60)
        assert not joiner.is_alive()
        [(cells, summary)] = answers
        assert [row["status"] for row in cells] == ["ok"]
        assert summary["evaluated"] == 1 and summary["failed"] == 0
    finally:
        for gate in gates.values():
            gate.set()
        srv.shutdown_background()


# ---------------------------------------------------------------------------
# Process lifecycle: SIGTERM releases the worker pool
# ---------------------------------------------------------------------------
def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads worker pids from /proc")
def test_sigterm_shuts_the_worker_pool_down(tmp_path):
    """``repro serve --jobs 2`` killed with SIGTERM (what ``kill`` sends)
    stops like Ctrl-C: every pool worker exits with the server."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--no-cache", "--jobs", "2"],
        stdout=subprocess.PIPE, text=True, env=env, cwd=tmp_path)
    workers: list[int] = []
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        assert ready, "server printed no banner within 30s"
        banner = proc.stdout.readline()
        port = int(banner.split("http://127.0.0.1:")[1].split()[0])
        _cells, summary = client.sweep("127.0.0.1", port,
                                       workloads=["dwconv"], archs=["plaid"])
        assert summary["evaluated"] == 1, summary
        task = f"/proc/{proc.pid}/task/{proc.pid}/children"
        workers = [int(pid) for pid in Path(task).read_text().split()]
        assert len(workers) == 2, workers
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        deadline = time.monotonic() + 30
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def test_failed_start_releases_the_worker_pool():
    """A server that cannot bind its address (here: a taken port) raises
    a ReproError naming it and leaves none of its pool workers behind."""
    import multiprocessing

    before = set(multiprocessing.active_children())
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        with pytest.raises(ReproError, match=f"cannot listen on "
                           f"127.0.0.1:{port}: .*address already in use"):
            SweepServer(port=port, jobs=2).start_background()
    assert set(multiprocessing.active_children()) <= before


# ---------------------------------------------------------------------------
# HTTP/1.0 clients and connections closed by the server
# ---------------------------------------------------------------------------
def test_http10_sweep_is_sent_unframed(server):
    """An HTTP/1.0 client knows no chunked coding: its ``/sweep`` reply
    carries no ``Transfer-Encoding``, and the body is the rows and the
    summary as written, ended by EOF."""
    grid = parallel.build_grid(WORKLOADS, ARCHS)
    spec = json.dumps(_grid_kwargs()).encode()
    request = (b"POST /sweep HTTP/1.0\r\nContent-Length: "
               + str(len(spec)).encode() + b"\r\n\r\n" + spec)
    for source in ("evaluated", "cached"):
        response = _exchange(server, request)
        status, headers = _head(response)
        assert status == "HTTP/1.1 200 OK"
        assert headers == ["content-type: application/x-ndjson",
                           "connection: close"]
        lines = response.partition(b"\r\n\r\n")[2].split(b"\n")
        assert lines[-1] == b""
        rows, summary = lines[:-2], json.loads(lines[-2])["summary"]
        if source == "cached":
            assert rows == [_rendered(cell, index, "cached")
                            for index, cell in enumerate(grid)]
        assert sorted(json.loads(row)["index"] for row in rows) \
            == list(range(len(grid)))
        assert summary[source] == summary["total"] == len(grid)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="forks the evaluation pool's workers")
def test_closed_connection_reaches_eof_after_a_cold_request(tmp_path):
    """The pool's workers are forked when the server starts, not at the
    first cold request, so they do not hold that request's socket: the
    connection the server closes after it reaches EOF at once."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--no-cache", "--jobs", "1"],
        stdout=subprocess.PIPE, text=True, env=env, cwd=tmp_path)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        assert ready, "server printed no banner within 30s"
        port = int(proc.stdout.readline().split("http://127.0.0.1:")[1]
                   .split()[0])
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=120) as sock:
            sock.sendall(_sweep_request(
                {"workloads": ["dwconv"], "archs": ["st"]},
                b"Connection: close\r\n"))
            response = b""
            while not response.endswith(b"\r\n0\r\n\r\n"):
                data = sock.recv(1 << 16)
                assert data, "connection closed before the last chunk"
                response += data
            sock.settimeout(5)
            assert sock.recv(1) == b""
        lines = _dechunk(response.partition(b"\r\n\r\n")[2])[0].splitlines()
        assert json.loads(lines[-1])["summary"]["evaluated"] == 1
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
