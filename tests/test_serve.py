"""The shared sweep/result service: bit-identity with local sweeps,
in-flight dedupe, admission control, and the HTTP surface.

The serve contract (:mod:`repro.eval.serve`): served results are
bit-identical to ``repro sweep`` on the same grid (same fingerprints,
same store bytes), N concurrent identical requests cost exactly one
evaluation per cell, a fully-warm request evaluates nothing, and
overload degrades to structured ``ServerBusy`` rows instead of
unbounded queueing.
"""

import filecmp
import json
import threading
import time

import pytest

from repro.errors import ReproError
from repro.eval import client, harness, parallel
from repro.eval.harness import clear_caches, configure_store
from repro.eval.reporting import SWEEP_HEADERS, sweep_rows
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
        stats = client.get_json(srv.host, srv.port, "/stats")
        assert stats["store"]["corrupt"] == 1
        assert stats["store"]["reader_skipped"] == 1
    finally:
        srv.shutdown_background()


def test_unknown_route_is_404(server):
    with pytest.raises(ReproError, match="404"):
        client.get_json(server.host, server.port, "/nope")


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
