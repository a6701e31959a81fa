"""Long-running sweep/result service in front of a :class:`ResultStore`.

``repro serve`` turns the batch sweep tooling into a shared service: a
thin asyncio HTTP/JSON server that owns one persistent result store.
Clients POST a grid spec — the same workloads/archs/mapper vocabulary as
``repro sweep`` — to ``/sweep`` and stream per-cell results back as
NDJSON the moment each cell lands, instead of waiting for the whole
grid.  The value proposition is the shared cache: once *any* client has
paid for a cell, every later request (and every concurrent duplicate)
gets it for the price of a store read.

Three layers keep traffic off the mappers:

* **Store front.**  Every cell first walks the same parent-side lookup
  cascade as :func:`repro.eval.parallel.run_sweep` — in-process memo,
  failure memo, persistent store — and cache hits are served without
  touching admission control at all.
* **In-flight dedupe.**  Cold cells enter ``_inflight``, a table of
  evaluation tasks keyed by the cell's store fingerprint.  N concurrent
  requests for the same cell join the one task, so identical concurrent
  grids cost exactly one evaluation per cell.  The tasks are
  independent of any request (``asyncio.create_task``): a client
  hanging up never cancels an evaluation another client is waiting on,
  and the result still lands in the store.
* **Admission control.**  Evaluations acquire one of ``jobs`` slots; at
  most ``queue_limit`` cells may wait for a slot.  Beyond that the cell
  is answered immediately with a structured ``ServerBusy`` error row —
  heavy cold traffic degrades loudly instead of queueing unboundedly.

Evaluation itself reuses the sweep engine verbatim: a worker-process
pool runs :func:`repro.eval.parallel._worker_evaluate` with the same
task shape as ``run_sweep``, and the parent-side memo/failure seeding is
the same code path — so served results are bit-identical to a local
``repro sweep`` of the same grid: same fingerprints, same store bytes,
and a served store stays mergeable with shard stores.

Wire format: ``POST /sweep`` answers ``200`` with chunked
``application/x-ndjson`` — one JSON object per cell (the
:data:`~repro.eval.reporting.SWEEP_HEADERS` fields plus ``index`` for
grid position and ``source`` for how the cell was satisfied), cells in
completion order, then a final ``{"summary": ...}`` line.  ``GET
/healthz`` and ``GET /stats`` answer plain JSON.  The server assumes
ownership of the process-global harness configuration
(:func:`repro.eval.harness.configure_store`) while it runs.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.eval import harness, parallel
from repro.eval.cache import CachedFailure, ResultStore, result_from_dict
from repro.eval.parallel import CellOutcome, SweepCell
from repro.eval.reporting import SWEEP_HEADERS, cell_row

#: Grid specs are small; anything bigger than this is a confused client.
MAX_BODY_BYTES = 1 << 20

#: Default bound on cells waiting for an evaluation slot.
DEFAULT_QUEUE_LIMIT = 32

#: ``error_type`` of an admission-control rejection row.  Deliberately
#: not a ReproError name: rejections must never be mistaken for
#: deterministic evaluation failures (they are not memoized and not
#: written to the store — the cell stays retryable).
SERVER_BUSY = "ServerBusy"


@dataclass
class ServeCounters:
    """Lifetime totals across every request this server has answered."""

    requests: int = 0
    cells: int = 0
    evaluated: int = 0      # cells this server dispatched an evaluation for
    cached: int = 0         # served from memo / failure memo / store
    coalesced: int = 0      # joined another request's in-flight evaluation
    rejected: int = 0       # refused by admission control (ServerBusy)
    failed: int = 0         # cells answered with an error row (incl. rejects)


# ---------------------------------------------------------------------------
# Minimal HTTP plumbing (requests are tiny; responses stream)
# ---------------------------------------------------------------------------
class _BadRequest(Exception):
    """Malformed HTTP from a client; answered with its status line."""

    def __init__(self, status: str, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_request(reader: asyncio.StreamReader
                        ) -> tuple[str, str, dict, bytes]:
    """Parse one HTTP/1.1 request: (method, target, headers, body)."""
    try:
        line = await reader.readline()
    except ValueError as error:         # line longer than the stream limit
        raise _BadRequest("400 Bad Request",
                          f"request line too long: {error}") from None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest("400 Bad Request",
                          f"malformed request line: {line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _BadRequest("400 Bad Request",
                          "content-length is not an integer") from None
    if length > MAX_BODY_BYTES:
        raise _BadRequest("413 Payload Too Large",
                          f"grid spec exceeds {MAX_BODY_BYTES} bytes")
    body = b""
    if length > 0:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise _BadRequest(
                "400 Bad Request",
                f"body truncated ({len(error.partial)}/{length} bytes)"
            ) from None
    return method.upper(), target, headers, body


def _write_json(writer: asyncio.StreamWriter, status: str,
                payload: dict) -> None:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (f"HTTP/1.1 {status}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n")
    writer.write(head.encode("latin-1") + body)


def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")


def _parse_grid_spec(body: bytes) -> list[SweepCell]:
    """Grid spec JSON -> cells, with ``repro sweep``'s vocabulary.

    ``{"workloads": [...], "archs": [...], "mapper": "..."}`` — every
    key optional; omitted keys take the sweep defaults (all registered
    workloads, the paper's three fabrics, each fabric's default mapper).
    Raises :class:`ReproError` (answered as 400) on malformed specs.
    """
    try:
        spec = json.loads(body.decode("utf-8")) if body.strip() else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ReproError(
            f"grid spec is not valid JSON: {error}") from None
    if not isinstance(spec, dict):
        raise ReproError("grid spec must be a JSON object")
    unknown = sorted(set(spec) - {"workloads", "archs", "mapper"})
    if unknown:
        raise ReproError(
            f"unknown grid spec keys {unknown} "
            "(expected: workloads, archs, mapper)")

    def name_list(key: str) -> "list[str] | None":
        value = spec.get(key)
        if value is None:
            return None
        if (not isinstance(value, list) or not value
                or not all(isinstance(item, str) for item in value)):
            raise ReproError(
                f"grid spec key '{key}' must be a non-empty list of strings")
        return value

    mapper = spec.get("mapper")
    if mapper is not None and not isinstance(mapper, str):
        raise ReproError("grid spec key 'mapper' must be a string")
    # build_grid resolves default mappers, so an unknown arch key
    # surfaces here as a ReproError -> 400, same words as `repro sweep`.
    return parallel.build_grid(name_list("workloads"), name_list("archs"),
                               mapper)


# ---------------------------------------------------------------------------
# The server
# ---------------------------------------------------------------------------
@dataclass
class SweepServer:
    """One store, one evaluation pool, many streaming clients.

    ``store`` may be a :class:`ResultStore`, a directory path, or
    ``None`` (no persistence: memo-only dedupe, ``repro serve
    --no-cache``).  ``use_processes=False`` evaluates in threads of this
    process instead of a worker pool — the deterministic mode the tests
    use to inject slow/failing evaluations.
    """

    store: "ResultStore | None" = None
    host: str = "127.0.0.1"
    port: int = 0
    jobs: int = 1
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    use_processes: bool = True
    counters: ServeCounters = field(default_factory=ServeCounters)

    def __post_init__(self) -> None:
        if self.store is not None and not isinstance(self.store, ResultStore):
            self.store = ResultStore(root=Path(self.store))
        self.jobs = max(1, int(self.jobs))
        self.queue_limit = max(0, int(self.queue_limit))
        self._inflight: dict = {}       # dedupe key -> evaluation task
        self._queued = 0                # cells waiting for an eval slot
        self._loop = None
        self._server = None
        self._pool = None
        self._stop_event = None
        self._eval_slots = None
        self._thread = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "SweepServer":
        """Bind and start serving; ``self.port`` becomes the real port."""
        # The server owns the harness configuration for its lifetime:
        # the memo and the store must agree with what the worker pool is
        # told.
        harness.configure_store(
            str(self.store.root) if self.store is not None else None)
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._eval_slots = asyncio.Semaphore(self.jobs)
        if self.use_processes:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Stop accepting, cancel in-flight work, release the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._inflight.values()):
            task.cancel()
        self._inflight.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    async def _serve_until_stopped(self, ready=None) -> None:
        await self.start()
        if ready is not None:
            ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    def run(self, announce=None) -> None:
        """Blocking entry point (`repro serve`): serve until Ctrl-C.

        ``announce(server)`` is called once the socket is bound — the
        CLI prints the banner there, so ``--port 0`` announces the real
        ephemeral port.
        """
        async def main() -> None:
            await self.start()
            if announce is not None:
                announce(self)
            try:
                await self._stop_event.wait()
            finally:
                await self.stop()

        try:
            asyncio.run(main())
        except KeyboardInterrupt:
            pass

    def start_background(self) -> "SweepServer":
        """Run the server in a daemon thread (tests, benchmarks, examples).

        Blocks until the socket is bound, so ``self.port`` is valid on
        return.  Pair with :meth:`shutdown_background`.
        """
        import threading

        ready = threading.Event()
        startup_error: list[BaseException] = []

        def runner() -> None:
            try:
                asyncio.run(self._serve_until_stopped(ready))
            except BaseException as error:      # noqa: BLE001 — report
                startup_error.append(error)     # startup failures to the
                ready.set()                     # waiting foreground thread

        self._thread = threading.Thread(
            target=runner, name="repro-serve", daemon=True)
        self._thread.start()
        if not ready.wait(timeout=30):
            raise ReproError("serve: server did not start within 30s")
        if startup_error:
            raise ReproError(
                f"serve: server failed to start: {startup_error[0]}")
        return self

    def shutdown_background(self) -> None:
        """Stop a :meth:`start_background` server and join its thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass        # loop already closed (server crashed)
        self._thread.join(timeout=30)
        self._thread = None

    # -- connection handling ----------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, target, _headers, body = await _read_request(reader)
            except _BadRequest as error:
                _write_json(writer, error.status, {"error": str(error)})
                await writer.drain()
                return
            if method == "GET" and target == "/healthz":
                _write_json(writer, "200 OK", {"status": "ok"})
            elif method == "GET" and target == "/stats":
                _write_json(writer, "200 OK", self._stats_payload())
            elif method == "POST" and target == "/sweep":
                await self._handle_sweep(writer, body)
            else:
                _write_json(writer, "404 Not Found",
                            {"error": f"no route for {method} {target}"})
            await writer.drain()
        except (ConnectionError, TimeoutError, OSError):
            pass            # client went away mid-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _stats_payload(self) -> dict:
        payload = {
            "serve": asdict(self.counters),
            "inflight": len(self._inflight),
            "queued": self._queued,
            "jobs": self.jobs,
            "queue_limit": self.queue_limit,
            "store": None,
        }
        if self.store is not None:
            from repro.eval.distributed import inventory

            inv = asdict(inventory(self.store))
            inv["by_schema"] = {
                str(schema): count
                for schema, count in inv["by_schema"].items()}
            payload["store"] = inv
        return payload

    async def _handle_sweep(self, writer: asyncio.StreamWriter,
                            body: bytes) -> None:
        try:
            grid = _parse_grid_spec(body)
        except ReproError as error:
            _write_json(writer, "400 Bad Request", {"error": str(error)})
            return
        self.counters.requests += 1
        start = time.perf_counter()
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Transfer-Encoding: chunked\r\n"
                     b"Connection: close\r\n\r\n")
        tallies = {"evaluated": 0, "cached": 0, "coalesced": 0,
                   "rejected": 0, "failed": 0}
        tasks = [asyncio.create_task(self._serve_cell(index, cell))
                 for index, cell in enumerate(grid)]
        try:
            for next_done in asyncio.as_completed(tasks):
                index, outcome, source = await next_done
                tallies[source] += 1
                if not outcome.ok:
                    tallies["failed"] += 1
                record = dict(zip(SWEEP_HEADERS, cell_row(outcome)))
                # A coalesced/store-served cell did not cost *this*
                # request an evaluation — same meaning as the sweep
                # exporter's column, extended to the service.
                record["cached"] = source != "evaluated"
                record["index"] = index
                record["source"] = source
                _write_chunk(
                    writer,
                    (json.dumps(record, sort_keys=True) + "\n").encode())
                await writer.drain()
        except (ConnectionError, TimeoutError, OSError):
            # Client hung up mid-stream: stop the request's *joiner*
            # tasks.  In-flight evaluations are request-independent and
            # keep running — their results still land in the store for
            # the next client.
            for task in tasks:
                task.cancel()
            raise
        summary = {"summary": dict(
            total=len(grid), seconds=time.perf_counter() - start,
            **tallies)}
        _write_chunk(writer,
                     (json.dumps(summary, sort_keys=True) + "\n").encode())
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- per-cell resolution ----------------------------------------------
    async def _serve_cell(self, index: int, cell: SweepCell
                          ) -> tuple[int, CellOutcome, str]:
        try:
            outcome, source = await self._resolve_cell(cell)
        except asyncio.CancelledError:
            raise
        except Exception as error:     # noqa: BLE001 — the sweep contract
            # holds for the service too: one broken cell must never kill
            # a whole request; it becomes a structured error row.
            outcome = CellOutcome(cell=cell, error=str(error),
                                  error_type=type(error).__name__)
            source = "evaluated"
        if outcome.error_type == SERVER_BUSY:
            source = "rejected"
        self.counters.cells += 1
        getattr_count = getattr(self.counters, source)
        setattr(self.counters, source, getattr_count + 1)
        if not outcome.ok:
            self.counters.failed += 1
        return index, outcome, source

    async def _resolve_cell(self, cell: SweepCell
                            ) -> tuple[CellOutcome, str]:
        hit = self._lookup(cell)
        if hit is not None:
            return hit, "cached"
        key = cell.key()
        dedupe_key = harness.try_fingerprint(*key) or ("cell",) + key
        task = self._inflight.get(dedupe_key)
        if task is None:
            # The evaluation is its own task, not a child of this
            # request: a client disconnect cancels the *await* below,
            # never the evaluation other requests may have joined.
            task = asyncio.create_task(
                self._evaluate_admitted(cell, dedupe_key))
            self._inflight[dedupe_key] = task
            return await task, "evaluated"
        return await task, "coalesced"

    def _lookup(self, cell: SweepCell) -> "CellOutcome | None":
        """The parent-side cache cascade of ``run_sweep``, verbatim:
        memo -> failure memo -> store (results, cached failures, and the
        unknown-workload fingerprint error)."""
        key = cell.key()
        result = harness.memo_lookup(*key)
        if result is not None:
            harness.EVAL_STATS.memo_hits += 1
            return CellOutcome(cell=cell, result=result, from_cache=True)
        failed = harness.failure_for(*key)
        if failed is not None:
            harness.EVAL_STATS.memo_hits += 1
            return CellOutcome(cell=cell, error=str(failed),
                               error_type=type(failed).__name__)
        if self.store is not None:
            try:
                stored = self.store.get(
                    harness.evaluation_fingerprint(*key))
            except ReproError as error:     # e.g. unknown workload name
                harness.seed_failure(*key, error)
                return CellOutcome(cell=cell, error=str(error),
                                   error_type=type(error).__name__)
            if isinstance(stored, CachedFailure):
                error = stored.to_error()
                harness.seed_failure(*key, error)
                harness.EVAL_STATS.store_hits += 1
                return CellOutcome(cell=cell, error=str(error),
                                   error_type=type(error).__name__)
            if stored is not None:
                harness.seed_memo(stored)
                harness.EVAL_STATS.store_hits += 1
                return CellOutcome(cell=cell, result=stored,
                                   from_cache=True)
        return None

    async def _evaluate_admitted(self, cell: SweepCell, dedupe_key
                                 ) -> CellOutcome:
        """Admission control + dispatch for one cold cell."""
        try:
            if self._queued >= self.queue_limit:
                return CellOutcome(
                    cell=cell,
                    error=(f"evaluation queue is full "
                           f"({self.queue_limit} cells waiting); "
                           "retry when load drops"),
                    error_type=SERVER_BUSY)
            self._queued += 1
            try:
                await self._eval_slots.acquire()
            finally:
                self._queued -= 1
            try:
                return await self._dispatch(cell)
            finally:
                self._eval_slots.release()
        finally:
            self._inflight.pop(dedupe_key, None)

    async def _dispatch(self, cell: SweepCell) -> CellOutcome:
        """Evaluate via the sweep worker pool (or inline threads)."""
        if self._pool is None:
            return await self._dispatch_inline(cell)
        store_root = str(self.store.root) if self.store is not None else None
        task = (0, cell.key(), store_root)
        try:
            (_index, payload, error, error_type, seconds,
             _stats_delta) = await self._loop.run_in_executor(
                self._pool, parallel._worker_evaluate, task)
        except BrokenProcessPool:
            # A broken pool must never fail the request: degrade to
            # in-process evaluation.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            return await self._dispatch_inline(cell)
        # Parent-side seeding identical to run_sweep's pool drain.
        if payload is None:
            outcome = CellOutcome(cell=cell, error=error,
                                  error_type=error_type, seconds=seconds)
            failure = CachedFailure(error_type or "", error or "").to_error()
            if type(failure).__name__ == (error_type or ""):
                harness.seed_failure(*cell.key(), failure)
            return outcome
        result = result_from_dict(payload)
        harness.seed_memo(result)
        harness.EVAL_STATS.computed += 1
        return CellOutcome(cell=cell, result=result, seconds=seconds)

    async def _dispatch_inline(self, cell: SweepCell) -> CellOutcome:
        return await self._loop.run_in_executor(
            None, parallel._run_cell_local, cell, self.store is not None)
