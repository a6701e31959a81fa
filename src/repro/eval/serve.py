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

* **Store front.**  Every cell is first looked up through
  :func:`repro.eval.harness.lookup` — in-process memo, failure memo,
  persistent store — the one cache cascade every sweep path shares;
  cache hits are answered inline, before any task exists, without
  touching admission control at all.
* **In-flight dedupe.**  Cold cells enter ``_inflight``, a table of
  evaluation tasks keyed by the cell's store fingerprint.  N concurrent
  requests for the same cell join the one task, so identical concurrent
  grids cost exactly one evaluation per cell.  The tasks are
  independent of any request (``asyncio.create_task``) and joined
  through ``asyncio.shield``: a client hanging up never cancels an
  evaluation another client is waiting on, and the result still lands
  in the store.
* **Admission control.**  Evaluations acquire one of ``jobs`` slots; at
  most ``queue_limit`` cells may wait for a slot.  Beyond that the cell
  is answered immediately with a structured ``ServerBusy`` error row —
  heavy cold traffic degrades loudly instead of queueing unboundedly.

Evaluation goes through the sweep engine's own functions: a
worker-process pool runs :func:`repro.eval.parallel._worker_evaluate`
with the same task shape as ``run_sweep``, and
:func:`repro.eval.parallel.absorb_reply` installs each reply in the
memos — so served results are bit-identical to a local ``repro sweep``
of the same grid: same fingerprints, same store bytes, and a served
store stays mergeable with shard stores.

Wire format: ``POST /sweep`` answers ``200`` with chunked
``application/x-ndjson`` — one JSON object per cell (the
:data:`~repro.eval.reporting.SWEEP_HEADERS` fields plus ``index`` for
grid position and ``source`` for how the cell was satisfied), then a
final ``{"summary": ...}`` line.  Cells a cache layer answers come
first, in grid order, in the same write as the response head, so a
fully cached grid is one write; the rest follow one chunk each, in
completion order, as they land.  An HTTP/1.0 client, which knows no
chunked coding, gets the same lines unframed, ended by the close its
request gets.  ``GET /healthz`` and ``GET /stats`` answer plain JSON.
Connections persist (HTTP/1.1 keep-alive): one connection answers a
client's requests in turn until the client closes it, or a request
says ``Connection: close`` or is HTTP/1.0, or cannot be framed — a
body sent with a ``Transfer-Encoding`` (``501``), a ``Content-Length``
that is not ASCII digits (``400``), a header line over the 64 KiB
stream limit (``431``).  The response that ends a connection says
``Connection: close``; no other does.  :meth:`SweepServer.stop` closes
the connections that wait for a request.  The evaluation pool's
workers are forked when the server starts, so they hold no client's
connection open.  The server assumes ownership of the process-global
harness configuration (:func:`repro.eval.harness.configure_store`)
while it runs.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.eval import harness, parallel
from repro.eval.cache import ResultStore
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

    connections: int = 0    # TCP connections accepted
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
                        ) -> "tuple[str, str, bytes, bool, bool] | None":
    """Parse one HTTP/1.1 request: ``(method, target, body, close,
    chunked)``, where ``close`` says the connection ends after the
    response (an HTTP/1.0 request, or ``Connection: close``) and
    ``chunked`` that the client reads the chunked transfer coding (an
    HTTP/1.1 request).  ``None`` when the client closed the connection
    before sending a request line."""
    try:
        line = await reader.readline()
    except ValueError as error:         # line longer than the stream limit
        raise _BadRequest("400 Bad Request",
                          f"request line too long: {error}") from None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest("400 Bad Request",
                          f"malformed request line: {line!r}")
    method, target, version = parts
    headers: dict[str, str] = {}
    while True:
        try:
            raw = await reader.readline()
        except ValueError as error:
            raise _BadRequest("431 Request Header Fields Too Large",
                              f"header line too long: {error}") from None
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise _BadRequest("400 Bad Request", "request head truncated")
        name, _, value = raw.decode("latin-1").partition(":")
        name, value = name.strip().lower(), value.strip()
        # A repeated field is one comma-joined list (RFC 9110 5.3), so a
        # repeated Content-Length fails the digit check below.
        headers[name] = f"{headers[name]}, {value}" if name in headers \
            else value
    # Only a Content-Length body is read: the bytes of any other framing
    # would be parsed as the next request on the connection.
    if "transfer-encoding" in headers:
        raise _BadRequest("501 Not Implemented",
                          "request bodies need a Content-Length, "
                          "not a Transfer-Encoding")
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        raise _BadRequest("400 Bad Request",
                          f"content-length is not a decimal integer: "
                          f"{length!r}")
    length = int(length)
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
    chunked = version == "HTTP/1.1"
    close = not chunked or "close" in {
        token.strip().lower()
        for token in headers.get("connection", "").split(",")}
    return method.upper(), target, body, close, chunked


#: The header of a response after which the server closes the connection.
_CLOSE = "Connection: close\r\n"


def _write_json(writer: asyncio.StreamWriter, status: str,
                payload: dict, close: bool) -> None:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (f"HTTP/1.1 {status}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{_CLOSE if close else ''}\r\n")
    writer.write(head.encode("latin-1") + body)


#: The ``/sweep`` response head, by ``(chunked, close)``: whether the
#: body is chunked and whether the connection closes after it.  An
#: HTTP/1.0 client knows no chunked coding: it gets the body as written,
#: ended by the close its request already gets.
_STREAM_HEAD = {
    (chunked, close): (b"HTTP/1.1 200 OK\r\n"
                       b"Content-Type: application/x-ndjson\r\n"
                       + (b"Transfer-Encoding: chunked\r\n" if chunked
                          else b"")
                       + (_CLOSE.encode() if close else b"") + b"\r\n")
    for chunked, close in ((True, False), (True, True), (False, True))}

#: The zero-length chunk that ends a chunked body.
_LAST_CHUNK = b"0\r\n\r\n"


def _chunk(text: str) -> bytes:
    """``text`` as one HTTP chunk; nothing for empty text, whose chunk
    would end the body."""
    if not text:
        return b""
    data = text.encode()
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


def _render_row(outcome: CellOutcome, index: int, source: str) -> str:
    record = dict(zip(SWEEP_HEADERS, cell_row(outcome)))
    # A coalesced/store-served cell did not cost *this* request an
    # evaluation — same meaning as the sweep exporter's column, extended
    # to the service.
    record["cached"] = source != "evaluated"
    record["index"] = index
    record["source"] = source
    return json.dumps(record, sort_keys=True) + "\n"


def _summary_line(tallies: dict, total: int, start: float) -> str:
    return json.dumps({"summary": dict(
        total=total, seconds=time.perf_counter() - start, **tallies)},
        sort_keys=True) + "\n"


def _error_outcome(cell: SweepCell, error: Exception) -> CellOutcome:
    return CellOutcome(cell=cell, error=str(error),
                       error_type=type(error).__name__)


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
    # build_grid rejects unknown arch and mapper keys with a ReproError
    # -> 400, in the same words as `repro sweep`.
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
        self._rows: dict = {}           # (cell, source) -> see _row
        self._queued = 0                # cells waiting for an eval slot
        self._idle: dict = {}           # handler task -> writer, see _handle
        self._closing = False
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
        harness.configure_store(self.store)
        self._loop = asyncio.get_running_loop()
        self._closing = False
        self._stop_event = asyncio.Event()
        self._eval_slots = asyncio.Semaphore(self.jobs)
        if self.use_processes:
            # Workers forked after run() took over SIGTERM must not
            # inherit its handler: they keep the default action.
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=signal.signal,
                initargs=(signal.SIGTERM, signal.SIG_DFL))
            # Fork the workers now, before the listening socket or any
            # connection exists.  The fork start method forks them all at
            # the first submit; at a cold request's submit they would
            # inherit its socket and hold it open after the server closes
            # it, so its client would see no EOF until they exit.
            self._pool.submit(int)
        try:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port)
        except (OSError, OverflowError) as error:
            # A bad port, an unresolvable host or a taken address: no
            # server will run, so release the workers forked above.
            await self.stop()
            reason = getattr(error, "strerror", None) or error
            raise ReproError(f"cannot listen on {self.host}:{self.port}: "
                             f"{reason}") from None
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Stop accepting, close the connections, cancel in-flight work,
        release the pool."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            # A connection waiting for its next request would keep
            # `wait_closed` (which waits for every connection since
            # Python 3.12) waiting forever: close it, and let its handler
            # end at the EOF before `asyncio.run` cancels what is left.
            # A busy connection closes after its response.
            idle = list(self._idle.items())
            for _task, writer in idle:
                writer.close()
            if idle:
                await asyncio.wait([task for task, _writer in idle])
            await self._server.wait_closed()
            self._server = None
        for task in list(self._inflight.values()):
            task.cancel()
        self._inflight.clear()
        if self._pool is not None:
            # Join the pool's manager thread here: left running, it races
            # the interpreter's exit hook, which can then print an
            # OSError traceback (a closed wake-up pipe).  The process
            # would wait for a running evaluation at exit anyway.
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    async def _serve_until_stopped(self, on_ready) -> None:
        """Start, call ``on_ready()`` once bound, serve until stopped."""
        await self.start()
        on_ready()
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    def run(self, announce=None) -> None:
        """Blocking entry point (`repro serve`): serve until Ctrl-C or
        SIGTERM.  Either way :meth:`stop` runs and shuts the worker pool
        down, so no worker outlives the server.

        ``announce(server)`` is called once the socket is bound — the
        CLI prints the banner there, so ``--port 0`` announces the real
        ephemeral port.
        """
        def ready() -> None:
            with contextlib.suppress(NotImplementedError):  # not on Windows
                self._loop.add_signal_handler(signal.SIGTERM,
                                              self._stop_event.set)
            if announce is not None:
                announce(self)

        try:
            asyncio.run(self._serve_until_stopped(ready))
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
                asyncio.run(self._serve_until_stopped(ready.set))
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
        """Answer one connection's requests in turn, until the client
        closes it, a request asks to close it, a request is malformed, or
        the server stops."""
        self.counters.connections += 1
        task = asyncio.current_task()
        try:
            while not self._closing:
                # Waiting for a request is idle: stop() closes it.
                self._idle[task] = writer
                try:
                    request = await _read_request(reader)
                except _BadRequest as error:
                    # The rest of the stream cannot be framed: close.
                    _write_json(writer, error.status, {"error": str(error)},
                                close=True)
                    await writer.drain()
                    return
                finally:
                    del self._idle[task]
                if request is None:
                    return          # the client closed between requests
                method, target, body, close, chunked = request
                close = close or self._closing
                if method == "GET" and target == "/healthz":
                    _write_json(writer, "200 OK", {"status": "ok"}, close)
                elif method == "GET" and target == "/stats":
                    _write_json(writer, "200 OK", self._stats_payload(),
                                close)
                elif method == "POST" and target == "/sweep":
                    await self._handle_sweep(writer, body, close, chunked)
                else:
                    _write_json(writer, "404 Not Found",
                                {"error": f"no route for {method} {target}"},
                                close)
                await writer.drain()
                if close:
                    return
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

            try:
                payload["store"] = inventory(self.store).as_dict()
            except ReproError as error:     # the directory vanished
                payload["store"] = {"error": str(error)}
        return payload

    async def _handle_sweep(self, writer: asyncio.StreamWriter,
                            body: bytes, close: bool, chunked: bool) -> None:
        try:
            grid = _parse_grid_spec(body)
        except ReproError as error:
            _write_json(writer, "400 Bad Request", {"error": str(error)},
                        close)
            return
        self.counters.requests += 1
        start = time.perf_counter()
        tallies = {"evaluated": 0, "cached": 0, "coalesced": 0,
                   "rejected": 0, "failed": 0}
        # Cached cells are answered here, before any task exists, and go
        # out with the response head in one write; only the cells that
        # wait for an evaluation get a task, and stream as they land.
        rows, pending = [], []
        for index, cell in enumerate(grid):
            answer, source = self._answer(cell)
            if isinstance(answer, CellOutcome):
                source = self._count(tallies, answer, source)
                rows.append(self._row(index, answer, source))
            else:
                pending.append(asyncio.create_task(
                    self._serve_cell(index, cell, answer, source, tallies)))
        head = _STREAM_HEAD[chunked, close]
        frame, last = (_chunk, _LAST_CHUNK) if chunked else (str.encode, b"")
        if not pending:
            rows.append(_summary_line(tallies, len(grid), start))
            writer.write(head + frame("".join(rows)) + last)
            return
        try:
            writer.write(head + frame("".join(rows)))
            await writer.drain()
            for next_done in asyncio.as_completed(pending):
                index, outcome, source = await next_done
                writer.write(frame(self._row(index, outcome, source)))
                await writer.drain()
        except (ConnectionError, TimeoutError, OSError):
            # Client hung up mid-stream: stop the request's *joiner*
            # tasks.  In-flight evaluations are request-independent and
            # keep running — their results still land in the store for
            # the next client.
            for task in pending:
                task.cancel()
            raise
        writer.write(frame(_summary_line(tallies, len(grid), start)) + last)

    # -- per-cell resolution ----------------------------------------------
    def _answer(self, cell: SweepCell
                ) -> "tuple[CellOutcome | asyncio.Task, str]":
        """The cell's outcome when a cache layer holds it, or else the
        evaluation task it joins: an in-flight one (``coalesced``) or a
        new one under admission control (``evaluated``).

        Lookup and in-flight check run without an ``await`` between
        them, so no evaluation can land (and leave ``_inflight``) after
        this cell missed the memo and before it joined.
        """
        try:
            hit = parallel.answer_from_cache(cell, self.store is not None)
            if hit is not None:
                return hit, "cached"
            key = cell.key()
            dedupe_key = harness.try_fingerprint(*key) or ("cell",) + key
            task = self._inflight.get(dedupe_key)
            if task is not None:
                return task, "coalesced"
            # The evaluation is its own task, not a child of this
            # request: a client disconnect cancels the joiner's shielded
            # await, never the evaluation other requests may have joined.
            task = asyncio.create_task(
                self._evaluate_admitted(cell, dedupe_key))
            self._inflight[dedupe_key] = task
            return task, "evaluated"
        except Exception as error:     # noqa: BLE001 — the sweep contract
            # holds for the service too: one broken cell must never kill
            # a whole request; it becomes a structured error row.
            return _error_outcome(cell, error), "evaluated"

    async def _serve_cell(self, index: int, cell: SweepCell,
                          evaluation: asyncio.Task, source: str,
                          tallies: dict) -> tuple[int, CellOutcome, str]:
        """Wait for one cell's evaluation; count it where it lands."""
        try:
            outcome = await asyncio.shield(evaluation)
        except asyncio.CancelledError:
            raise
        except Exception as error:     # noqa: BLE001 — as in _answer
            outcome, source = _error_outcome(cell, error), "evaluated"
        return index, outcome, self._count(tallies, outcome, source)

    def _count(self, tallies: dict, outcome: CellOutcome, source: str
               ) -> str:
        """Book one answered cell in the request's tallies and the
        server's lifetime counters; returns its final ``source``."""
        if outcome.error_type == SERVER_BUSY:
            source = "rejected"
        tallies[source] += 1
        counters = self.counters
        counters.cells += 1
        setattr(counters, source, getattr(counters, source) + 1)
        if not outcome.ok:
            tallies["failed"] += 1
            counters.failed += 1
        return source

    def _row(self, index: int, outcome: CellOutcome, source: str) -> str:
        """One NDJSON line, ``json.dumps(record, sort_keys=True)`` of the
        cell's ``cell_row`` record plus ``cached``/``index``/``source``.

        An ok row's text is rendered once per (cell, source, result
        object) and the request's ``index`` spliced in, so a cached row
        costs a string join.  The memo holds the result object itself,
        not its ``id``, so a result replaced after ``clear_caches`` (a new
        object, perhaps at a recycled address) is rendered afresh.
        """
        if not outcome.ok:
            return _render_row(outcome, index, source)
        key = (outcome.cell, source)
        memo = self._rows.get(key)
        if memo is None or memo[0] is not outcome.result:
            # Keys are sorted and string values escape their quotes, so
            # the only '"index": -1' in an ok row is the index field.
            head, _, tail = _render_row(outcome, -1, source).partition(
                '"index": -1')
            memo = self._rows[key] = (outcome.result, head + '"index": ',
                                      tail)
        return f"{memo[1]}{index}{memo[2]}"

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
        task = (0, cell.key(), store_root, harness.seed_salt())
        try:
            reply = await self._loop.run_in_executor(
                self._pool, parallel._worker_evaluate, task)
        except BrokenProcessPool:
            # A broken pool must never fail the request: degrade to
            # in-process evaluation.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            return await self._dispatch_inline(cell)
        return parallel.absorb_reply(cell, reply)

    async def _dispatch_inline(self, cell: SweepCell) -> CellOutcome:
        return await self._loop.run_in_executor(
            None, parallel._run_cell_local, cell, self.store is not None)
