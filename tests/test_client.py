"""The ``repro serve`` client against a scripted byte server.

Each test scripts the exact response bytes, so the client's reader is
checked on framings the real server never sends (chunk extensions,
trailers, a row split across chunks, bodies cut off mid-chunk, bodies
ended by a close) and on the connection pool's rules: which responses
give their connection back, and which failures are retried.
"""

import json
import socket
import threading

import pytest

from repro.errors import ReproError
from repro.eval import client

#: A script step that closes the connection.
CLOSE = object()

ROWS = [{"index": index, "workload": name, "status": "ok",
         "cycles": 10 + index}
        for index, name in enumerate(["dwconv", "conv2x2", "gesum_u2"])]
SUMMARY = {"summary": {"total": len(ROWS)}}
RECORDS = ROWS + [SUMMARY]
LINES = [json.dumps(record).encode() + b"\n" for record in RECORDS]

STREAM_HEAD = (b"HTTP/1.1 200 OK\r\n"
               b"Content-Type: application/x-ndjson\r\n"
               b"Transfer-Encoding: chunked\r\n")


def chunk(data: bytes, extension: bytes = b"") -> bytes:
    return b"%x%s\r\n%s\r\n" % (len(data), extension, data)


def chunked(*chunks: bytes, head: bytes = b"") -> bytes:
    """A whole chunked response with ``chunks`` as its body."""
    return (STREAM_HEAD + head + b"\r\n" + b"".join(map(chunk, chunks))
            + b"0\r\n\r\n")


def json_reply(status: str, payload: dict, head: bytes = b"") -> bytes:
    body = json.dumps(payload).encode()
    return (b"HTTP/1.1 %s\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n%s\r\n%s"
            % (status.encode(), len(body), head, body))


def _read_request(file) -> "bytes | None":
    """One request's head and body, or ``None`` at EOF."""
    head = b""
    while True:
        line = file.readline()
        if not line:
            return None
        head += line
        if line == b"\r\n":
            break
    length = 0
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return head + file.read(length)


class ScriptedServer:
    """Answers each request with the next scripted response, on
    whichever connection it arrives.

    A response is a list of steps: ``bytes`` are sent as they are, a
    ``threading.Event`` is waited for, and ``CLOSE`` closes the
    connection; otherwise the connection waits for its next request.
    A request with no script left gets its connection closed.
    """

    def __init__(self, *responses) -> None:
        self.responses = list(responses)
        self.requests: list[bytes] = []
        self.connections = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.host = "127.0.0.1"
        self.port = self.listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                sock, _address = self.listener.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._answer, args=(sock,),
                             daemon=True).start()

    def _answer(self, sock: socket.socket) -> None:
        with sock, sock.makefile("rb") as file:
            while True:
                request = _read_request(file)
                if request is None or not self.responses:
                    return
                self.requests.append(request)
                for step in self.responses.pop(0):
                    if step is CLOSE:
                        return
                    if isinstance(step, threading.Event):
                        step.wait(timeout=30)
                    else:
                        sock.sendall(step)

    def pooled(self) -> int:
        """Idle connections the client keeps for this server."""
        return len(client._pool.get((self.host, self.port), []))

    def close(self) -> None:
        for connection in client._pool.pop((self.host, self.port), []):
            connection.close()
        try:
            self.listener.shutdown(socket.SHUT_RDWR)    # wakes accept()
        except OSError:
            pass
        self.listener.close()


@pytest.fixture
def serve():
    """``serve(*responses)`` starts a scripted server; all stop after
    the test."""
    servers = []

    def start(*responses) -> ScriptedServer:
        servers.append(ScriptedServer(*responses))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def _stream(server, **kwargs) -> list[dict]:
    return list(client.stream_sweep(server.host, server.port, timeout=30,
                                    **kwargs))


# ---------------------------------------------------------------------------
# Chunked NDJSON
# ---------------------------------------------------------------------------
def test_request_is_one_well_formed_post(serve):
    server = serve([chunked(b"".join(LINES))])
    _stream(server, workloads=["dwconv"], archs=["st"], mapper="best")
    [request] = server.requests
    head, _, body = request.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0] == b"POST /sweep HTTP/1.1"
    assert b"content-length: %d" % len(body) in head.lower()
    assert json.loads(body) == {"workloads": ["dwconv"], "archs": ["st"],
                                "mapper": "best"}


def test_many_rows_in_one_chunk(serve):
    server = serve([chunked(b"".join(LINES))])
    assert _stream(server) == RECORDS
    assert server.pooled() == 1


def test_row_split_across_two_chunks(serve):
    split = len(LINES[1]) // 2
    server = serve([chunked(LINES[0] + LINES[1][:split],
                            LINES[1][split:],
                            LINES[2][:5], LINES[2][5:] + LINES[3])])
    assert _stream(server) == RECORDS
    assert server.pooled() == 1


def test_rows_arrive_as_their_chunks_land(serve):
    """The first row is yielded while the rest of the body is held back."""
    hold = threading.Event()
    server = serve([STREAM_HEAD + b"\r\n" + chunk(LINES[0]), hold,
                    b"".join(map(chunk, LINES[1:])) + b"0\r\n\r\n"])
    try:
        stream = client.stream_sweep(server.host, server.port, timeout=30)
        assert next(stream) == RECORDS[0]
        hold.set()
        assert list(stream) == RECORDS[1:]
    finally:
        hold.set()


def test_chunk_extensions_and_trailers(serve):
    """Extensions after the chunk size and trailer fields after the last
    chunk are skipped; the connection is read to its end and reused."""
    body = b"".join(chunk(line, b";name=value") for line in LINES)
    server = serve(
        [STREAM_HEAD + b"\r\n" + body
         + b"0;last\r\nX-Checksum: abc\r\nX-Rows: 3\r\n\r\n"],
        [json_reply("200 OK", {"status": "ok"})])
    assert _stream(server) == RECORDS
    assert client.get_json(server.host, server.port, "/healthz") \
        == {"status": "ok"}
    assert server.connections == 1 and len(server.requests) == 2


def test_unframed_body_is_read_to_eof_and_not_pooled(serve):
    """A reply with neither chunks nor a length (an HTTP/1.0 reply) ends
    at the close; that connection is never pooled."""
    server = serve([b"HTTP/1.0 200 OK\r\n"
                    b"Content-Type: application/x-ndjson\r\n\r\n",
                    b"".join(LINES), CLOSE])
    assert _stream(server) == RECORDS
    assert server.pooled() == 0


# ---------------------------------------------------------------------------
# Content-Length bodies
# ---------------------------------------------------------------------------
def test_content_length_json(serve):
    stats = {"serve": {"cached": 15, "evaluated": 0}, "jobs": 1}
    server = serve([json_reply("200 OK", stats)],
                   [json_reply("200 OK", {"status": "ok"})])
    assert client.get_json(server.host, server.port, "/stats") == stats
    assert client.get_json(server.host, server.port, "/healthz") \
        == {"status": "ok"}
    assert server.connections == 1


def test_error_bodies_carry_the_servers_detail(serve):
    """Non-200 replies raise with the server's words; their bodies are
    read whole, so the connection stays in use."""
    server = serve([json_reply("400 Bad Request", {"error": "bad spec"})],
                   [json_reply("404 Not Found", {"error": "no route"})],
                   [json_reply("200 OK", {"status": "ok"})])
    with pytest.raises(ReproError, match="failed \\(400\\).*bad spec"):
        _stream(server, workloads=["nope"])
    with pytest.raises(ReproError, match="GET /nope failed \\(404\\).*"
                                         "no route"):
        client.get_json(server.host, server.port, "/nope")
    assert client.get_json(server.host, server.port, "/healthz") \
        == {"status": "ok"}
    assert server.connections == 1


# ---------------------------------------------------------------------------
# Cut-off bodies and the pool
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cut", [
    chunk(LINES[0]) + b"%x\r\n" % len(LINES[1]) + LINES[1][:7],
    chunk(LINES[0]) + chunk(LINES[1]),
    chunk(LINES[0]) + b"%x\r\n" % len(LINES[1]),
    chunk(LINES[0]) + b"0\r\nX-Trailer: cut",
], ids=["mid-chunk", "before-last-chunk", "after-size-line", "in-trailer"])
def test_cut_off_chunked_body_raises(serve, cut):
    """A body cut off before its last chunk raises: the stream never ends
    quietly without its summary, and its connection is not pooled."""
    server = serve([STREAM_HEAD + b"\r\n" + cut, CLOSE])
    records = []
    with pytest.raises(ReproError, match="cut off"):
        for record in client.stream_sweep(server.host, server.port,
                                          timeout=30):
            records.append(record)
    assert SUMMARY not in records
    assert server.pooled() == 0


def test_connection_close_reply_is_not_pooled(serve):
    server = serve(
        [json_reply("200 OK", {"status": "ok"}, b"Connection: close\r\n"),
         CLOSE],
        [chunked(b"".join(LINES), head=b"Connection: close\r\n"), CLOSE],
        [json_reply("200 OK", {"status": "ok"})])
    assert client.get_json(server.host, server.port, "/healthz") \
        == {"status": "ok"}
    assert server.pooled() == 0
    assert _stream(server) == RECORDS
    assert server.pooled() == 0
    client.get_json(server.host, server.port, "/healthz")
    assert server.connections == 3


@pytest.mark.parametrize("cut", [
    b"HTTP/1.1 200 OK\r\n",
    STREAM_HEAD + b"\r\n" + chunk(LINES[0])[:4],
], ids=["in-head", "in-body"])
def test_no_retry_once_a_status_line_arrived(serve, cut):
    """A pooled connection that fails after its status line raises; the
    request is not sent again."""
    server = serve([chunked(b"".join(LINES))], [cut, CLOSE],
                   [chunked(b"".join(LINES))])
    assert _stream(server) == RECORDS
    assert server.pooled() == 1
    with pytest.raises(ReproError, match="cut off"):
        _stream(server)
    assert len(server.requests) == 2
    assert server.connections == 1
    assert server.pooled() == 0


def test_pooled_connection_closed_while_idle_is_retried_once(serve):
    """A pooled connection the server has closed fails before a status
    line: the request is sent once more, on a fresh connection."""
    server = serve([chunked(b"".join(LINES)), CLOSE],
                   [chunked(b"".join(LINES))])
    assert _stream(server) == RECORDS
    assert server.pooled() == 1
    assert _stream(server) == RECORDS
    assert server.connections == 2
    assert len(server.requests) == 2


def test_fresh_connection_is_not_retried(serve):
    """Only a pooled connection earns a retry: when the fresh one also
    closes without a reply, the error reaches the caller."""
    server = serve([chunked(b"".join(LINES)), CLOSE], [CLOSE])
    assert _stream(server) == RECORDS
    with pytest.raises(ConnectionError):
        _stream(server)
    assert server.connections == 2
    assert len(server.requests) == 2
