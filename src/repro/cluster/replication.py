"""Table-level replication: the wire side of the REPLICA_RECOVERY rung.

A restarting leaf whose shared memory is gone has a faster source than
local disk: a sibling leaf on another machine that holds the same
sealed, compressed blocks.  This module is that wire path:

- :class:`ReplicaBlockServer` — a replica exposes its sealed blocks
  over a tiny framed TCP protocol.  Blocks are served in RBC wire
  format straight from the table (``to_encoded(copy=False)`` buffers
  behind :func:`~repro.shm.layout.packed_block_chunks`) — the replica
  never re-encodes, and the payload is byte-identical to
  :meth:`RowBlock.pack`.
- :class:`ReplicaFetchSession` — the restarting side: N concurrent
  connections pinned to one server-side session (a consistent snapshot
  of the replica's sealed blocks), so a pipelined multi-stream fetch
  sees one point-in-time catalog no matter how the streams interleave.
- :class:`ReplicaCatalog` — cluster placement: which standby mirrors
  each primary, lazily starting one block server per standby, plus the
  ingest-mirroring and query-failover hooks the cluster wires up.

Framing: every message is ``header | payload`` with a fixed
little-endian header ``(magic, version, kind, payload_len, crc32)``.
The CRC covers the payload, so a torn or bit-flipped frame surfaces as
:class:`~repro.errors.ReplicaWireError` — which the recovery ladder
treats exactly like a stale snapshot: abandon the rung all-or-nothing
and fall to the local disk rungs.

Protocol::

    client                              server
    ------                              ------
    HELLO {"open": true}          ->
                                  <-    CATALOG {"session": t, "tables": [...]}
    HELLO {"session": t}          ->    (each extra stream joins the session)
                                  <-    CATALOG {"session": t, ...}
    GET {"table": n, "index": i}  ->
                                  <-    BLOCK <packed block bytes>
    BYE {"session": t}            ->    (server drops the session)

Opening a session snapshots the replica's sealed blocks (Python
references pin them even if the replica expires data afterwards), so
every stream of one restore pulls from the same consistent image.
"""

from __future__ import annotations

import json
import queue
import socket
import struct
import threading
import zlib
from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Callable

from repro.columnstore.rowblock import RowBlock
from repro.errors import ReplicaWireError, StateError
from repro.shm.layout import packed_block_chunks, packed_block_size

if TYPE_CHECKING:
    from repro.columnstore.leafmap import LeafMap
    from repro.server.leaf import LeafServer

WIRE_MAGIC = 0x50455252  # "RREP"
#: 2: BLOCK frames carry ``RBC_VERSION`` 2 (raw deflate) payloads, so a
#: standby of the other build is refused at its first frame.
WIRE_VERSION = 2
#: magic, version, kind, payload length, payload crc32
_FRAME = struct.Struct("<IHHII")
#: Sanity cap on one frame's payload — a block is at most a few MB.
MAX_PAYLOAD = 1 << 31

FRAME_HELLO = 1
FRAME_CATALOG = 2
FRAME_GET = 3
FRAME_BLOCK = 4
FRAME_ERROR = 5
FRAME_BYE = 6

#: Concurrent block streams per fetch session (the pipelining width).
DEFAULT_STREAMS = 4

#: GET frames kept in flight ahead of the responses on one stream.
#: Requests are ~60 bytes, so a full window in the server's receive
#: buffer is negligible while it amortizes the per-block round trip
#: across the whole run of blocks.
DEFAULT_WINDOW = 32


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def _no_delay(sock: socket.socket) -> None:
    """Disable Nagle: the protocol is request/response with small frames,
    and a buffered header waiting out a delayed ACK costs ~40ms per
    block — three orders of magnitude over the wire time itself."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass  # not a TCP socket (tests may pass a socketpair)


def send_frame(sock: socket.socket, kind: int, *chunks) -> None:
    """Write one frame; chunks are sent back-to-back without joining."""
    length = sum(len(c) for c in chunks)
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    header = _FRAME.pack(WIRE_MAGIC, WIRE_VERSION, kind, length, crc & 0xFFFFFFFF)
    try:
        sock.sendall(header)
        for chunk in chunks:
            sock.sendall(chunk)
    except OSError as exc:
        raise ReplicaWireError(f"replica stream send failed: {exc}") from exc


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    buf = bytearray()
    while len(buf) < nbytes:
        try:
            chunk = sock.recv(min(nbytes - len(buf), 1 << 20))
        except OSError as exc:
            raise ReplicaWireError(f"replica stream recv failed: {exc}") from exc
        if not chunk:
            raise ReplicaWireError("replica connection closed mid-frame")
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    """Read one frame, validating magic, version, and payload CRC."""
    header = _recv_exact(sock, _FRAME.size)
    magic, version, kind, length, crc = _FRAME.unpack(header)
    if magic != WIRE_MAGIC:
        raise ReplicaWireError(f"bad frame magic 0x{magic:08x}")
    if version != WIRE_VERSION:
        raise ReplicaWireError(f"unsupported wire version {version}")
    if length > MAX_PAYLOAD:
        raise ReplicaWireError(f"frame payload {length} exceeds cap")
    payload = _recv_exact(sock, length) if length else b""
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise ReplicaWireError("frame payload checksum mismatch")
    return kind, payload


def _raise_on_error(kind: int, payload: bytes, expected: int) -> None:
    if kind == FRAME_ERROR:
        raise ReplicaWireError(
            f"replica refused: {payload.decode('utf-8', 'replace')}"
        )
    if kind != expected:
        raise ReplicaWireError(f"expected frame kind {expected}, got {kind}")


# ----------------------------------------------------------------------
# Catalog shapes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WireBlock:
    """One sealed block as described by a session catalog."""

    table: str
    index: int
    size: int
    row_count: int
    min_time: int
    max_time: int
    columns: tuple[str, ...]

    def overlaps(self, start_time: int | None, end_time: int | None) -> bool:
        if start_time is not None and self.max_time < start_time:
            return False
        if end_time is not None and self.min_time >= end_time:
            return False
        return True


@dataclass(frozen=True)
class WireTable:
    """One table as described by a session catalog."""

    name: str
    rows_ingested: int
    rows_expired: int
    blocks: tuple[WireBlock, ...]


#: name -> (sealed blocks, total_rows_ingested, total_rows_expired)
TableSnapshot = dict[str, tuple[list[RowBlock], int, int]]


def snapshot_leafmap(leafmap: LeafMap) -> TableSnapshot:
    """A point-in-time view of every table's sealed blocks.

    Blocks are immutable once sealed and the lists are copies, so the
    returned snapshot stays consistent while the source keeps ingesting
    or expiring.
    """
    return {
        table.name: (
            table.blocks,
            table.total_rows_ingested,
            table.total_rows_expired,
        )
        for table in leafmap
    }


def _catalog_payload(token: str, tables: TableSnapshot) -> bytes:
    doc = {"session": token, "tables": []}
    for name in sorted(tables):
        blocks, ingested, expired = tables[name]
        doc["tables"].append(
            {
                "name": name,
                "rows_ingested": ingested,
                "rows_expired": expired,
                "blocks": [
                    [
                        packed_block_size(block),
                        block.row_count,
                        block.min_time,
                        block.max_time,
                        list(block.schema.names),
                    ]
                    for block in blocks
                ],
            }
        )
    return json.dumps(doc).encode()


def _parse_catalog(payload: bytes) -> tuple[str, tuple[WireTable, ...]]:
    """The session token and tables of a CATALOG frame; a payload that
    is not a well-formed catalog is a :class:`ReplicaWireError`."""
    try:
        doc = json.loads(payload)
        token = doc["session"]
        tables = tuple(_parse_table(entry) for entry in doc["tables"])
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise ReplicaWireError(f"malformed replica catalog: {type(exc).__name__}: {exc}") from exc
    if not isinstance(token, str):
        raise ReplicaWireError("malformed replica catalog: session token is not a string")
    return token, tables


def _parse_table(entry: dict) -> WireTable:
    name, ingested, expired = entry["name"], entry["rows_ingested"], entry["rows_expired"]
    blocks = []
    for index, (size, row_count, min_time, max_time, columns) in enumerate(entry["blocks"]):
        if not (
            all(type(count) is int and count >= 0 for count in (size, row_count))
            and all(type(time) in (int, float) for time in (min_time, max_time))
            and type(columns) is list
            and all(type(column) is str for column in columns)
        ):
            raise TypeError(f"block {index} of table {name!r} has a field of the wrong type")
        blocks.append(WireBlock(name, index, size, row_count, min_time, max_time, tuple(columns)))
    if not (type(name) is str and all(type(n) is int and n >= 0 for n in (ingested, expired))):
        raise TypeError(f"table {name!r} has a field of the wrong type")
    return WireTable(name, ingested, expired, tuple(blocks))


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------


class ReplicaBlockServer:
    """Serves one replica's sealed blocks to restarting siblings.

    ``snapshot_source`` is called once per opened session and must
    return a :data:`TableSnapshot`; holding the block references pins
    that image for the session's lifetime, so every joined stream pulls
    from the same bytes.
    """

    def __init__(
        self,
        snapshot_source: Callable[[], TableSnapshot],
        host: str = "127.0.0.1",
    ) -> None:
        self._snapshot_source = snapshot_source
        self._sock = socket.create_server((host, 0))
        self.address: tuple[str, int] = self._sock.getsockname()[:2]
        self._lock = threading.Lock()
        self._sessions: dict[str, TableSnapshot] = {}
        self._catalogs: dict[str, bytes] = {}
        self._conns: set[socket.socket] = set()
        self._tokens = count(1)
        self._closed = False
        self.sessions_opened = 0
        self.blocks_served = 0
        self.bytes_served = 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="replica-accept", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # closed
            _no_delay(conn)
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_conn,
                args=(conn,),
                name="replica-stream",
                daemon=True,
            ).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        session: TableSnapshot | None = None
        try:
            with conn:
                while True:
                    kind, payload = recv_frame(conn)
                    if kind == FRAME_BYE:
                        self._drop_session(payload)
                        return
                    if kind == FRAME_HELLO:
                        session = self._handle_hello(conn, payload)
                    elif kind == FRAME_GET:
                        if session is None:
                            send_frame(conn, FRAME_ERROR, b"GET before HELLO")
                        else:
                            self._handle_get(conn, session, payload)
                    else:
                        send_frame(
                            conn, FRAME_ERROR, f"bad frame kind {kind}".encode()
                        )
        except (ReplicaWireError, OSError):
            return  # client went away; nothing to clean beyond the conn
        finally:
            with self._lock:
                self._conns.discard(conn)

    def _handle_hello(
        self, conn: socket.socket, payload: bytes
    ) -> TableSnapshot | None:
        request = json.loads(payload)
        token = request.get("session")
        if token:
            with self._lock:
                session = self._sessions.get(token)
            if session is None:
                send_frame(conn, FRAME_ERROR, f"unknown session {token}".encode())
                return None
            # A joining stream already has the catalog from the opening
            # stream; acknowledging with an empty table list keeps the
            # join round trip at two small frames.
            brief = json.dumps({"session": token, "tables": []}).encode()
            send_frame(conn, FRAME_CATALOG, brief)
            return session
        session = self._snapshot_source()
        with self._lock:
            token = f"s{next(self._tokens)}"
            catalog = _catalog_payload(token, session)
            self._sessions[token] = session
            self._catalogs[token] = catalog
            self.sessions_opened += 1
        send_frame(conn, FRAME_CATALOG, catalog)
        return session

    def _handle_get(
        self, conn: socket.socket, session: TableSnapshot, payload: bytes
    ) -> None:
        request = json.loads(payload)
        table = request.get("table")
        index = request.get("index", -1)
        entry = session.get(table)
        if entry is None or not 0 <= index < len(entry[0]):
            send_frame(
                conn, FRAME_ERROR, f"no block {table}[{index}]".encode()
            )
            return
        chunks = packed_block_chunks(entry[0][index])
        send_frame(conn, FRAME_BLOCK, *chunks)
        with self._lock:
            self.blocks_served += 1
            self.bytes_served += sum(len(c) for c in chunks)

    def _drop_session(self, payload: bytes) -> None:
        try:
            token = json.loads(payload).get("session") if payload else None
        except ValueError:
            token = None
        if token:
            with self._lock:
                self._sessions.pop(token, None)
                self._catalogs.pop(token, None)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns)
            self._conns.clear()
        try:
            self._sock.close()
        except OSError:
            pass
        # Active streams die with the server: a restore mid-pull sees the
        # connection drop and falls down the ladder instead of hanging.
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        with self._lock:
            self._sessions.clear()
            self._catalogs.clear()


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------


class ReplicaFetchSession:
    """N connections pinned to one replica session.

    ``fetch`` is thread-safe: callers borrow a connection from the pool,
    run one GET/BLOCK exchange, and return it — the pipelined restore
    runs ``streams`` fetches concurrently.  Any wire failure marks the
    whole session broken (the rung is all-or-nothing), closes the bad
    connection, and raises :class:`ReplicaWireError`.
    """

    def __init__(
        self,
        address: tuple[str, int],
        streams: int = DEFAULT_STREAMS,
        timeout: float = 10.0,
    ) -> None:
        self.streams = max(1, int(streams))
        self._timeout = timeout
        self._sockets: list[socket.socket] = []
        self._pool: queue.Queue[socket.socket] = queue.Queue()
        self._closed = False
        #: The first failure on any stream; the session is condemned.
        self._failure: BaseException | None = None
        self.token = ""
        self.tables: tuple[WireTable, ...] = ()
        try:
            self._join(address, opening=True)
            extras = self.streams - 1
            if extras:
                # Joining streams are independent connects acknowledged
                # with a two-frame handshake; opening them concurrently
                # keeps session setup at ~one round trip regardless of
                # the stream count.
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(
                    max_workers=extras, thread_name_prefix="replica-join"
                ) as pool:
                    joins = [
                        pool.submit(self._join, address, False)
                        for _ in range(extras)
                    ]
                    for join in joins:
                        join.result()
        except BaseException:
            self.close()
            raise

    def _join(self, address: tuple[str, int], opening: bool) -> None:
        try:
            sock = socket.create_connection(address, timeout=self._timeout)
        except OSError as exc:
            raise ReplicaWireError(
                f"cannot reach replica at {address}: {exc}"
            ) from exc
        _no_delay(sock)
        self._sockets.append(sock)
        request = {"open": True} if opening else {"session": self.token}
        send_frame(sock, FRAME_HELLO, json.dumps(request).encode())
        kind, payload = recv_frame(sock)
        _raise_on_error(kind, payload, FRAME_CATALOG)
        token, tables = _parse_catalog(payload)
        if opening:
            self.token = token
            self.tables = tables
        elif token != self.token:
            raise ReplicaWireError("replica session token mismatch")
        self._pool.put(sock)

    def blocks(self) -> list[WireBlock]:
        """Every block in the session catalog, in table/directory order."""
        return [block for table in self.tables for block in table.blocks]

    def _borrow(self) -> socket.socket:
        """A pooled connection.  A condemned session raises the failure
        that condemned it, whichever stream saw it, as a future does."""
        if self._failure is not None:
            raise self._failure
        if self._closed:
            raise ReplicaWireError("replica session closed")
        try:
            return self._pool.get(timeout=self._timeout)
        except queue.Empty:
            raise ReplicaWireError("no replica stream available") from None

    def _condemn(self, conn: socket.socket, exc: BaseException) -> None:
        """The conn may hold half a frame: it never returns to the pool,
        and one bad stream condemns the session."""
        if self._failure is None:
            self._failure = exc
        try:
            conn.close()
        except OSError:
            pass

    def fetch(self, table: str, index: int) -> bytes:
        """One GET/BLOCK exchange; returns the packed block payload."""
        conn = self._borrow()
        try:
            send_frame(
                conn,
                FRAME_GET,
                json.dumps({"table": table, "index": index}).encode(),
            )
            kind, payload = recv_frame(conn)
            _raise_on_error(kind, payload, FRAME_BLOCK)
        except BaseException as exc:
            self._condemn(conn, exc)
            raise
        self._pool.put(conn)
        return payload

    def fetch_many(
        self,
        requests: list[tuple[str, int]],
        handler: Callable[[str, int, bytes], None],
        window: int = DEFAULT_WINDOW,
    ) -> None:
        """Windowed pipelined GETs on one borrowed connection.

        Keeps up to ``window`` GET frames in flight ahead of the
        responses and calls ``handler(table, index, payload)`` as each
        BLOCK frame lands — one stream pays the request/response round
        trip once per window instead of once per block.  Responses
        arrive in request order (the server answers each connection
        sequentially).  Failure semantics match :meth:`fetch`: any wire
        error condemns the connection and the session.
        """
        if not requests:
            return
        conn = self._borrow()
        try:
            pending: deque[tuple[str, int]] = deque()
            for table, index in requests:
                send_frame(
                    conn,
                    FRAME_GET,
                    json.dumps({"table": table, "index": index}).encode(),
                )
                pending.append((table, index))
                if len(pending) >= window:
                    self._receive_block(conn, pending, handler)
            while pending:
                self._receive_block(conn, pending, handler)
        except BaseException as exc:
            self._condemn(conn, exc)
            raise
        self._pool.put(conn)

    def _receive_block(
        self,
        conn: socket.socket,
        pending: deque,
        handler: Callable[[str, int, bytes], None],
    ) -> None:
        kind, payload = recv_frame(conn)
        _raise_on_error(kind, payload, FRAME_BLOCK)
        table, index = pending.popleft()
        handler(table, index, payload)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            if self.token and self._failure is None:
                conn = self._pool.get_nowait()
                send_frame(
                    conn, FRAME_BYE, json.dumps({"session": self.token}).encode()
                )
        except (queue.Empty, ReplicaWireError):
            pass
        finally:
            for sock in self._sockets:
                try:
                    sock.close()
                except OSError:
                    pass


# ----------------------------------------------------------------------
# Cluster placement
# ----------------------------------------------------------------------


class ReplicaCatalog:
    """Which standby leaf mirrors each primary, and how to reach it.

    One block server per standby starts lazily on first use and lives
    for the catalog's lifetime.  The catalog also carries the two hooks
    the cluster wires through it: ``mirror`` (the tailer duplicates
    every delivered batch to the primary's standby, keeping the replica
    block-for-block identical) and ``replica_for`` (the aggregator
    substitutes the standby while the primary is restarting).
    """

    def __init__(self, streams: int = DEFAULT_STREAMS) -> None:
        self._streams = streams
        self._lock = threading.Lock()
        self._replicas: dict[str, LeafServer] = {}
        self._servers: dict[str, ReplicaBlockServer] = {}
        self._closed = False
        self.batches_mirrored = 0
        self.batches_dropped = 0

    def assign(self, primary_id: str, replica: LeafServer) -> None:
        with self._lock:
            self._replicas[primary_id] = replica

    def replica_for(self, primary_id: str) -> LeafServer | None:
        with self._lock:
            return self._replicas.get(primary_id)

    def server_for(self, primary_id: str) -> ReplicaBlockServer | None:
        with self._lock:
            replica = self._replicas.get(primary_id)
            if replica is None or self._closed:
                return None
            server = self._servers.get(primary_id)
            if server is None:
                server = ReplicaBlockServer(replica.sealed_snapshot)
                self._servers[primary_id] = server
            return server

    def session_source(
        self, primary_id: str
    ) -> Callable[[], ReplicaFetchSession | None]:
        """A provider the primary's engine calls at ladder time.

        Lazy on purpose: the TCP connect happens when (and where) the
        rung runs.
        """

        def open_session() -> ReplicaFetchSession | None:
            server = self.server_for(primary_id)
            if server is None:
                return None
            try:
                return ReplicaFetchSession(server.address, streams=self._streams)
            except ReplicaWireError:
                return None

        return open_session

    def mirror(self, primary_id: str, table: str, rows: list[dict]) -> bool:
        """Duplicate one delivered batch to the primary's standby.

        Batches land in delivery order with the same rows-per-block
        seal boundaries, so the standby's sealed blocks are
        digest-identical to the primary's.
        """
        with self._lock:
            replica = self._replicas.get(primary_id)
        if replica is None:
            return False
        try:
            replica.add_rows(table, rows)
        except StateError:
            with self._lock:
                self.batches_dropped += 1
            return False
        with self._lock:
            self.batches_mirrored += 1
        return True

    def close(self) -> None:
        with self._lock:
            self._closed = True
            servers = list(self._servers.values())
            self._servers.clear()
        for server in servers:
            server.close()


__all__ = [
    "DEFAULT_STREAMS",
    "DEFAULT_WINDOW",
    "FRAME_BLOCK",
    "FRAME_BYE",
    "FRAME_CATALOG",
    "FRAME_ERROR",
    "FRAME_GET",
    "FRAME_HELLO",
    "MAX_PAYLOAD",
    "ReplicaBlockServer",
    "ReplicaCatalog",
    "ReplicaFetchSession",
    "TableSnapshot",
    "WireBlock",
    "WireTable",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "recv_frame",
    "send_frame",
    "snapshot_leafmap",
]
