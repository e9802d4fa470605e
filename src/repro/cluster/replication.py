"""Table-level replication: the wire side of the REPLICA_RECOVERY rung.

A restarting leaf whose shared memory is gone has a faster source than
local disk: a sibling leaf on another machine that holds the same
sealed, compressed blocks.  This module is that wire path:

- :class:`ReplicaBlockServer` — a replica exposes its sealed blocks
  over a tiny framed TCP protocol.  A BLOCK frame sends the block's own
  chunks (:meth:`RowBlock.packed_chunks`: its packed preamble, then its
  RBC buffers as the table holds them) — the replica never re-encodes,
  and the payload is byte-identical to :meth:`RowBlock.pack`.
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
and fall to the local disk rungs.  A frame leaves in one gathered write
(``sendmsg`` of its header and chunks, never joined), and each
connection reads its frames out of its own receive buffer
(:class:`FrameReader`), so a window of pipelined frames arrives in few
receives.

Protocol (``WIRE_VERSION`` 3)::

    client                              server
    ------                              ------
    HELLO {"open": true}          ->
                                  <-    CATALOG {"session": t, "tables": [...]}
    HELLO {"session": t}          ->    (each extra stream joins the session)
                                  <-    CATALOG {"session": t, "tables": []}
    GET <u32 table, u32 index>    ->    (a window of GETs is one write)
                                  <-    BLOCK <packed block bytes>
    BYE {"session": t}            ->    (server drops the session)

A GET names its table by ordinal: the table's position in the session
catalog, which lists tables in name order.  A GET of the wrong length,
or one that names no table or no block, gets an ERROR frame and the
connection goes on serving.

Opening a session snapshots the replica's sealed blocks (Python
references pin them even if the replica expires data afterwards), so
every stream of one restore pulls from the same consistent image.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import struct
import threading
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Callable

from repro.columnstore.leafmap import TableSnapshot, snapshot_leafmap
from repro.columnstore.rowblock import TimeRange
from repro.errors import ReplicaWireError, StateError

if TYPE_CHECKING:
    from repro.server.leaf import LeafServer

WIRE_MAGIC = 0x50455252  # "RREP"
#: 3: a GET's payload is binary (:data:`_GET`), not JSON.  2: BLOCK
#: frames carry ``RBC_VERSION`` 2 (raw deflate) payloads.  A peer of
#: another version is refused at its first frame.
WIRE_VERSION = 3
#: magic, version, kind, payload length, payload crc32
_FRAME = struct.Struct("<IHHII")
#: A GET's payload: the table's ordinal in the session catalog (the
#: catalog lists tables in name order), then the block's index.
_GET = struct.Struct("<II")
#: Sanity cap on one frame's payload — a block is at most a few MB.
MAX_PAYLOAD = 1 << 31
#: A connection's receive buffer.  One receive asks for all of its free
#: space, so a pipelined run of frames lands in few receives; a frame
#: larger than the buffer grows it as its bytes arrive.
RECV_BUFFER = 1 << 18
#: The most buffers one ``sendmsg`` takes.
_IOV_MAX = os.sysconf("SC_IOV_MAX")

FRAME_HELLO = 1
FRAME_CATALOG = 2
FRAME_GET = 3
FRAME_BLOCK = 4
FRAME_ERROR = 5
FRAME_BYE = 6

#: Concurrent block streams per fetch session (the pipelining width).
DEFAULT_STREAMS = 4

#: GET frames kept in flight ahead of the responses on one stream.
#: Requests are 24 bytes, so a full window in the server's receive
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


def _send_buffers(sock: socket.socket, buffers: list) -> None:
    """Write ``buffers`` back to back: the one write every frame goes
    through.  One ``sendmsg`` gathers them without joining; it is called
    again only when the kernel took fewer bytes than asked or the list
    is longer than ``_IOV_MAX``."""
    at, end = 0, len(buffers)
    try:
        while at < end:
            sent = sock.sendmsg(buffers[at : at + _IOV_MAX])
            while at < end and sent >= len(buffers[at]):
                sent -= len(buffers[at])
                at += 1
            if sent:
                buffers = [memoryview(buffers[at])[sent:], *buffers[at + 1 :]]
                at, end = 0, len(buffers)
    except OSError as exc:
        raise ReplicaWireError(f"replica stream send failed: {exc}") from exc


def send_frame(sock: socket.socket, kind: int, *chunks) -> int:
    """Write one frame in one gathered write; its chunks are never
    joined.  Returns the payload's length."""
    length = crc = 0
    for chunk in chunks:
        length += len(chunk)
        crc = zlib.crc32(chunk, crc)
    _send_buffers(sock, [_FRAME.pack(WIRE_MAGIC, WIRE_VERSION, kind, length, crc), *chunks])
    return length


def _get_frame(ordinal: int, index: int) -> bytes:
    """A whole GET frame for block ``index`` of the catalog's table
    number ``ordinal``."""
    payload = _GET.pack(ordinal, index)
    header = _FRAME.pack(WIRE_MAGIC, WIRE_VERSION, FRAME_GET, _GET.size, zlib.crc32(payload))
    return header + payload


class FrameReader:
    """One connection's frames, read out of its own receive buffer.

    The reader is its socket's only reader.  A receive asks for all of
    the buffer's free space, so a window of GETs (at the server) or of
    BLOCKs (at the client) arrives in few receives, and each frame is
    parsed where it landed.  A payload is a view of the buffer, valid
    until the reader's next read.
    """

    __slots__ = ("sock", "_view", "_start", "_end")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._view = memoryview(bytearray(RECV_BUFFER))
        #: The unread bytes are ``_view[_start:_end]``.
        self._start = self._end = 0

    def read_frame(self) -> tuple[int, memoryview | bytes]:
        """Read one frame, validating magic, version, the payload cap
        and the payload CRC."""
        magic, version, kind, length, crc = _FRAME.unpack(_recv_exact(self, _FRAME.size))
        if magic != WIRE_MAGIC:
            raise ReplicaWireError(f"bad frame magic 0x{magic:08x}")
        if version != WIRE_VERSION:
            raise ReplicaWireError(f"unsupported wire version {version}")
        if length > MAX_PAYLOAD:
            raise ReplicaWireError(f"frame payload {length} exceeds cap")
        payload = _recv_exact(self, length) if length else b""
        if zlib.crc32(payload) != crc:
            raise ReplicaWireError("frame payload checksum mismatch")
        return kind, payload

    def _fill(self, nbytes: int) -> None:
        """Receive until ``nbytes`` unread bytes are buffered.

        The unread tail moves to the front first when the room after it
        is short.  A frame larger than the buffer grows it at most
        twofold each time the buffer fills, so a stated length alone
        never grows it past twice what the peer has sent."""
        held = self._end - self._start
        if len(self._view) - self._start < nbytes:
            self._view[:held] = self._view[self._start : self._end]
            self._start, self._end = 0, held
        recv_into = self.sock.recv_into
        while self._end - self._start < nbytes:
            if self._end == len(self._view):
                grown = memoryview(bytearray(min(nbytes, 2 * len(self._view))))
                grown[: self._end] = self._view[: self._end]
                self._view = grown
            try:
                got = recv_into(self._view[self._end :])
            except OSError as exc:
                raise ReplicaWireError(f"replica stream recv failed: {exc}") from exc
            if not got:
                raise ReplicaWireError("replica connection closed mid-frame")
            self._end += got


def _recv_exact(reader: FrameReader, nbytes: int) -> memoryview:
    """The next ``nbytes`` of the reader's stream, out of its buffer;
    the buffer is filled only when it holds fewer."""
    if reader._end - reader._start < nbytes:
        reader._fill(nbytes)
    start = reader._start
    reader._start = start + nbytes
    return reader._view[start : start + nbytes]


def _raise_on_error(kind: int, payload, expected: int) -> None:
    if kind == FRAME_ERROR:
        raise ReplicaWireError(
            f"replica refused: {bytes(payload).decode('utf-8', 'replace')}"
        )
    if kind != expected:
        raise ReplicaWireError(f"expected frame kind {expected}, got {kind}")


def _session_token(payload) -> str | None:
    """The session token a HELLO or BYE names, ``""`` if it names none;
    ``None`` if the payload is not such a request."""
    try:
        request = json.loads(bytes(payload))
    except (ValueError, RecursionError):
        return None
    token = request.get("session", "") if isinstance(request, dict) else None
    return token if isinstance(token, str) else None


# ----------------------------------------------------------------------
# Catalog shapes
# ----------------------------------------------------------------------


@dataclass(slots=True)
class WireBlock(TimeRange):
    """One sealed block as described by a session catalog.  Not frozen,
    as :class:`~repro.shm.layout.BlockExtent` is not: a handshake builds
    one per block."""

    table: str
    index: int
    size: int
    row_count: int
    min_time: int
    max_time: int
    columns: tuple[str, ...]


@dataclass(frozen=True)
class WireTable:
    """One table as described by a session catalog."""

    name: str
    rows_ingested: int
    rows_expired: int
    blocks: tuple[WireBlock, ...]


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
                        block.packed_size,
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


def _parse_catalog(payload) -> tuple[str, tuple[WireTable, ...]]:
    """The session token and tables of a CATALOG frame; a payload that
    is not a well-formed catalog is a :class:`ReplicaWireError`."""
    try:
        doc = json.loads(bytes(payload))
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
        #: token -> the session's block lists, in catalog order
        self._sessions: dict[str, tuple[list, ...]] = {}
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
        #: The pinned session's block lists, in catalog order.
        tables: tuple[list, ...] | None = None
        reader = FrameReader(conn)
        try:
            with conn:
                while True:
                    kind, payload = reader.read_frame()
                    if kind == FRAME_GET:
                        self._handle_get(conn, tables, payload)
                    elif kind == FRAME_HELLO:
                        tables = self._handle_hello(conn, payload)
                    elif kind == FRAME_BYE:
                        self._drop_session(payload)
                        return
                    else:
                        send_frame(
                            conn, FRAME_ERROR, f"bad frame kind {kind}".encode()
                        )
        except (ReplicaWireError, OSError):
            return  # client went away; nothing to clean beyond the conn
        finally:
            with self._lock:
                self._conns.discard(conn)

    def _handle_hello(self, conn: socket.socket, payload) -> tuple[list, ...] | None:
        token = _session_token(payload)
        if token is None:
            send_frame(conn, FRAME_ERROR, b"malformed HELLO")
            return None
        if token:
            with self._lock:
                tables = self._sessions.get(token)
            if tables is None:
                send_frame(conn, FRAME_ERROR, f"unknown session {token}".encode())
                return None
            # A joining stream already has the catalog from the opening
            # stream; acknowledging with an empty table list keeps the
            # join round trip at two small frames.
            brief = json.dumps({"session": token, "tables": []}).encode()
            send_frame(conn, FRAME_CATALOG, brief)
            return tables
        session = self._snapshot_source()
        tables = tuple(session[name][0] for name in sorted(session))
        with self._lock:
            token = f"s{next(self._tokens)}"
            catalog = _catalog_payload(token, session)
            self._sessions[token] = tables
            self.sessions_opened += 1
        send_frame(conn, FRAME_CATALOG, catalog)
        return tables

    def _handle_get(self, conn: socket.socket, tables: tuple[list, ...] | None, payload) -> None:
        """Answer one GET with its block, or with an ERROR frame when it
        comes before a HELLO, has the wrong length, or names no block."""
        if tables is None:
            send_frame(conn, FRAME_ERROR, b"GET before HELLO")
            return
        if len(payload) != _GET.size:
            send_frame(conn, FRAME_ERROR, f"GET of {len(payload)} bytes".encode())
            return
        ordinal, index = _GET.unpack(payload)
        if ordinal >= len(tables) or index >= len(tables[ordinal]):
            send_frame(conn, FRAME_ERROR, f"no block {index} in table {ordinal}".encode())
            return
        sent = send_frame(conn, FRAME_BLOCK, *tables[ordinal][index].packed_chunks())
        with self._lock:
            self.blocks_served += 1
            self.bytes_served += sent

    def _drop_session(self, payload) -> None:
        token = _session_token(payload)
        if token:
            with self._lock:
                self._sessions.pop(token, None)

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


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------


class ReplicaFetchSession:
    """Up to N connections pinned to one replica session: the opening
    one connects with the session, the rest with :meth:`open_streams`.

    ``fetch`` is thread-safe: callers borrow a connection (its socket
    and its :class:`FrameReader`) from the pool, run one GET/BLOCK
    exchange, and return it — the pipelined restore runs ``streams``
    fetches concurrently.  Any wire failure marks the whole session
    broken (the rung is all-or-nothing), closes the bad connection, and
    raises :class:`ReplicaWireError`.
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
        self._pool: queue.Queue[FrameReader] = queue.Queue()
        self._closed = False
        #: The first failure on any stream; the session is condemned.
        self._failure: BaseException | None = None
        self.token = ""
        self.tables: tuple[WireTable, ...] = ()
        #: table name -> its ordinal in the catalog, as a GET names it
        self._ordinals: dict[str, int] = {}
        self._address = address
        try:
            self._join(opening=True)
        except BaseException:
            self.close()
            raise

    def open_streams(self) -> None:
        """Connect the joining streams, up to ``streams`` in all.

        A drain calls this before it pulls; a serving restore's fault-ins
        share the opening connection, so a restart that never drains
        opens exactly one.  Joining streams are independent connects
        acknowledged with a two-frame handshake; opening them
        concurrently keeps the join at ~one round trip regardless of the
        stream count.
        """
        if self._failure is not None:
            raise self._failure
        if self._closed:
            raise ReplicaWireError("replica session closed")
        extras = self.streams - len(self._sockets)
        if extras <= 0:
            return
        with ThreadPoolExecutor(max_workers=extras, thread_name_prefix="replica-join") as pool:
            joins = [pool.submit(self._join, False) for _ in range(extras)]
            for join in joins:
                join.result()

    def _join(self, opening: bool) -> None:
        try:
            sock = socket.create_connection(self._address, timeout=self._timeout)
        except OSError as exc:
            raise ReplicaWireError(
                f"cannot reach replica at {self._address}: {exc}"
            ) from exc
        _no_delay(sock)
        self._sockets.append(sock)
        reader = FrameReader(sock)
        request = {"open": True} if opening else {"session": self.token}
        send_frame(sock, FRAME_HELLO, json.dumps(request).encode())
        kind, payload = reader.read_frame()
        _raise_on_error(kind, payload, FRAME_CATALOG)
        token, tables = _parse_catalog(payload)
        if opening:
            self.token = token
            self.tables = tables
            self._ordinals = {table.name: at for at, table in enumerate(tables)}
        elif token != self.token:
            raise ReplicaWireError("replica session token mismatch")
        self._pool.put(reader)

    def _borrow(self) -> FrameReader:
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

    def _condemn(self, reader: FrameReader, exc: BaseException) -> None:
        """The conn may hold half a frame: it never returns to the pool,
        and one bad stream condemns the session."""
        if self._failure is None:
            self._failure = exc
        try:
            reader.sock.close()
        except OSError:
            pass

    def _gets(self, requests: list[tuple[str, int]]) -> bytes:
        """The GET frames for ``requests``, back to back."""
        ordinals = self._ordinals
        try:
            return b"".join(_get_frame(ordinals[table], index) for table, index in requests)
        except KeyError as exc:
            raise ReplicaWireError(f"no table {exc} in the session catalog") from None

    def fetch(self, table: str, index: int) -> bytes:
        """One GET/BLOCK exchange; returns the packed block payload."""
        reader = self._borrow()
        try:
            _send_buffers(reader.sock, [self._gets([(table, index)])])
            kind, payload = reader.read_frame()
            _raise_on_error(kind, payload, FRAME_BLOCK)
            # The connection goes back to the pool: the payload leaves
            # its buffer.
            payload = bytes(payload)
        except BaseException as exc:
            self._condemn(reader, exc)
            raise
        self._pool.put(reader)
        return payload

    def fetch_many(
        self,
        requests: list[tuple[str, int]],
        handler: Callable[[str, int, memoryview], None],
    ) -> None:
        """Windowed pipelined GETs on one borrowed connection.

        Keeps up to :data:`DEFAULT_WINDOW` GET frames in flight ahead of
        the responses, topping the window up in one write whenever half
        of it has been answered, and calls ``handler(table, index,
        payload)`` as each BLOCK frame lands — one stream pays the
        request/response round trip once per window instead of once per
        block.  The payload is a view of the connection's receive
        buffer, valid until ``handler`` returns.  Responses arrive in
        request order (the server answers each connection sequentially).
        Failure semantics match :meth:`fetch`: any wire error condemns
        the connection and the session.
        """
        if not requests:
            return
        reader = self._borrow()
        try:
            pending: deque[tuple[str, int]] = deque()
            sent = 0
            while pending or sent < len(requests):
                room = DEFAULT_WINDOW - len(pending)
                if sent < len(requests) and 2 * room >= DEFAULT_WINDOW:
                    window = requests[sent : sent + room]
                    _send_buffers(reader.sock, [self._gets(window)])
                    pending.extend(window)
                    sent += len(window)
                kind, payload = reader.read_frame()
                _raise_on_error(kind, payload, FRAME_BLOCK)
                table, index = pending.popleft()
                handler(table, index, payload)
        except BaseException as exc:
            self._condemn(reader, exc)
            raise
        self._pool.put(reader)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            if self.token and self._failure is None:
                reader = self._pool.get_nowait()
                send_frame(
                    reader.sock, FRAME_BYE, json.dumps({"session": self.token}).encode()
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
    "FrameReader",
    "MAX_PAYLOAD",
    "RECV_BUFFER",
    "ReplicaBlockServer",
    "ReplicaCatalog",
    "ReplicaFetchSession",
    "TableSnapshot",
    "WireBlock",
    "WireTable",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "send_frame",
    "snapshot_leafmap",
]
