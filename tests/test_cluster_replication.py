"""The replica recovery tier: wire protocol, ladder fallback, failover.

Five angles on the new rung:

- **Wire round trip** (property): a sealed block crossing the framed
  protocol arrives byte-identical to ``RowBlock.pack`` — dictionary and
  float codecs included — for arbitrary table contents.
- **Framing**: one gathered write per frame (a window of GETs is one),
  a reader that yields the same frames however the bytes are split,
  and a standby that answers every request it cannot read with an
  ERROR frame and goes on serving.
- **Fault sweep**: the connection dies at every protocol phase
  (handshake, mid-stream, mid-block, post-adopt) and the leaf must land
  on the local disk rungs all-or-nothing: tracker balanced, partial
  attempt counters preserved, rows identical to an unfaulted restore.
- **Cluster failover**: queries issued while a leaf restarts return
  *complete* results — the aggregator substitutes the standby.
- **Catalog plumbing**: ingest mirroring keeps the standby
  digest-identical, and sessions survive concurrent streams.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
import uuid
import zlib
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import replication
from repro.cluster.cluster import Cluster
from repro.cluster.replication import (
    DEFAULT_WINDOW,
    FRAME_BLOCK,
    FRAME_CATALOG,
    FRAME_ERROR,
    FRAME_GET,
    FRAME_HELLO,
    MAX_PAYLOAD,
    RECV_BUFFER,
    WIRE_MAGIC,
    WIRE_VERSION,
    FrameReader,
    ReplicaBlockServer,
    ReplicaFetchSession,
    _catalog_payload,
    _get_frame,
    _parse_catalog,
    send_frame,
    snapshot_leafmap,
)
from repro.columnstore.leafmap import LeafMap
from repro.columnstore.rowblock import RowBlock
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.disk.backup import DiskBackup
from repro.errors import CorruptionError, ReplicaWireError
from repro.query.query import Aggregation, Query
from repro.server.aggregator import Aggregator
from repro.server.leaf import LeafServer, LeafStatus
from repro.shm.metadata import LeafMetadata
from repro.util.checksum import rows_digest
from repro.util.clock import ManualClock
from repro.util.memtrack import MemoryTracker
from repro.workloads import service_requests
from tests.crashpoints import Recorder

#: A GET's payload: the catalog's table ordinal, then the block index.
GET = replication._GET

# Rows exercising every codec: dictionary (strings), float, int, list.
row_strategy = st.fixed_dictionaries(
    {"time": st.integers(min_value=0, max_value=2**40)},
    optional={
        "host": st.sampled_from(["a", "bb", "ccc", ""]),
        "value": st.floats(allow_nan=False, width=32),
        "count": st.integers(min_value=-(2**40), max_value=2**40),
        "tags": st.lists(st.sampled_from(["x", "y", "zz"]), max_size=3),
    },
)

tables_strategy = st.dictionaries(
    st.sampled_from(["alpha", "beta", "gamma"]),
    st.lists(row_strategy, min_size=1, max_size=40),
    min_size=1,
    max_size=3,
)


def build_map(tables) -> LeafMap:
    leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=16)
    for name, rows in tables.items():
        leafmap.get_or_create(name).add_rows(rows)
    leafmap.seal_all()
    return leafmap


class TestWireRoundTripProperty:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(tables=tables_strategy)
    def test_framed_block_is_byte_identical(self, tables):
        """Sealed block -> wire frame -> remote decode is the identity,
        the frame is one gathered write of its header and ``pack()``'s
        bytes, and the catalog's size for every block is its packed
        length."""
        leafmap = build_map(tables)
        _, catalog = _parse_catalog(_catalog_payload("s1", snapshot_leafmap(leafmap)))
        for wire in catalog:
            blocks = leafmap.get_table(wire.name).blocks
            assert [desc.size for desc in wire.blocks] == [len(b.pack()) for b in blocks]
        client, server = socket.socketpair()
        reader = FrameReader(client)
        try:
            for table in leafmap:
                for block in table.blocks:
                    packed = block.pack()
                    chunks = block.packed_chunks()
                    assert b"".join(bytes(c) for c in chunks) == packed
                    # One gathered write: the header, then pack()'s bytes.
                    written = Capture()
                    send_frame(written, FRAME_BLOCK, *chunks)
                    assert written.calls == [1 + len(chunks)]
                    assert written.data == struct.pack(
                        "<IHHII", WIRE_MAGIC, WIRE_VERSION, FRAME_BLOCK, len(packed),
                        zlib.crc32(packed),
                    ) + packed
                    send_frame(server, FRAME_BLOCK, *chunks)
                    kind, payload = reader.read_frame()
                    assert kind == FRAME_BLOCK
                    assert payload == packed
                    remote = RowBlock.unpack(payload)
                    remote.verify()
                    assert remote.pack() == packed
                    assert remote.to_rows() == block.to_rows()
                    assert rows_digest(remote.to_rows()) == rows_digest(
                        block.to_rows()
                    )
        finally:
            client.close()
            server.close()

    def test_session_fetch_matches_pack_over_tcp(self):
        """The full server/session path, dictionary + float columns.
        More blocks than one window, so ``fetch_many`` receives inside
        its send loop as well as after it."""
        leafmap = build_map(
            {
                "events": [
                    {"time": i, "host": f"h{i % 3}", "value": i / 7}
                    for i in range(16 * (DEFAULT_WINDOW + 8))
                ]
            }
        )
        server = ReplicaBlockServer(lambda: snapshot_leafmap(leafmap))
        session = ReplicaFetchSession(server.address, streams=3)
        try:
            (wire,) = session.tables
            blocks = wire.blocks
            table = leafmap.get_table("events")
            assert len(blocks) == table.block_count > DEFAULT_WINDOW
            for desc in blocks:
                payload = session.fetch(desc.table, desc.index)
                assert payload == table.blocks[desc.index].pack()
                assert desc.size == len(payload)
            # fetch_many covers the pipelined path with the same bytes.
            got: dict[int, bytes] = {}
            session.fetch_many(
                [(d.table, d.index) for d in blocks],
                lambda _t, i, p: got.__setitem__(i, p),
            )
            for desc in blocks:
                assert got[desc.index] == table.blocks[desc.index].pack()
        finally:
            session.close()
            server.close()

    def test_close_closes_every_socket_when_the_bye_send_raises(self, monkeypatch):
        """A BYE that fails with anything but a wire error (the crash
        sweep's injected ``send`` fault) must not skip the closes."""
        leafmap = build_map({"events": [{"time": i} for i in range(8)]})
        server = ReplicaBlockServer(lambda: snapshot_leafmap(leafmap))
        session = ReplicaFetchSession(server.address, streams=3)
        try:
            # Drain first, as a blocking restore does: every stream joins.
            session.open_streams()
            (wire,) = session.tables
            session.fetch_many([(d.table, d.index) for d in wire.blocks], lambda *_: None)

            def failing_send(*args):
                raise RuntimeError("injected send fault")

            monkeypatch.setattr(replication, "send_frame", failing_send)
            with pytest.raises(RuntimeError, match="injected"):
                session.close()
            assert len(session._sockets) == 3
            assert all(sock.fileno() == -1 for sock in session._sockets)
        finally:
            server.close()


class Capture:
    """A socket that takes every ``sendmsg`` whole, or at most ``limit``
    bytes of it, and keeps what it took."""

    def __init__(self, limit: int | None = None) -> None:
        self.limit = limit
        self.data = bytearray()
        self.calls: list[int] = []

    def sendmsg(self, buffers) -> int:
        self.calls.append(len(buffers))
        joined = b"".join(bytes(b) for b in buffers)[: self.limit]
        self.data += joined
        return len(joined)


class Scripted:
    """A socket whose receives return the ``pieces`` given, in order
    (a piece longer than the receive's room spills into the next), and
    then end of stream."""

    def __init__(self, pieces) -> None:
        self.pieces = deque(bytes(p) for p in pieces if p)
        self.recvs = 0

    def recv_into(self, view) -> int:
        self.recvs += 1
        if not self.pieces:
            return 0
        piece = self.pieces.popleft()
        taken = min(len(view), len(piece))
        view[:taken] = piece[:taken]
        if taken < len(piece):
            self.pieces.appendleft(piece[taken:])
        return taken


def frames_of(*frames) -> bytes:
    """``(kind, payload)`` frames as the bytes one connection carries."""
    out = Capture()
    for kind, payload in frames:
        send_frame(out, kind, payload)
    return bytes(out.data)


#: A joining stream's HELLO, then two GETs: what a server reads.
STREAM = (
    (FRAME_HELLO, b'{"session": "s1"}'),
    (FRAME_GET, GET.pack(0, 1)),
    (FRAME_GET, GET.pack(1, 7)),
)


def read_all(sock, count: int) -> list[tuple[int, bytes]]:
    reader = FrameReader(sock)
    return [(kind, bytes(payload)) for kind, payload in (reader.read_frame() for _ in range(count))]


class TestFraming:
    """One gathered write per frame, and a reader that yields the same
    frames however the bytes arrive."""

    def test_get_frames_are_the_catalog_ordinal_and_the_index(self):
        assert _get_frame(0, 1) + _get_frame(1, 7) == frames_of(*STREAM[1:])

    def test_one_byte_per_receive(self):
        stream = frames_of(*STREAM)
        sock = Scripted(stream[i : i + 1] for i in range(len(stream)))
        assert read_all(sock, 3) == list(STREAM)
        assert sock.recvs == len(stream)

    def test_everything_in_one_receive(self):
        sock = Scripted([frames_of(*STREAM)])
        assert read_all(sock, 3) == list(STREAM)
        assert sock.recvs == 1

    def test_a_stream_cut_at_every_offset(self):
        stream = frames_of(*STREAM)
        for cut in range(len(stream) + 1):
            assert read_all(Scripted([stream[:cut], stream[cut:]]), 3) == list(STREAM), cut

    def test_a_frame_cut_short_raises(self):
        stream = frames_of(*STREAM)
        for cut in range(len(stream)):
            with pytest.raises(ReplicaWireError, match="closed mid-frame"):
                read_all(Scripted([stream[:cut]]), 3)

    def test_a_frame_larger_than_the_buffer_grows_it(self):
        big = bytes(range(256)) * (3 * RECV_BUFFER // 256 + 1)
        stream = frames_of((FRAME_BLOCK, big), *STREAM)
        sock = Scripted(stream[i : i + 65536] for i in range(0, len(stream), 65536))
        assert read_all(sock, 4) == [(FRAME_BLOCK, big), *STREAM]

    def test_a_stated_length_alone_allocates_nothing(self):
        """The cap is checked before the buffer grows, and below the cap
        the buffer grows only with bytes that arrived."""
        over = struct.pack("<IHHII", WIRE_MAGIC, WIRE_VERSION, FRAME_BLOCK, MAX_PAYLOAD + 1, 0)
        with pytest.raises(ReplicaWireError, match="exceeds cap"):
            read_all(Scripted([over]), 1)
        under = struct.pack("<IHHII", WIRE_MAGIC, WIRE_VERSION, FRAME_BLOCK, MAX_PAYLOAD, 0)
        reader = FrameReader(Scripted([under, b"x" * 100]))
        with pytest.raises(ReplicaWireError, match="closed mid-frame"):
            reader.read_frame()
        assert len(reader._view) == RECV_BUFFER

    @pytest.mark.parametrize("limit", [1, 7, 4096])
    def test_partial_sends_and_long_buffer_lists(self, limit, monkeypatch):
        """The write loops until the kernel took every byte, and splits a
        list longer than ``_IOV_MAX``."""
        monkeypatch.setattr(replication, "_IOV_MAX", 3)
        chunks = [bytes([i]) * (i * 5) for i in range(10)]
        whole, partial = Capture(), Capture(limit)
        send_frame(whole, FRAME_BLOCK, *chunks)
        send_frame(partial, FRAME_BLOCK, *chunks)
        assert partial.data == whole.data
        assert max(partial.calls) <= 3


class TestPerFrameCost:
    """Socket calls per frame, counted: a frame is one write, a window
    of GETs is one write, and a pipelined pull receives fewer times than
    it gets frames."""

    class Counting:
        """A socket that counts its writes and receives; its receives
        wait (up to a few seconds) until ``ready()`` holds."""

        def __init__(self, sock, ready=lambda: True) -> None:
            self.sock, self.ready = sock, ready
            self.writes = self.recvs = 0

        def sendmsg(self, buffers) -> int:
            self.writes += 1
            return self.sock.sendmsg(buffers)

        def recv_into(self, view) -> int:
            self.recvs += 1
            deadline = time.monotonic() + 5
            while not self.ready() and time.monotonic() < deadline:
                time.sleep(0.001)
            return self.sock.recv_into(view)

    def test_a_block_frame_is_one_write(self):
        leafmap = build_map({"events": [{"time": i, "host": f"h{i % 3}", "v": i / 3} for i in range(16)]})
        (block,) = leafmap.get_table("events").blocks
        ours, theirs = socket.socketpair()
        with ours, theirs:
            counting = self.Counting(theirs)
            send_frame(counting, FRAME_BLOCK, *block.packed_chunks())
            assert counting.writes == 1 < len(block.packed_chunks())
            kind, payload = FrameReader(ours).read_frame()
        assert (kind, payload) == (FRAME_BLOCK, block.pack())

    def test_a_window_of_gets_is_one_write_and_its_blocks_few_receives(self):
        leafmap = build_map({"events": [{"time": i, "host": f"h{i % 3}"} for i in range(16 * 24)]})
        blocks = leafmap.get_table("events").blocks
        assert len(blocks) == 24 <= DEFAULT_WINDOW
        server = ReplicaBlockServer(lambda: snapshot_leafmap(leafmap))
        session = ReplicaFetchSession(server.address, streams=1)
        try:
            (reader,) = session._pool.queue
            # The first receive waits until every BLOCK left the server,
            # so each receive takes what the kernel holds.
            counting = reader.sock = self.Counting(
                reader.sock, lambda: server.blocks_served == len(blocks)
            )
            got = []
            session.fetch_many(
                [("events", i) for i in range(len(blocks))],
                lambda _t, i, payload: got.append((i, bytes(payload))),
            )
            assert got == [(i, block.pack()) for i, block in enumerate(blocks)]
            assert counting.writes == 1
            assert counting.recvs < len(blocks)
        finally:
            session.close()
            server.close()


class TestHostileRequests:
    """A request the server cannot read gets an ERROR frame, and the
    same connection then serves a valid GET: no stream thread dies."""

    @pytest.fixture
    def excepthooks(self, monkeypatch):
        seen = []
        monkeypatch.setattr(threading, "excepthook", seen.append)
        return seen

    def test_bad_gets_and_hellos_get_error_frames(self, excepthooks):
        leafmap = build_map(
            {"alpha": [{"time": i} for i in range(40)], "beta": [{"time": i} for i in range(20)]}
        )
        server = ReplicaBlockServer(lambda: snapshot_leafmap(leafmap))
        try:
            with socket.create_connection(server.address, timeout=10) as sock:
                reader = FrameReader(sock)

                def ask(kind, payload) -> tuple[int, bytes]:
                    send_frame(sock, kind, payload)
                    got, body = reader.read_frame()
                    return got, bytes(body)

                assert ask(FRAME_GET, GET.pack(0, 0)) == (FRAME_ERROR, b"GET before HELLO")
                for hello in (b"\xff", b"[]", b"{", b'{"session": ["s1"]}'):
                    assert ask(FRAME_HELLO, hello) == (FRAME_ERROR, b"malformed HELLO")
                assert ask(FRAME_HELLO, b'{"open": true}')[0] == FRAME_CATALOG
                tables = [leafmap.get_table(name).blocks for name in ("alpha", "beta")]
                for payload in (
                    b"\xff",  # too short (and not JSON)
                    b"[]",
                    GET.pack(0, 0)[:-1],
                    GET.pack(0, 0) + b"\x00",  # too long
                    GET.pack(2, 0),  # no third table
                    GET.pack(1, len(tables[1])),  # past the table's last block
                    GET.pack(2**32 - 1, 2**32 - 1),
                ):
                    kind, body = ask(FRAME_GET, payload)
                    assert kind == FRAME_ERROR, payload
                kind, body = ask(FRAME_GET, GET.pack(1, len(tables[1]) - 1))
                assert (kind, body) == (FRAME_BLOCK, tables[1][-1].pack())
                kind, body = ask(FRAME_GET, GET.pack(0, 1))
                assert (kind, body) == (FRAME_BLOCK, tables[0][1].pack())
        finally:
            server.close()
        assert excepthooks == []


def populated(clock):
    leafmap = LeafMap(clock=clock, rows_per_block=32)
    leafmap.get_or_create("events").add_rows(
        [
            {"time": 1000 + i, "host": f"h{i % 5}", "value": i / 3}
            for i in range(300)
        ]
    )
    leafmap.get_or_create("metrics").add_rows(
        [{"time": 2000 + i, "count": i} for i in range(150)]
    )
    leafmap.seal_all()
    return leafmap


def synced_state(tmp_path, clock):
    """A leafmap, its synced backup, and a block server mirroring it."""
    leafmap = populated(clock)
    backup = DiskBackup(tmp_path / "backup")
    backup.sync_leafmap(leafmap)
    server = ReplicaBlockServer(lambda: snapshot_leafmap(leafmap))
    return leafmap, backup, server


def make_engine(shm_namespace, backup, server, clock, tracker, streams=2):
    engine = RestartEngine(
        "7",
        namespace=shm_namespace,
        backup=backup,
        tracker=tracker,
        clock=clock,
    )
    engine.replica_source = lambda: ReplicaFetchSession(
        server.address, streams=streams
    )
    return engine


#: Wire windows, by the side effect a raise replaces: the HELLO, the
#: first GET, a BLOCK frame between its header and its payload (the
#: third payload: two catalogs come first, one per stream), and the
#: first block adopted after the first table ("events") is home.
WIRE_WINDOWS = {
    "replica:handshake": lambda source: dict(kind="send", target=str(FRAME_HELLO)),
    "replica:stream": lambda source: dict(kind="send", target=str(FRAME_GET)),
    "replica:block": lambda source: dict(kind="recv", target="payload", nth=3),
    "replica:adopt": lambda source: dict(
        kind="allocate", target="heap", nth=source.get_table("events").block_count + 1
    ),
}


class TestReplicaFaultSweep:
    def test_unfaulted_wire_restore_is_identity(
        self, shm_namespace, tmp_path, clock
    ):
        source, backup, server = synced_state(tmp_path, clock)
        tracker = MemoryTracker()
        try:
            engine = make_engine(shm_namespace, backup, server, clock, tracker)
            restored = LeafMap(clock=clock, rows_per_block=32)
            report = engine.restore(restored)
        finally:
            server.close()
        assert report.method is RecoveryMethod.REPLICA
        assert restored.snapshot_rows() == source.snapshot_rows()
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    @pytest.mark.parametrize("point", list(WIRE_WINDOWS))
    def test_fault_lands_on_snapshot_rung_at_baseline(
        self, point, shm_namespace, tmp_path, clock, monkeypatch
    ):
        source, backup, server = synced_state(tmp_path, clock)
        tracker = MemoryTracker()
        recorder = Recorder(monkeypatch)
        recorder.fail(**WIRE_WINDOWS[point](source))
        try:
            engine = make_engine(shm_namespace, backup, server, clock, tracker)
            restored = LeafMap(clock=clock, rows_per_block=32)
            report = engine.restore(restored)
        finally:
            server.close()
        assert recorder.fired, "the injected fault never fired"
        assert report.fell_back_from_replica
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert report.failure_reason and "injected" in report.failure_reason
        assert restored.snapshot_rows() == source.snapshot_rows()
        # All-or-nothing: the tracker holds exactly the winning tier's
        # bytes, nothing from the abandoned wire attempt.
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    @pytest.mark.parametrize("point", list(WIRE_WINDOWS))
    def test_fault_with_torn_snapshot_lands_on_legacy(
        self, point, shm_namespace, tmp_path, clock, monkeypatch
    ):
        source, backup, server = synced_state(tmp_path, clock)
        victim = backup.snapshot_path("events")
        victim.write_bytes(victim.read_bytes()[:64])
        tracker = MemoryTracker()
        recorder = Recorder(monkeypatch)
        recorder.fail(**WIRE_WINDOWS[point](source))
        try:
            engine = make_engine(shm_namespace, backup, server, clock, tracker)
            restored = LeafMap(clock=clock, rows_per_block=32)
            report = engine.restore(restored)
        finally:
            server.close()
        assert recorder.fired
        assert report.fell_back_from_replica
        assert report.fell_back_to_legacy
        assert report.method is RecoveryMethod.DISK
        assert restored.snapshot_rows() == source.snapshot_rows()
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    @pytest.mark.parametrize("serving", [False, True])
    def test_shm_fault_lands_on_replica_rung(
        self, serving, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """Figure 5(b)'s middle rung: a fault mid-copy out of shared memory
        walks to the live standby before any disk rung, blocking
        (MEMORY_RECOVERY -> REPLICA_RECOVERY) or serving (MEMORY_SERVING ->
        REPLICA_RECOVERY)."""
        source, backup, server = synced_state(tmp_path, clock)
        tracker = MemoryTracker()
        try:
            engine = make_engine(shm_namespace, backup, server, clock, tracker)
            engine.backup_to_shm(populated(clock))
            # The first block out of shared memory dies before it is charged.
            recorder = Recorder(monkeypatch)
            recorder.fail(kind="allocate", target="heap")
            restored = LeafMap(clock=clock, rows_per_block=32)
            if serving:
                handle = engine.begin_lazy_restore(restored)
                handle.drain()
                report = handle.report
            else:
                report = engine.restore(restored)
        finally:
            server.close()
        assert recorder.fired
        assert report.fell_back_to_disk and not report.fell_back_from_replica
        assert report.method is RecoveryMethod.REPLICA
        first = "memory_serving" if serving else "memory_recovery"
        assert report.leaf_states[-3:] == [first, "replica_recovery", "alive"]
        assert restored.snapshot_rows() == source.snapshot_rows()
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    def test_late_fault_keeps_the_attempt_counters(
        self, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """A fault after the first table adopted must surface how far the
        wire attempt got before the rungs below discarded it."""
        source, backup, server = synced_state(tmp_path, clock)
        tracker = MemoryTracker()
        Recorder(monkeypatch).fail(**WIRE_WINDOWS["replica:adopt"](source))
        try:
            engine = make_engine(shm_namespace, backup, server, clock, tracker)
            restored = LeafMap(clock=clock, rows_per_block=32)
            report = engine.restore(restored)
        finally:
            server.close()
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        attempt = report.attempt(RecoveryMethod.REPLICA)
        assert attempt.tables == 1
        assert attempt.blocks == source.get_table("events").block_count
        assert attempt.bytes > 0
        assert restored.snapshot_rows() == source.snapshot_rows()

    @pytest.mark.parametrize(
        "point, entered", [("replica:handshake", False), ("replica:stream", True)]
    )
    def test_only_a_fall_from_inside_the_rung_is_a_fall_to_disk(
        self, point, entered, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """``fell_back_to_disk`` says a rung the leaf had entered fell: a
        handshake that fell never entered REPLICA_RECOVERY, so it sets
        ``fell_back_from_replica`` alone; a stream fault out of the
        published wire driver sets both."""
        source, backup, server = synced_state(tmp_path, clock)
        Recorder(monkeypatch).fail(
            **WIRE_WINDOWS[point](source), exc=CorruptionError(f"injected {point} fault")
        )
        try:
            engine = make_engine(shm_namespace, backup, server, clock, MemoryTracker())
            report = engine.restore(LeafMap(clock=clock, rows_per_block=32))
        finally:
            server.close()
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert report.fell_back_from_replica
        assert report.fell_back_to_disk is entered
        assert ("replica_recovery" in report.leaf_states) is entered
        assert report.attempt(RecoveryMethod.REPLICA).reason == (
            f"CorruptionError: injected {point} fault"
        )

    def test_connection_killed_mid_stream_by_server_close(
        self, shm_namespace, tmp_path, clock
    ):
        """A real dead connection (not an injected raise): the server
        vanishes between session open and the block pulls."""
        source, backup, server = synced_state(tmp_path, clock)
        tracker = MemoryTracker()
        engine = RestartEngine(
            "7",
            namespace=shm_namespace,
            backup=backup,
            tracker=tracker,
            clock=clock,
        )

        def half_dead_session():
            session = ReplicaFetchSession(server.address, streams=2)
            server.close()  # every subsequent GET dies on the wire
            return session

        engine.replica_source = half_dead_session
        restored = LeafMap(clock=clock, rows_per_block=32)
        report = engine.restore(restored)
        assert report.fell_back_from_replica
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored.snapshot_rows() == source.snapshot_rows()
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    def test_serve_path_handshake_fault_still_serves_from_disk(
        self, shm_namespace, tmp_path, clock
    ):
        """Serve-while-restoring with a dead replica: the leaf must still
        come up (from the disk rungs) and answer queries."""
        primary = LeafServer(
            "p0",
            backup=DiskBackup(tmp_path / "p0"),
            namespace=shm_namespace,
            rows_per_block=32,
        )
        primary.start()
        data = list(service_requests(600))
        primary.add_rows("service_requests", data)
        primary.leafmap.seal_all()
        primary.sync_to_disk()
        baseline = rows_digest(primary.leafmap.snapshot_rows())

        def dead_standby():
            raise ReplicaWireError("injected handshake fault")

        primary.engine.replica_source = dead_standby
        primary.crash()
        primary.start(serve_while_restoring=True, sweep=False)
        primary.wait_restored()
        report = primary.last_restart_report
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert rows_digest(primary.leafmap.snapshot_rows()) == baseline
        assert primary.status is LeafStatus.ALIVE


    @pytest.mark.parametrize("serve_while_restoring", [False, True])
    def test_malformed_catalog_means_no_replica_on_every_path(
        self, serve_while_restoring, shm_namespace, tmp_path, clock
    ):
        """Anything odd -> disk: a version-skewed catalog surfaces as a
        KeyError out of the handshake, not a wire error; neither the
        blocking rung nor the serving one may let it fail the start."""
        primary = LeafServer(
            "p0",
            backup=DiskBackup(tmp_path / "p0"),
            namespace=shm_namespace,
            rows_per_block=32,
        )
        primary.start()
        primary.add_rows("service_requests", list(service_requests(600)))
        primary.leafmap.seal_all()
        primary.sync_to_disk()
        baseline = rows_digest(primary.leafmap.snapshot_rows())

        def skewed_source():
            raise KeyError("rows_ingested")

        primary.engine.replica_source = skewed_source
        primary.crash()
        primary.start(serve_while_restoring=serve_while_restoring, sweep=False)
        report = primary.wait_restored()
        assert primary.status is LeafStatus.ALIVE
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert report.fell_back_from_replica
        assert report.failure_reason == "KeyError: 'rows_ingested'"
        assert rows_digest(primary.leafmap.snapshot_rows()) == baseline

    def test_session_is_closed_when_the_directory_never_goes_up(
        self, dirty_shm_namespace, tmp_path, clock
    ):
        """Between a live session and a published directory sits the
        discard of this leaf's stale shm; if that raises, the session
        (sockets + the standby's pinned snapshot) must not leak — the
        leaf lands on disk with the tracker balanced."""
        source, backup, server = synced_state(tmp_path, clock)
        server.close()  # the stub below stands in for the wire
        tracker = MemoryTracker()
        engine = RestartEngine(
            "7",
            namespace=dirty_shm_namespace,
            backup=backup,
            tracker=tracker,
            clock=clock,
        )
        # Stale local shm: backed up, then distrusted (valid bit down).
        stale = LeafMap(clock=clock, rows_per_block=32)
        stale.get_or_create("events").add_rows([{"time": 1, "host": "old"}])
        RestartEngine("7", namespace=dirty_shm_namespace, clock=clock).backup_to_shm(
            stale
        )
        meta = LeafMetadata.attach(dirty_shm_namespace, "7")
        meta.set_valid(False)
        meta.close()

        class StubSession:
            tables = ()
            closed = 0

            def close(self):
                self.closed += 1

        session = StubSession()
        engine.replica_source = lambda: session

        def refuse(meta):
            raise OSError("injected: cannot unlink the stale segments")

        engine._discard_shm_tracked = refuse
        restored = LeafMap(clock=clock, rows_per_block=32)
        try:
            handle = engine.begin_lazy_restore(restored)
        finally:
            del engine._discard_shm_tracked
            engine.discard_shm()
        assert session.closed == 1
        assert handle.done and handle.error is None
        assert handle.report.fell_back_from_replica
        assert handle.report.failure_reason.startswith("OSError: injected")
        assert handle.report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored.snapshot_rows() == source.snapshot_rows()
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)


def build_cluster(tmp_path, namespace: str) -> Cluster:
    return Cluster(
        2,
        tmp_path / "cluster",
        leaves_per_machine=2,
        namespace=namespace,
        rows_per_block=64,
        replication=True,
    )


COUNT = Query(table="events", aggregations=(Aggregation("count"),))


def total_count(result) -> int:
    assert len(result.rows) == 1
    return result.rows[0].values["count(*)"]


class TestStreams:
    """A session connects once at its handshake; only a drain joins the
    other ``streams``, so a serving restart holds one standby connection
    and a blocking one pulls over all of them."""

    @staticmethod
    def recording_engine(shm_namespace, backup, server, clock, sessions):
        engine = make_engine(shm_namespace, backup, server, clock, MemoryTracker())

        def open_session():
            sessions.append(ReplicaFetchSession(server.address, streams=3))
            return sessions[-1]

        engine.replica_source = open_session
        return engine

    def test_serving_restore_holds_one_connection_until_a_drain(
        self, shm_namespace, tmp_path, clock
    ):
        source, backup, server = synced_state(tmp_path, clock)
        sessions = []
        try:
            engine = self.recording_engine(shm_namespace, backup, server, clock, sessions)
            restored = LeafMap(clock=clock, rows_per_block=32)
            handle = engine.begin_lazy_restore(restored)
            (session,) = sessions
            assert len(session._sockets) == len(server._conns) == 1
            assert handle.fault_in_query("events", 1000, 1040) > 0
            assert handle.sweep_one()
            assert len(session._sockets) == len(server._conns) == 1
            handle.drain()
        finally:
            server.close()
        assert handle.report.method is RecoveryMethod.REPLICA
        assert len(session._sockets) == 3
        assert restored.snapshot_rows() == source.snapshot_rows()

    def test_blocking_restore_pulls_over_every_stream(self, shm_namespace, tmp_path, clock):
        source, backup, server = synced_state(tmp_path, clock)
        sessions = []
        try:
            engine = self.recording_engine(shm_namespace, backup, server, clock, sessions)
            restored = LeafMap(clock=clock, rows_per_block=32)
            report = engine.restore(restored)
        finally:
            server.close()
        (session,) = sessions
        assert report.method is RecoveryMethod.REPLICA
        assert len(session._sockets) == 3
        assert restored.snapshot_rows() == source.snapshot_rows()


class TestClusterFailover:
    def test_mirror_keeps_standby_digest_identical(self, tmp_path):
        namespace = f"reprorep-{uuid.uuid4().hex[:8]}"
        cluster = build_cluster(tmp_path, namespace)
        try:
            cluster.start_all()
            cluster.ingest(
                "events",
                [{"time": 1000 + i, "host": f"h{i % 7}"} for i in range(2000)],
                batch_rows=100,
            )
            assert cluster.replica_catalog.batches_mirrored > 0
            for leaf in cluster.leaves:
                replica = cluster.replica_catalog.replica_for(leaf.leaf_id)
                assert replica is not None
                assert rows_digest(
                    replica.leafmap.snapshot_rows()
                ) == rows_digest(leaf.leafmap.snapshot_rows())
        finally:
            cluster.close()

    def test_queries_complete_during_restart_window(self, tmp_path):
        """The acceptance test: no partial results at any point of a
        leaf's crash -> failover -> wire restore -> alive cycle."""
        namespace = f"reprorep-{uuid.uuid4().hex[:8]}"
        cluster = build_cluster(tmp_path, namespace)
        try:
            cluster.start_all()
            n_rows = 2000
            cluster.ingest(
                "events",
                [{"time": 1000 + i, "host": f"h{i % 7}"} for i in range(n_rows)],
                batch_rows=100,
            )
            cluster.sync_all()
            before = cluster.query(COUNT)
            assert before.leaves_responded == before.leaves_total
            assert total_count(before) == n_rows

            victim = cluster.leaves[0]
            (machine,) = [m for m in cluster.machines if victim in m.leaves]
            victim.crash()

            # Down: the aggregator must substitute the standby.
            down = cluster.query(COUNT)
            assert down.leaves_responded == down.leaves_total
            assert total_count(down) == n_rows
            assert machine.aggregator.failovers >= 1

            # Restarting: the leaf serves mid-restore over the wire; a
            # background storm of queries must stay complete throughout.
            results = []

            def storm():
                for _ in range(20):
                    results.append(cluster.query(COUNT))

            storm_thread = threading.Thread(target=storm)
            storm_thread.start()
            victim.start(serve_while_restoring=True)
            victim.wait_restored()
            storm_thread.join()
            for result in results:
                assert result.leaves_responded == result.leaves_total
                assert total_count(result) == n_rows

            assert victim.last_restart_report.method is RecoveryMethod.REPLICA
            after = cluster.query(COUNT)
            assert total_count(after) == n_rows
            # A flat aggregator with the same router agrees.
            flat = Aggregator(
                cluster.leaves, replica_router=cluster.replica_catalog.replica_for
            ).query(COUNT)
            assert total_count(flat) == n_rows
        finally:
            cluster.close()

    def test_failover_unavailable_when_both_down(self, tmp_path):
        namespace = f"reprorep-{uuid.uuid4().hex[:8]}"
        cluster = build_cluster(tmp_path, namespace)
        try:
            cluster.start_all()
            cluster.ingest(
                "events",
                [{"time": 1000 + i} for i in range(400)],
                batch_rows=100,
            )
            victim = cluster.leaves[0]
            replica = cluster.replica_catalog.replica_for(victim.leaf_id)
            victim.crash()
            replica.crash()
            result = cluster.query(COUNT)
            assert result.leaves_responded == result.leaves_total - 1
            assert 0 < result.coverage < 1
        finally:
            cluster.close()

    def test_catalog_close_stops_serving_sessions(self, tmp_path):
        namespace = f"reprorep-{uuid.uuid4().hex[:8]}"
        cluster = build_cluster(tmp_path, namespace)
        try:
            cluster.start_all()
            cluster.ingest(
                "events",
                [{"time": 1000 + i} for i in range(400)],
                batch_rows=100,
            )
            victim = cluster.leaves[0]
            source = victim.engine.replica_source
            session = source()
            assert session is not None
            session.close()
        finally:
            cluster.close()
        # After close the provider degrades to "no replica" — the ladder
        # falls through instead of hanging on a dead socket.
        assert source() is None